"""Declarative service-level objectives over the obs substrate.

An SLO here is a named, machine-checkable statement about the fabric's
behaviour — "p95 end-to-end signalling latency stays under 500 ms",
"fewer than 10% of reservation decisions are denials", "circuit
breakers open on under 5% of decisions" — evaluated after the fact over
what the metrics registry and event log recorded — or over a ``.tsrec``
recording of them, by the same verdict function, so a run and its
recording agree.  Three objective kinds cover the reproduction's needs:

* ``latency_quantile`` — a histogram quantile (via
  :meth:`~repro.obs.metrics.Histogram.aggregate_quantile`) must not
  exceed a threshold in seconds;
* ``denial_rate`` — ``DENY`` records (whatever their reason code) as a
  fraction of all admission decisions (``ADMIT`` + ``DENY``) must not
  exceed a ratio;
* ``breaker_open_rate`` — ``BREAKER`` open transitions per admission
  decision must not exceed a ratio.

Each verdict reports a **burn rate**: actual divided by allowed, the
standard error-budget multiple (1.0 = exactly at budget, 2.0 = burning
twice the budget).  ``repro slo`` evaluates a spec from the CLI and the
chaos harness attaches a verdict table to every run, so fault campaigns
answer "did recovery keep us inside the objectives?" and not just "did
the invariants hold?".

Spec files are JSON::

    {"slos": [
      {"name": "signalling-p95", "type": "latency_quantile",
       "metric": "signalling_latency_seconds",
       "quantile": 0.95, "threshold": 0.5},
      {"name": "denials", "type": "denial_rate", "threshold": 0.1},
      {"name": "breakers", "type": "breaker_open_rate", "threshold": 0.05}
    ]}
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable, Iterable

from repro.errors import ObservabilityError
from repro.obs.events import EventLog, RecordKind
from repro.obs.metrics import Histogram, MetricsRegistry

__all__ = [
    "SLO",
    "SLOResult",
    "SLOReport",
    "SLO_KINDS",
    "default_slos",
    "parse_slo_spec",
    "evaluate_slos",
    "evaluate_slos_from_recording",
]

SLO_KINDS = ("latency_quantile", "denial_rate", "breaker_open_rate")


@dataclass(frozen=True)
class SLO:
    """One declarative objective."""

    name: str
    kind: str
    #: Upper bound on the observed value: seconds for latency
    #: objectives, a ratio in [0, 1] for rate objectives.
    threshold: float
    #: Histogram metric name (``latency_quantile`` only).
    metric: str = ""
    #: Which quantile to hold to the threshold (``latency_quantile``).
    quantile: float = 0.95

    def __post_init__(self) -> None:
        if self.kind not in SLO_KINDS:
            raise ObservabilityError(
                f"SLO {self.name!r}: unknown kind {self.kind!r} "
                f"(expected one of {', '.join(SLO_KINDS)})"
            )
        if self.threshold < 0:
            raise ObservabilityError(
                f"SLO {self.name!r}: threshold must be >= 0"
            )
        if self.kind == "latency_quantile" and not self.metric:
            raise ObservabilityError(
                f"SLO {self.name!r}: latency_quantile needs a metric name"
            )
        if not 0.0 <= self.quantile <= 1.0:
            raise ObservabilityError(
                f"SLO {self.name!r}: quantile {self.quantile} outside [0, 1]"
            )


@dataclass(frozen=True)
class SLOResult:
    """The verdict for one objective."""

    slo: SLO
    #: The observed value (seconds or ratio, matching the objective).
    actual: float
    #: ``actual / threshold`` — the error-budget burn multiple.
    burn_rate: float
    ok: bool
    #: What the numbers were computed from (for the humans).
    detail: str


@dataclass(frozen=True)
class SLOReport:
    """All verdicts of one evaluation."""

    results: tuple[SLOResult, ...]

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.results)

    @property
    def failing(self) -> tuple[SLOResult, ...]:
        return tuple(r for r in self.results if not r.ok)

    def render(self) -> str:
        if not self.results:
            return "(no SLOs evaluated)"
        lines = [
            f"{'':4} {'objective':<24} {'actual':>10} {'allowed':>10} "
            f"{'burn':>7}"
        ]
        for r in self.results:
            verdict = "OK" if r.ok else "FAIL"
            lines.append(
                f"{verdict:<4} {r.slo.name:<24} {r.actual:>10.4f} "
                f"{r.slo.threshold:>10.4f} {r.burn_rate:>6.2f}x  {r.detail}"
            )
        status = "all objectives met" if self.ok else (
            f"{len(self.failing)} of {len(self.results)} objectives FAILING"
        )
        lines.append(status)
        return "\n".join(lines)


def default_slos() -> tuple[SLO, ...]:
    """The repo's built-in objectives — deliberately loose enough for a
    healthy fabric (including chaos runs, where every trial carries an
    injected fault) and tight enough to flag systemic regressions."""
    return (
        SLO(
            name="signalling-latency-p95",
            kind="latency_quantile",
            metric="signalling_latency_seconds",
            quantile=0.95,
            threshold=2.5,
        ),
        SLO(name="denial-rate", kind="denial_rate", threshold=0.5),
        SLO(
            name="breaker-open-rate",
            kind="breaker_open_rate",
            threshold=0.25,
        ),
    )


def parse_slo_spec(text: str) -> tuple[SLO, ...]:
    """Parse a JSON spec document (see module docstring) into SLOs."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ObservabilityError(f"SLO spec is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict) or not isinstance(doc.get("slos"), list):
        raise ObservabilityError('SLO spec needs a top-level "slos" list')
    slos: list[SLO] = []
    for i, raw in enumerate(doc["slos"]):
        if not isinstance(raw, dict):
            raise ObservabilityError(f"SLO spec entry {i} is not an object")
        unknown = set(raw) - {"name", "type", "threshold", "metric", "quantile"}
        if unknown:
            raise ObservabilityError(
                f"SLO spec entry {i} has unknown keys: {sorted(unknown)}"
            )
        try:
            name = str(raw["name"])
            kind = str(raw["type"])
            threshold = float(raw["threshold"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ObservabilityError(
                f"SLO spec entry {i} needs name/type/threshold: {exc}"
            ) from exc
        slos.append(
            SLO(
                name=name,
                kind=kind,
                threshold=threshold,
                metric=str(raw.get("metric", "")),
                quantile=float(raw.get("quantile", 0.95)),
            )
        )
    if not slos:
        raise ObservabilityError("SLO spec declares no objectives")
    return tuple(slos)


#: ``(metric, q) -> (q-quantile, observations)``; 0 observations means
#: the metric has no data.
_Quantile = Callable[[str, float], tuple[float, int]]


def _tally(events: Iterable[tuple[str, str]]) -> tuple[int, int, int]:
    """``(admits, denies, breaker opens)`` among ``(kind, reason)`` pairs."""
    admits = denies = opens = 0
    for kind, reason in events:
        if kind == RecordKind.ADMIT.value:
            admits += 1
        elif kind == RecordKind.DENY.value:
            denies += 1
        elif kind == RecordKind.BREAKER.value and reason.endswith("-> open"):
            opens += 1
    return admits, denies, opens


def _read_live(
    registry: MetricsRegistry | None, event_log: EventLog | None
) -> tuple[tuple[int, int, int], _Quantile]:
    def quantile(metric: str, q: float) -> tuple[float, int]:
        hist = registry.get(metric) if registry is not None else None
        if not isinstance(hist, Histogram):
            return 0.0, 0
        total = sum(s.count for s in hist.series().values())
        return hist.aggregate_quantile(q), total

    events = () if event_log is None else event_log
    return _tally((e.kind.value, e.reason) for e in events), quantile


def _read_recording(recording) -> tuple[tuple[int, int, int], _Quantile]:
    """A recording is not a registry: a histogram arrives as its scraped
    ``<name>:pNN`` gauges and ``<name>:count`` counters (only the
    quantiles the recorder samples exist), events as plain dicts."""
    store = recording.store

    def quantile(metric: str, q: float) -> tuple[float, int]:
        gauges = store.last_points(f"{metric}:p{int(q * 100)}")
        if not gauges:
            return 0.0, 0
        # Per-label-set quantiles cannot be merged; their maximum bounds
        # the merged distribution's quantile from above.
        worst = max(value for _, value in gauges.values())
        return worst, int(store.last_value(f"{metric}:count"))

    return _tally(
        (e.get("kind", ""), str(e.get("reason", "")))
        for e in recording.events
    ), quantile


def _evaluate_one(
    slo: SLO, counts: tuple[int, int, int], quantile: _Quantile
) -> SLOResult:
    """The verdict for one objective over what was observed: admit /
    deny / breaker-open counts and a quantile lookup.  An objective that
    saw nothing fails: an objective met over no traffic says nothing."""
    if slo.kind == "latency_quantile":
        actual, total = quantile(slo.metric, slo.quantile)
        seen = bool(total)
        if seen:
            detail = f"p{int(slo.quantile * 100)} of {total} observations"
        else:
            actual, detail = 0.0, f"metric {slo.metric!r} has no data"
    else:
        admits, denies, opens = counts
        decisions = admits + denies
        if slo.kind == "denial_rate":
            seen = decisions > 0
            actual = denies / decisions if decisions else 0.0
            detail = f"{denies} denials / {decisions} decisions"
        else:  # breaker_open_rate
            seen = decisions > 0 or opens > 0
            actual = opens / decisions if decisions else float(opens)
            detail = f"{opens} breaker opens / {decisions} decisions"
        if not seen:
            detail = f"no data ({detail})"
    if slo.threshold > 0:
        burn = actual / slo.threshold
    else:
        burn = 0.0 if actual == 0.0 else float("inf")
    return SLOResult(
        slo=slo,
        actual=actual,
        burn_rate=burn,
        ok=seen and actual <= slo.threshold,
        detail=detail,
    )


def evaluate_slos(
    slos: tuple[SLO, ...] | list[SLO],
    *,
    registry: MetricsRegistry | None,
    event_log: EventLog | None,
) -> SLOReport:
    """Evaluate every objective over what *registry* and *event_log*
    recorded.  Either source may be ``None`` (its objectives then see no
    data and fail, reading actual 0.0)."""
    seen = _read_live(registry, event_log)
    return SLOReport(tuple(_evaluate_one(slo, *seen) for slo in slos))


def evaluate_slos_from_recording(
    slos: tuple[SLO, ...] | list[SLO],
    recording,
) -> SLOReport:
    """Evaluate every objective over a loaded
    :class:`~repro.obs.telemetry.Recording` — :func:`evaluate_slos` read
    back, for ``repro slo --record FILE.tsrec``: the same verdicts the
    recorded run reported, from the events and scraped quantiles the
    recording carries."""
    seen = _read_recording(recording)
    return SLOReport(tuple(_evaluate_one(slo, *seen) for slo in slos))
