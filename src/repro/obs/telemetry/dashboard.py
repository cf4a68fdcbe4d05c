"""Rendering for ``repro top`` and ``repro timeline``.

Pure string builders over the telemetry substrate: given a
:class:`~repro.obs.telemetry.series.SeriesStore` (live or loaded from a
``.tsrec`` recording) plus the alert rules, :func:`render_top` draws the
fleet dashboard — one row per broker with its health badge, utilization
sparkline, admission/denial rates, backlog, defense rejections — and
the firing-alert table.  The badge is a view of the rules
(:func:`broker_health`): a broker is as unhealthy as the worst rule
breaching for it right now, so badge and pager cannot disagree.

:func:`merge_timeline` is the incident-forensics view: decision
records (from the event log, a recording or a saved ledger), alert
transitions and trace spans are normalised into one time-sorted
stream, filterable by correlation id (an incident's ``alert-…`` id or a
request's ``req-…`` id) or a time window — the "what happened around
t=40s" question answered in one place.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, Mapping, Sequence

from repro.obs.telemetry.alerts import (
    AlertRule,
    AlertSeverity,
    AlertState,
    AlertTransition,
)
from repro.obs.telemetry.series import SeriesStore

__all__ = [
    "sparkline",
    "broker_health",
    "health_badge",
    "render_top",
    "TimelineEntry",
    "merge_timeline",
    "render_timeline",
]

_SPARK_BLOCKS = " ▁▂▃▄▅▆▇█"
_SPARK_WIDTH = 16

#: Trailing window of the dashboard's per-second rates and reject counts.
_RATE_WINDOW_S = 30.0

#: One breaching rule, as the badge sees it: ``(rule, group, value)``.
Breach = tuple[AlertRule, str, float]


def sparkline(values: Sequence[float]) -> str:
    """A unicode block-height sketch of a 0..1 series' recent shape."""
    out = []
    for v in list(values)[-_SPARK_WIDTH:]:
        frac = min(max(v, 0.0), 1.0)
        out.append(_SPARK_BLOCKS[round(frac * (len(_SPARK_BLOCKS) - 1))])
    return "".join(out).rjust(_SPARK_WIDTH)


# ---------------------------------------------------------------------------
# repro top
# ---------------------------------------------------------------------------


def broker_health(
    store: SeriesStore, *, now: float, rules: Iterable[AlertRule],
) -> dict[str, list[Breach]]:
    """``{broker: [(rule, group, value), ...]}``, worst first: the rules
    that breach at *now* for a group naming the broker — its domain, or
    a link with it as an endpoint.  Breach is :meth:`AlertRule.evaluate`
    with no ``for_s`` wait, so the badge is instantaneous; fleet-wide
    groups name no broker and colour none."""
    out: dict[str, list[Breach]] = {}
    for rule in sorted(rules, key=lambda r: (
        r.severity is not AlertSeverity.CRITICAL, r.name,
    )):
        if rule.group_by not in ("domain", "link"):
            continue
        # evaluate() yields groups in sorted order.
        for group, (breached, value) in rule.evaluate(store, now).items():
            if breached:
                for broker in group.split("|"):
                    out.setdefault(broker, []).append((rule, group, value))
    return out


def health_badge(breaches: Sequence[Breach]) -> str:
    """WARNING → ``DEGRADED``, CRITICAL → ``CRITICAL``, nothing
    breaching → ``green``; *breaches* is worst first."""
    if not breaches:
        return "green"
    critical = breaches[0][0].severity is AlertSeverity.CRITICAL
    return "CRITICAL" if critical else "DEGRADED"


def _domains_of(store: SeriesStore) -> tuple[str, ...]:
    found = set()
    for key in store.keys():
        domain = key.label("domain")
        if domain:
            found.add(domain)
    return tuple(sorted(found))


def render_top(
    store: SeriesStore,
    *,
    now: float,
    domains: Iterable[str] | None = None,
    rules: Iterable[AlertRule] = (),
    alerts: Sequence[AlertTransition] = (),
    title: str = "repro top",
) -> str:
    """The fleet dashboard at instant *now*, as one printable block;
    the ``health`` column is :func:`broker_health` over *rules*."""
    domains = tuple(domains) if domains else _domains_of(store)
    health = broker_health(store, now=now, rules=rules)

    lines: list[str] = []
    lines.append(f"{title} — t={now:.1f}s  brokers={len(domains)}")
    lines.append("")
    header = (
        f"{'broker':<8} {'health':<8} {'util':>5} {'utilization':>16} "
        f"{'adm/s':>6} {'den/s':>6} {'pend':>5} {'backlog':>8} "
        f"{'rejects':>7}"
    )
    lines.append(header)
    lines.append("-" * len(header))
    for domain in domains:
        util_series = store.series("domain_utilization", {"domain": domain})
        util_points = [v for _, v in util_series.points()] if util_series else []
        util = util_points[-1] if util_points else 0.0
        admit_rate = store.rate(
            "admissions_total", now=now, window_s=_RATE_WINDOW_S,
            where={"domain": domain},
        )
        deny_rate = store.rate(
            "admissions_total", now=now, window_s=_RATE_WINDOW_S,
            where={"domain": domain, "granted": "false"},
        )
        pending = store.last_value(
            "reservation_table_size", {"domain": domain}
        )
        backlog = store.last_value(
            "work_queue_backlog_s", {"domain": domain}
        )
        rejects = store.delta(
            "defense_rejections_total", now=now, window_s=_RATE_WINDOW_S,
            where={"domain": domain},
        )
        lines.append(
            f"{domain:<8} {health_badge(health.get(domain, ())):<8} "
            f"{util:>4.0%} "
            f"{sparkline(util_points):>16} "
            f"{admit_rate:>6.2f} {deny_rate:>6.2f} {pending:>5.0f} "
            f"{backlog:>7.2f}s {rejects:>7.0f}"
        )

    pending_events = store.last_value("sim_pending_events")
    lines.append("")
    lines.append(f"sim pending events {pending_events:.0f}")

    # Per-domain non-green detail: the breaching rules, worst first.
    for domain in domains:
        for rule, group, value in health.get(domain, ()):
            name = rule.name if group == domain else f"{rule.name}/{group}"
            lines.append(
                f"  {domain}: {name} {value:.2f} ({rule.severity.value})"
            )

    # Alerts table (firing first, then most recent transitions).  An
    # incident is *currently* firing only if its latest transition is
    # the FIRING edge — a later RESOLVED edge retires it.
    latest: dict[tuple[str, str], Any] = {}
    for a in alerts:
        latest[(a.rule, a.group)] = a
    firing = [a for a in latest.values()
              if a.to_state == AlertState.FIRING]
    resolved = [a for a in alerts if a.to_state == AlertState.RESOLVED]
    lines.append("")
    if firing or resolved:
        lines.append(f"alerts: {len(firing)} firing, {len(resolved)} resolved")
        for a in firing:
            lines.append(
                f"  [{a.severity.value.upper():>8}] {a.rule}"
                f"{'/' + a.group if a.group else ''} FIRING since "
                f"t={a.at_time:.1f}s (value {a.value:.2f})  "
                f"{a.correlation_id}"
            )
        for a in resolved[-5:]:
            lines.append(
                f"  [resolved] {a.rule}"
                f"{'/' + a.group if a.group else ''} at t={a.at_time:.1f}s  "
                f"{a.correlation_id}"
            )
    else:
        lines.append("alerts: none")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# repro timeline
# ---------------------------------------------------------------------------


@dataclass(frozen=True, order=True)
class TimelineEntry:
    """One normalised line of the merged incident timeline."""

    at_time: float
    source: str  # "event" | "alert" | "span"
    text: str = field(compare=False)
    correlation_id: str = field(default="", compare=False)

    def render(self) -> str:
        tag = f"[{self.source:<5}]"
        corr = f"  ({self.correlation_id})" if self.correlation_id else ""
        return f"t={self.at_time:9.3f}s {tag} {self.text}{corr}"


def _record_entry(record: Mapping[str, Any]) -> TimelineEntry:
    """A decision record, live (``DecisionRecord.to_dict()``) or read
    back from a ``.tsrec`` or a saved ledger."""
    bits = [str(record.get("kind", "?")).upper()]
    for name, shown in (("domain", "@{}"), ("handle", "{}"),
                        ("reason_code", "[{}]"), ("reason", "{}")):
        if record.get(name):
            bits.append(shown.format(record[name]))
    return TimelineEntry(
        at_time=float(record.get("at_time", 0.0)),
        source="event",
        text=" ".join(bits),
        correlation_id=str(record.get("correlation_id", "")),
    )


def _alert_entry(alert: Mapping[str, Any]) -> TimelineEntry:
    rule = str(alert.get("rule", "?"))
    group = str(alert.get("group", ""))
    state = str(alert.get("state", "?"))
    severity = str(alert.get("severity", ""))
    value = alert.get("value", 0.0)
    name = f"{rule}/{group}" if group else rule
    return TimelineEntry(
        at_time=float(alert.get("at_time", 0.0)),
        source="alert",
        text=f"{name} -> {state.upper()} ({severity}, value {value})",
        correlation_id=str(alert.get("correlation_id", "")),
    )


def _span_entries(span: Any) -> TimelineEntry:
    duration = (
        f" ({span.sim_latency_s * 1000:.1f} ms sim)"
        if span.sim_latency_s else ""
    )
    return TimelineEntry(
        at_time=float(span.attributes.get("sim_start_s", 0.0)),
        source="span",
        text=f"{span.name} [{span.status}]{duration}",
        correlation_id=span.trace_id,
    )


def merge_timeline(
    *,
    records: Iterable[Mapping[str, Any]] = (),
    alerts: Iterable[Mapping[str, Any]] = (),
    spans: Iterable[Any] = (),
    correlation: str | None = None,
    window: tuple[float, float] | None = None,
) -> list[TimelineEntry]:
    """Normalise and merge the three streams, then filter and sort."""
    entries: list[TimelineEntry] = []
    entries.extend(_record_entry(r) for r in records)
    entries.extend(_alert_entry(a) for a in alerts)
    entries.extend(_span_entries(s) for s in spans)
    if correlation is not None:
        entries = [e for e in entries if e.correlation_id == correlation]
    if window is not None:
        start, end = window
        entries = [e for e in entries if start <= e.at_time <= end]
    entries.sort()
    return entries


def render_timeline(
    entries: Sequence[TimelineEntry], *, title: str = "timeline"
) -> str:
    lines = [f"{title}: {len(entries)} entries"]
    lines.extend(e.render() for e in entries)
    return "\n".join(lines)
