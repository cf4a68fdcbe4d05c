"""Alert rules and the pending → firing → resolved lifecycle.

Three rule kinds, all pure functions of a
:class:`~repro.obs.telemetry.series.SeriesStore` at an instant:

* ``threshold`` — latest value of a series against a bound;
* ``burn_rate`` — multi-window denial burn against a burn bound, per
  domain: a short window that confirms the problem is happening *now*
  and a long one that confirms it is *sustained*;
* ``anomaly`` — EWMA z-score of a gauge's newest sample against its
  own recent history (West's incremental variance), for drifts with no
  natural fixed bound.

The :class:`AlertEngine` owns one state machine per ``(rule, group)``
pair.  A breach moves INACTIVE → PENDING and mints an incident
correlation id (``alert-<rule>-<n>``, engine-deterministic, no
randomness) so even a blip's events stitch; a breach that persists for
``for_s`` moves PENDING → FIRING; recovery moves
FIRING → RESOLVED → INACTIVE.  Every transition is returned to
the caller, appended to the ``.tsrec`` recording, and emitted as an
:class:`~repro.obs.events.RecordKind.ALERT` record carrying the
incident's correlation id — which is exactly what lets ``repro
timeline`` stitch alerts into audit DecisionChains as one incident
timeline.

Like the rest of the package, nothing here reads a clock (REP113):
``step(store, now)`` is handed the simulated time, so a replayed
recording walks the same state machines through the same transitions.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Mapping

from repro.errors import ObservabilityError
from repro.obs import events as obs_events
from repro.obs.telemetry.series import SeriesStore, ewm_stats

__all__ = [
    "denial_burn",
    "AlertSeverity",
    "AlertState",
    "AlertRule",
    "AlertTransition",
    "AlertEngine",
    "default_rules",
    "chaos_rules",
]


class AlertSeverity(str, enum.Enum):
    WARNING = "warning"
    CRITICAL = "critical"


class AlertState(str, enum.Enum):
    INACTIVE = "inactive"
    PENDING = "pending"
    FIRING = "firing"
    RESOLVED = "resolved"


_KINDS = ("threshold", "burn_rate", "anomaly")

#: Newest samples an anomaly rule scores the latest one against.
_ANOMALY_LOOKBACK = 60


def _windowed_burn(
    store: SeriesStore, numerator: str, numerator_where: Mapping[str, str],
    denominator: str, denominator_where: Mapping[str, str], *,
    now: float, window_s: float, slo: float,
) -> float:
    """Windowed Δnumerator / Δdenominator divided by the SLO target."""
    num = store.delta(
        numerator, now=now, window_s=window_s, where=numerator_where
    )
    den = store.delta(
        denominator, now=now, window_s=window_s, where=denominator_where
    )
    if den <= 0:
        return 0.0
    return (num / den) / slo if slo > 0 else 0.0


def denial_burn(
    store: SeriesStore, domain: str, *, now: float, window_s: float,
    slo: float,
) -> float:
    """Windowed denial ratio (``admissions_total{granted=false}`` over
    all of the domain's admissions) divided by the SLO target."""
    return _windowed_burn(
        store, "admissions_total", {"domain": domain, "granted": "false"},
        "admissions_total", {"domain": domain},
        now=now, window_s=window_s, slo=slo,
    )


@dataclass(frozen=True)
class AlertRule:
    """One declarative rule.  ``group_by`` expands the rule over every
    value of that label found in the store (one state machine each);
    leave it empty for a single fleet-wide machine."""

    name: str
    kind: str
    metric: str = ""
    severity: AlertSeverity = AlertSeverity.WARNING
    group_by: str = ""
    #: Breach must persist this long before PENDING becomes FIRING.
    for_s: float = 0.0
    #: A threshold rule breaches at ``value >= threshold``; a burn rule
    #: when both windows' burn reaches it.
    threshold: float = 0.0
    # burn_rate parameters (denial-burn per domain)
    slo: float = 0.5
    fast_window_s: float = 10.0
    slow_window_s: float = 60.0
    #: The slow window confirms at ``threshold * slow_fraction`` — a
    #: ramping attack saturates the fast window long before the slow
    #: one catches up, so full-threshold confirmation would add most of
    #: a slow window to time-to-detect.
    slow_fraction: float = 1.0
    #: Generic burn selectors: windowed Δnumerator / Δdenominator over
    #: the SLO target.  Unset, the rule falls back to the per-domain
    #: admission :func:`denial_burn`.
    numerator: str = ""
    numerator_where: tuple[tuple[str, str], ...] = ()
    denominator: str = ""
    # anomaly parameters
    alpha: float = 0.3
    z_threshold: float = 4.0
    min_samples: int = 8

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ObservabilityError(
                f"alert rule {self.name!r}: unknown kind {self.kind!r} "
                f"(expected one of {_KINDS})"
            )
        if self.kind in ("threshold", "anomaly") and not self.metric:
            raise ObservabilityError(
                f"alert rule {self.name!r}: {self.kind} rules need a metric"
            )
        if bool(self.numerator) != bool(self.denominator):
            raise ObservabilityError(
                f"alert rule {self.name!r}: numerator and denominator "
                "must be set together"
            )

    # -- evaluation --------------------------------------------------------------

    def _groups(self, store: SeriesStore) -> tuple[str, ...]:
        if not self.group_by:
            return ("",)
        found = set()
        name = self.metric or self.denominator or "admissions_total"
        for key in store.keys():
            if key.name != name:
                continue
            value = key.label(self.group_by)
            if value:
                found.add(value)
        return tuple(sorted(found))

    def _group_where(self, group: str) -> dict[str, str]:
        return {self.group_by: group} if self.group_by and group else {}

    def evaluate(self, store: SeriesStore, now: float) -> dict[str, tuple[bool, float]]:
        """``{group: (breached, measured_value)}`` at *now*."""
        out: dict[str, tuple[bool, float]] = {}
        for group in self._groups(store):
            where = self._group_where(group)
            if self.kind == "threshold":
                value = store.last_value(self.metric, where)
                out[group] = (value >= self.threshold, value)
            elif self.kind == "burn_rate":
                fast = self._burn(store, group, now, self.fast_window_s)
                slow = self._burn(store, group, now, self.slow_window_s)
                breached = (
                    fast >= self.threshold
                    and slow >= self.threshold * self.slow_fraction
                )
                out[group] = (breached, max(fast, slow))
            else:  # anomaly
                out[group] = self._evaluate_anomaly(store, where)
        return out

    def _burn(
        self, store: SeriesStore, group: str, now: float, window_s: float
    ) -> float:
        if not self.numerator:
            return denial_burn(
                store, group, now=now, window_s=window_s, slo=self.slo
            )
        group_where = self._group_where(group)
        return _windowed_burn(
            store, self.numerator,
            {**dict(self.numerator_where), **group_where},
            self.denominator, group_where,
            now=now, window_s=window_s, slo=self.slo,
        )

    def _evaluate_anomaly(
        self, store: SeriesStore, where: Mapping[str, str]
    ) -> tuple[bool, float]:
        series = store.select(self.metric, where)
        values: list[tuple[float, float]] = []
        for s in series:
            values.extend(s.points())
        values.sort()
        tail = [v for _, v in values[-_ANOMALY_LOOKBACK:]]
        if len(tail) < self.min_samples:
            return (False, 0.0)
        history, latest = tail[:-1], tail[-1]
        mean, std, _ = ewm_stats(history, self.alpha)
        # A degenerate flat history gets a unit-scale floor so the first
        # genuinely different sample still registers as a finite z.
        floor = max(std, 0.05 * max(abs(mean), 1.0))
        z = (latest - mean) / floor
        return (z >= self.z_threshold, z)


@dataclass(frozen=True)
class AlertTransition:
    """One lifecycle edge, as written to the recording and emitted as
    an obs event."""

    rule: str
    group: str
    from_state: AlertState
    to_state: AlertState
    at_time: float
    value: float
    severity: AlertSeverity
    correlation_id: str

    def to_dict(self) -> dict[str, Any]:
        return {
            "rule": self.rule,
            "group": self.group,
            "from": self.from_state.value,
            "state": self.to_state.value,
            "at_time": self.at_time,
            "value": round(self.value, 6),
            "severity": self.severity.value,
            "correlation_id": self.correlation_id,
        }


@dataclass
class _MachineState:
    state: AlertState = AlertState.INACTIVE
    pending_since: float = 0.0
    correlation_id: str = ""
    value: float = 0.0


class AlertEngine:
    """Steps every rule's state machines against a store.

    Deterministic: incident ids are minted from a per-engine counter,
    transitions are produced in sorted ``(rule, group)`` order, and
    evaluation touches no clock — identical frames produce identical
    transitions, live or replayed.
    """

    def __init__(self, rules: tuple[AlertRule, ...] | list[AlertRule]):
        names = [r.name for r in rules]
        if len(set(names)) != len(names):
            raise ObservabilityError("alert rule names must be unique")
        self.rules = tuple(rules)
        self._machines: dict[tuple[str, str], _MachineState] = {}
        self._incidents = 0
        self.transitions: list[AlertTransition] = []

    # -- state accessors ---------------------------------------------------------

    def _machine(self, rule: str, group: str) -> _MachineState:
        key = (rule, group)
        machine = self._machines.get(key)
        if machine is None:
            machine = self._machines[key] = _MachineState()
        return machine

    def active(self) -> tuple[AlertTransition, ...]:
        """The currently-firing alerts as their FIRING transitions."""
        firing = {
            (m.rule, m.group): m for m in self.transitions
            if m.to_state == AlertState.FIRING
        }
        out = []
        for (rule, group), machine in sorted(self._machines.items()):
            if machine.state == AlertState.FIRING:
                out.append(firing[(rule, group)])
        return tuple(out)

    def firing_count(self, severity: AlertSeverity | None = None) -> int:
        count = 0
        by_name = {r.name: r for r in self.rules}
        for (rule, _), machine in self._machines.items():
            if machine.state != AlertState.FIRING:
                continue
            if severity is None or by_name[rule].severity == severity:
                count += 1
        return count

    # -- the lifecycle -----------------------------------------------------------

    def step(
        self, store: SeriesStore, now: float, *,
        event_log: "obs_events.EventLog | None" = None,
        recorder=None,
    ) -> tuple[AlertTransition, ...]:
        """Evaluate every rule at *now*; return the transitions taken."""
        taken: list[AlertTransition] = []
        for rule in self.rules:
            for group, (breached, value) in sorted(
                rule.evaluate(store, now).items()
            ):
                machine = self._machine(rule.name, group)
                machine.value = value
                if breached:
                    if machine.state == AlertState.INACTIVE:
                        machine.pending_since = now
                        # The incident starts when the breach is first
                        # seen: minting here keeps every ALERT event —
                        # including PENDING — correlated.
                        self._incidents += 1
                        machine.correlation_id = (
                            f"alert-{rule.name}-{self._incidents:04d}"
                        )
                        taken.append(self._transition(
                            rule, group, machine,
                            AlertState.PENDING, now, value,
                        ))
                        if rule.for_s <= 0:
                            taken.append(self._fire(
                                rule, group, machine, now, value
                            ))
                    elif machine.state == AlertState.PENDING:
                        if now - machine.pending_since >= rule.for_s:
                            taken.append(self._fire(
                                rule, group, machine, now, value
                            ))
                    # FIRING stays FIRING.
                else:
                    if machine.state == AlertState.PENDING:
                        taken.append(self._transition(
                            rule, group, machine,
                            AlertState.INACTIVE, now, value,
                        ))
                        machine.correlation_id = ""
                    elif machine.state == AlertState.FIRING:
                        taken.append(self._transition(
                            rule, group, machine,
                            AlertState.RESOLVED, now, value,
                        ))
                        machine.state = AlertState.INACTIVE
                        machine.correlation_id = ""
        self.transitions.extend(taken)
        self._emit(taken, event_log=event_log, recorder=recorder)
        return tuple(taken)

    def _fire(
        self, rule: AlertRule, group: str, machine: _MachineState,
        now: float, value: float,
    ) -> AlertTransition:
        return self._transition(
            rule, group, machine, AlertState.FIRING, now, value
        )

    def _transition(
        self, rule: AlertRule, group: str, machine: _MachineState,
        to_state: AlertState, now: float, value: float,
    ) -> AlertTransition:
        transition = AlertTransition(
            rule=rule.name, group=group,
            from_state=machine.state, to_state=to_state,
            at_time=now, value=value, severity=rule.severity,
            correlation_id=machine.correlation_id,
        )
        machine.state = to_state
        return transition

    def _emit(
        self, taken: list[AlertTransition], *,
        event_log: "obs_events.EventLog | None", recorder,
    ) -> None:
        if not taken:
            return
        if event_log is None:  # an empty EventLog is falsy (__len__)
            event_log = obs_events.get_event_log()
        for t in taken:
            if event_log is not None:
                event_log.emit(obs_events.DecisionRecord(
                    obs_events.RecordKind.ALERT, t.at_time, domain=t.group,
                    correlation_id=t.correlation_id,
                    reason=(
                        f"{t.rule}: {t.from_state.value} -> "
                        f"{t.to_state.value} (value {t.value:.3f})"
                    ),
                    attributes=(
                        ("rule", t.rule), ("severity", t.severity.value),
                        ("state", t.to_state.value),
                    ),
                ))
            if recorder is not None:
                recorder.record_alert(t.at_time, t.to_dict())


# ---------------------------------------------------------------------------
# Stock rule sets
# ---------------------------------------------------------------------------


def default_rules() -> tuple[AlertRule, ...]:
    """The fleet profile used by ``repro top`` and the attack harness:
    tuned so an honest steady-state run stays silent while a flood's
    backlog growth or denial burn fires within seconds."""
    return (
        AlertRule(
            name="denial-burn", kind="burn_rate",
            severity=AlertSeverity.CRITICAL,
            group_by="domain", threshold=1.8, slo=0.5,
            fast_window_s=10.0, slow_window_s=60.0,
            slow_fraction=0.5, for_s=2.0,
        ),
        AlertRule(
            name="backlog-critical", kind="threshold",
            metric="work_queue_backlog_s",
            severity=AlertSeverity.CRITICAL,
            group_by="domain", threshold=2.5, for_s=2.0,
        ),
        AlertRule(
            name="backlog-warning", kind="threshold",
            metric="work_queue_backlog_s",
            severity=AlertSeverity.WARNING,
            group_by="domain", threshold=1.0, for_s=1.0,
        ),
        AlertRule(
            name="breaker-open", kind="threshold",
            metric="breaker_state",
            severity=AlertSeverity.CRITICAL,
            group_by="link", threshold=2.0, for_s=0.0,
        ),
        AlertRule(
            name="utilization-anomaly", kind="anomaly",
            metric="domain_utilization",
            severity=AlertSeverity.WARNING,
            group_by="domain", z_threshold=6.0, alpha=0.3,
            min_samples=10, for_s=2.0,
        ),
    )


def chaos_rules() -> tuple[AlertRule, ...]:
    """The chaos-campaign profile (one frame per trial, trial index as
    time).  Fault injection legitimately denies and trips breakers, so
    only *sustained fleet-wide* failure should page: the CI gate runs an
    honest campaign through these rules and requires zero CRITICAL."""
    return (
        # End-to-end denial burn over the whole campaign.  A healthy
        # single-fault matrix (recovery working) stays under ~0.4 denied
        # in any 10-trial window; sustained >= 0.75 fast and >= 0.6 slow
        # means recovery itself has broken.
        AlertRule(
            name="campaign-denial-burn", kind="burn_rate",
            severity=AlertSeverity.CRITICAL,
            numerator="reservations_total",
            numerator_where=(("result", "denied"),),
            denominator="reservations_total",
            threshold=1.5, slo=0.5, slow_fraction=0.8,
            fast_window_s=10.0, slow_window_s=30.0, for_s=2.0,
        ),
        AlertRule(
            name="campaign-unwind-failures", kind="anomaly",
            metric="unwind_failures_total",
            severity=AlertSeverity.WARNING,
            z_threshold=8.0, alpha=0.2, min_samples=10, for_s=0.0,
        ),
    )
