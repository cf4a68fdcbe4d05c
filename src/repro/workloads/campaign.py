"""The skeleton every seeded campaign shares.

``repro chaos`` (:mod:`repro.faults.chaos`) and ``repro attack
--persona`` (:mod:`repro.workloads.survivability`) differ only in what
they drive: single-fault trials, or honest traffic beside an attack
persona.  The rest is here, once: the stores (one registry, event log
and ledger in one :func:`~repro.obs.context.fresh_context`), the
flight-recorder frame (``sample``, alert ``step``, the events since the
last frame), the close (SLO verdicts, the ledger reconciled against the
brokers) and the report part both reports extend.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any, Callable, ContextManager, Mapping, Sequence

from repro.obs.audit import DecisionLedger, ReconciliationReport, reconcile
from repro.obs.context import Context, fresh_context
from repro.obs.events import EventLog
from repro.obs.metrics import MetricsRegistry
from repro.obs.slo import SLO, SLOReport, evaluate_slos
from repro.obs.telemetry import (
    AlertEngine,
    AlertRule,
    AlertSeverity,
    AlertState,
    AlertTransition,
    FlightRecorder,
)

__all__ = ["Campaign", "CampaignReport"]


@dataclass(kw_only=True)
class CampaignReport:
    """What every campaign reports beside its own counts."""

    #: SLO verdicts over the campaign's metrics and events.
    slo_report: SLOReport | None = None
    #: The campaign's decision ledger, and its reconciliation.
    ledger: DecisionLedger | None = None
    audit_report: ReconciliationReport | None = None
    #: Every alert lifecycle edge of a flight-recorded campaign.
    alert_transitions: tuple[AlertTransition, ...] = ()

    def firings(
        self, severity: AlertSeverity | None = None
    ) -> list[AlertTransition]:
        """The FIRING edges among the alert transitions (of *severity*
        only, when given)."""
        return [
            t for t in self.alert_transitions
            if t.to_state == AlertState.FIRING
            and (severity is None or t.severity == severity)
        ]

    @property
    def audit_violations(self) -> list[str]:
        if self.audit_report is None:
            return []
        return [v.render() for v in self.audit_report.violations]


class Campaign:
    """Run inside ``with campaign.stores():``, call :meth:`frame` on each
    telemetry tick and :meth:`close` once, while the brokers exist."""

    def __init__(
        self,
        report: CampaignReport,
        *,
        rules: Callable[[], tuple[AlertRule, ...]],
        recorder: FlightRecorder | None,
        meta: Mapping[str, Any],
    ):
        self.report = report
        self.registry = MetricsRegistry()
        self.event_log = EventLog()
        self.ledger = DecisionLedger()
        self.recorder = recorder
        self._engine = AlertEngine(rules()) if recorder is not None else None
        self._recorded = 0
        if recorder is not None:
            recorder.record_meta(**meta)

    def stores(self) -> ContextManager[Context]:
        return fresh_context(
            registry=self.registry, event_log=self.event_log,
            ledger=self.ledger,
        )

    def frame(self, t: float, *, stamp: bool = False) -> None:
        """One telemetry frame at *t*: sample, step the alert engine, and
        record the events since the last frame (re-timed to *t* when
        *stamp*: a campaign whose clock is not the frame axis)."""
        if self.recorder is None or self._engine is None:
            return
        self.recorder.sample(t, registry=self.registry)
        self._engine.step(
            self.recorder.store, t,
            event_log=self.event_log, recorder=self.recorder,
        )
        self._record_events(t if stamp else None)

    def _record_events(self, at_time: float | None) -> None:
        if self.recorder is None:
            return
        # ``emitted`` survives eviction, so the fresh events are the
        # log's newest ``emitted - recorded``.
        events = tuple(self.event_log)
        fresh = self.event_log.emitted - self._recorded
        self._recorded += fresh
        for event in events[max(len(events) - fresh, 0):]:
            if at_time is not None:
                event = dataclasses.replace(event, at_time=at_time)
            self.recorder.record_event(event)

    def close(
        self,
        slos: Sequence[SLO],
        *,
        event_log: EventLog | None = None,
        brokers: Mapping[str, Any] | None = None,
    ) -> None:
        """Fill the report part: the alert transitions, the SLO verdicts
        over *event_log* (default: the campaign's) and the ledger
        reconciled against *brokers* (``None``: the ledger alone)."""
        self._record_events(None)
        if self._engine is not None:
            self.report.alert_transitions = tuple(self._engine.transitions)
        self.report.slo_report = evaluate_slos(
            tuple(slos), registry=self.registry,
            event_log=self.event_log if event_log is None else event_log,
        )
        self.report.ledger = self.ledger
        self.report.audit_report = reconcile(self.ledger, brokers=brokers)
