"""The seeded chaos harness behind ``repro chaos``.

Each trial builds a fresh four-domain testbed, arms exactly one fault
from the single-fault matrix, drives one end-to-end reservation through
the hop-by-hop protocol, lets recovery do whatever it does (retry,
deny, unwind, degrade), runs the soft-state sweep, and then checks the
*invariants that must survive any single fault*:

* **no capacity leak** — every admission-controller schedule is empty;
* **no stuck reservation** — no broker's table still holds a row (it
  holds only PENDING / GRANTED / ACTIVE ones, and each row carries its
  own bookings);
* **no leftover instrumentation** — every channel dropped its injector.

The schedule is a pure function of the seed: the same ``--seed`` yields
the identical fault sequence, and the report carries the plan digest as
the reproducibility receipt.
"""

from __future__ import annotations

import dataclasses
import logging
import random
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Sequence

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.obs.telemetry import AlertTransition, FlightRecorder

from repro.core.testbed import Testbed, build_linear_testbed
from repro.crypto.repository import CertificateRepository
from repro.errors import ReproError
from repro.faults.injector import FaultInjector
from repro.faults.plan import (
    FaultPlan,
    FaultSpec,
    TargetKind,
    single_fault_matrix,
)
from repro.obs import audit as obs_audit
from repro.obs.audit import DecisionLedger, ReconciliationReport
from repro.obs.context import fresh_context
from repro.obs.events import EventLog
from repro.obs.metrics import MetricsRegistry
from repro.obs.slo import SLO, SLOReport, default_slos, evaluate_slos

__all__ = ["TrialResult", "ChaosReport", "run_chaos"]

logger = logging.getLogger(__name__)

#: Far-future instant for the post-trial soft-state sweep: any lease
#: still pending at trial end has certainly lapsed by then.
_SWEEP_AT = 1e9


@dataclass(frozen=True)
class TrialResult:
    """One chaos trial: the fault armed and what the fabric did."""

    index: int
    spec: FaultSpec
    granted: bool
    denial_reason: str
    #: Faults the injector actually delivered (0 when the armed window
    #: was never reached — the invariants must hold regardless).
    injected: int
    retries: int
    #: Invariant violations found after recovery (empty = healthy).
    violations: tuple[str, ...]
    #: Ledger-vs-broker reconciliation violations for this trial, when
    #: the run kept a decision ledger (``run_chaos(audit=True)``).
    audit_violations: tuple[str, ...] = ()


@dataclass
class ChaosReport:
    """Aggregate of one chaos run."""

    seed: int
    schedule_digest: str
    trials: list[TrialResult] = field(default_factory=list)
    #: SLO verdicts over the whole campaign's metrics + events (the
    #: harness runs every trial under a scoped registry and event log).
    slo_report: SLOReport | None = None
    #: The campaign's decision ledger (``audit=True`` runs only).
    ledger: DecisionLedger | None = None
    #: Ledger-internal reconciliation over the whole campaign.
    audit_report: ReconciliationReport | None = None
    #: Every alert lifecycle edge of a flight-recorded campaign.
    alert_transitions: tuple["AlertTransition", ...] = ()

    @property
    def violations(self) -> list[str]:
        out = []
        for trial in self.trials:
            out.extend(
                f"trial {trial.index} [{trial.spec.describe()}]: {v}"
                for v in trial.violations
            )
        return out

    @property
    def audit_violations(self) -> list[str]:
        """Per-trial broker reconciliation + campaign ledger invariants."""
        out = []
        for trial in self.trials:
            out.extend(
                f"trial {trial.index} [{trial.spec.describe()}]: {v}"
                for v in trial.audit_violations
            )
        if self.audit_report is not None:
            out.extend(v.render() for v in self.audit_report.violations)
        return out

    @property
    def granted_count(self) -> int:
        return sum(1 for t in self.trials if t.granted)

    @property
    def injected_count(self) -> int:
        return sum(t.injected for t in self.trials)

    @property
    def retry_count(self) -> int:
        return sum(t.retries for t in self.trials)

    def summary(self) -> str:
        lines = [
            f"chaos: seed={self.seed} trials={len(self.trials)} "
            f"schedule={self.schedule_digest}",
            f"  faults injected : {self.injected_count}",
            f"  retries         : {self.retry_count}",
            f"  granted         : {self.granted_count}",
            f"  denied          : {len(self.trials) - self.granted_count}",
            f"  violations      : {len(self.violations)}",
        ]
        lines.extend(f"    {v}" for v in self.violations[:20])
        if len(self.violations) > 20:
            lines.append(f"    ... and {len(self.violations) - 20} more")
        if self.ledger is not None:
            audit = self.audit_violations
            lines.append(
                f"  audit           : {len(self.ledger)} ledger records, "
                f"{len(audit)} violation(s)"
            )
            lines.extend(f"    {v}" for v in audit[:20])
            if len(audit) > 20:
                lines.append(f"    ... and {len(audit) - 20} more")
        if self.slo_report is not None:
            lines.append("  SLO verdicts:")
            lines.extend(
                f"    {line}" for line in self.slo_report.render().splitlines()
            )
        return "\n".join(lines)


def _check_invariants(testbed: Testbed) -> list[str]:
    """The safety conditions every trial must restore (see module doc)."""
    violations: list[str] = []
    for domain, broker in testbed.brokers.items():
        for name in broker.admission.resources():
            schedule = broker.admission.schedule(name)
            if schedule.bookings:
                violations.append(
                    f"capacity leak: {domain}/{name} still holds "
                    f"{len(schedule.bookings)} booking(s)"
                )
        stuck = broker.reservations.all()
        if stuck:
            violations.append(
                f"stuck reservation: {domain} left "
                + ", ".join(f"{r.handle}={r.state.value}" for r in stuck)
            )
    for channel in testbed.channels.all():
        if channel.injector is not None:
            violations.append(
                f"unreleased channel: {channel.link} still holds the injector"
            )
    return violations


def _run_trial(
    index: int,
    spec: FaultSpec,
    *,
    seed: int,
    domains: Sequence[str],
    rate_mbps: float,
    deadline_s: float,
    soft_state_ttl_s: float,
    repository_name: str,
) -> TrialResult:
    testbed = build_linear_testbed(
        list(domains), soft_state_ttl_s=soft_state_ttl_s
    )
    if spec.target_kind is TargetKind.REPOSITORY:
        # Repository trials run the protocol in §6.4-alternative-2 mode so
        # the repository is actually on the critical path.
        repository = CertificateRepository(name=repository_name)
        for broker in testbed.brokers.values():
            repository.publish(broker.certificate)
        testbed.hop_by_hop.repository = repository
    user = testbed.add_user(domains[0], "Alice")
    if testbed.hop_by_hop.repository is not None:
        testbed.hop_by_hop.repository.publish(user.certificate)

    injector = FaultInjector(FaultPlan((spec,), seed=seed))
    testbed.attach_injector(injector)
    granted = False
    denial_reason = ""
    retries = 0
    try:
        outcome = testbed.reserve(
            user,
            source=domains[0],
            destination=domains[-1],
            bandwidth_mbps=rate_mbps,
            deadline_s=deadline_s,
        )
        granted = outcome.granted
        denial_reason = outcome.denial_reason
        retries = outcome.retries
    except ReproError as exc:
        # An abort that escapes the protocol still counts as a denial;
        # the invariants below are what actually matter.
        denial_reason = f"aborted: {exc}"
        outcome = None
    if outcome is not None and outcome.granted:
        # Tear the reservation down *while the fault may still be armed*:
        # a broker that stays crashed here leaves its reservation to the
        # soft-state sweep, which the invariants then verify.
        try:
            testbed.hop_by_hop.cancel(outcome)
        except ReproError as exc:
            logger.info("trial %d: cancel failed (%s); sweep reclaims",
                        index, exc)
    testbed.detach_injector()
    testbed.sweep_soft_state(_SWEEP_AT)
    violations = _check_invariants(testbed)
    # Ledger-vs-broker reconciliation must run per trial, while the
    # trial's testbed (reservation tables, bookings) still exists.
    audit_violations: tuple[str, ...] = ()
    ledger = obs_audit.get_ledger()
    if ledger is not None:
        audit_violations = tuple(
            v.render()
            for v in obs_audit.reconcile_brokers(ledger, testbed.brokers)
        )
    return TrialResult(
        index=index,
        spec=spec,
        granted=granted,
        denial_reason=denial_reason,
        injected=len(injector.triggered),
        retries=retries,
        violations=tuple(violations),
        audit_violations=audit_violations,
    )


def run_chaos(
    *,
    seed: int = 7,
    trials: int = 200,
    domains: Sequence[str] = ("A", "B", "C", "D"),
    rate_mbps: float = 10.0,
    deadline_s: float = 30.0,
    soft_state_ttl_s: float = 60.0,
    repository_name: str = "ldap.grid",
    slos: Sequence[SLO] | None = None,
    audit: bool = False,
    recorder: "FlightRecorder | None" = None,
) -> ChaosReport:
    """Run *trials* single-fault chaos trials; the schedule (and every
    backoff-jitter draw downstream of it) is determined by *seed*.

    The whole campaign runs under a scoped metrics registry and event
    log, and the report carries SLO verdicts over them (*slos*, or
    :func:`~repro.obs.slo.default_slos`) — so a run answers "did
    recovery keep us inside the objectives?" as well as "did the
    invariants hold?".

    With ``audit=True`` the campaign also keeps a decision-provenance
    ledger: every trial is reconciled against its brokers while they
    still exist, the whole ledger is reconciled at the end, and the
    report carries both the ledger and the
    :class:`~repro.obs.audit.ReconciliationReport`.

    With a *recorder* the campaign is also flight-recorded: each trial's
    per-domain testbed clock restarts at zero, so the recorder samples
    the campaign registry once per trial with the **trial index** as the
    time axis, an alert engine on the tuned
    :func:`~repro.obs.telemetry.alerts.chaos_rules` profile steps after
    each frame (the CI telemetry job gates zero CRITICAL alerts on the
    honest campaign this produces; the report carries the transitions),
    and the trial's obs events follow, stamped with that frame time — so
    the recording carries what the SLOs are judged on and ``repro slo
    --record`` reads back this run's verdicts.
    """
    user_link = "|".join(sorted((domains[0], "Alice")))
    inter_links = [
        "|".join(sorted((a, b))) for a, b in zip(domains, domains[1:])
    ]
    matrix = single_fault_matrix(
        channel_links=[user_link, *inter_links],
        broker_domains=domains,
        policy_domains=domains,
        repository_names=[repository_name],
    )
    # Bounded windows are always survivable by bounded retries; the
    # *persistent* variants force retry exhaustion, dead-hop denials, and
    # partial-path unwinds — exactly where capacity leaks would hide.
    matrix.extend(
        FaultSpec(
            s.target_kind, s.target, s.kind,
            start_op=s.start_op, ops=None, delay_s=s.delay_s,
        )
        for s in list(matrix)
        if s.ops == 1
    )
    rng = random.Random(seed)
    schedule = [matrix[rng.randrange(len(matrix))] for _ in range(trials)]
    report = ChaosReport(
        seed=seed,
        schedule_digest=FaultPlan(tuple(schedule), seed=seed).digest(),
    )
    logger.info(
        "chaos: %d trials over %d matrix cases (digest %s)",
        trials, len(matrix), report.schedule_digest,
    )
    registry, event_log = MetricsRegistry(), EventLog()
    ledger = DecisionLedger() if audit else None
    engine = None
    if recorder is not None:
        from repro.obs.telemetry import AlertEngine, chaos_rules
        engine = AlertEngine(chaos_rules())
    with fresh_context(registry=registry, event_log=event_log, ledger=ledger):
        recorded_events = 0
        if recorder is not None:
            recorder.record_meta(
                campaign="chaos", seed=seed, trials=trials,
                schedule_digest=report.schedule_digest,
            )
        for index, spec in enumerate(schedule):
            report.trials.append(
                _run_trial(
                    index, spec,
                    seed=seed,
                    domains=domains,
                    rate_mbps=rate_mbps,
                    deadline_s=deadline_s,
                    soft_state_ttl_s=soft_state_ttl_s,
                    repository_name=repository_name,
                )
            )
            if recorder is not None and engine is not None:
                frame_t = float(index + 1)
                recorder.sample(frame_t, registry=registry)
                engine.step(
                    recorder.store, frame_t,
                    event_log=event_log, recorder=recorder,
                )
                # ``emitted`` survives eviction, so the trial's events
                # are the log's newest ``emitted - recorded_events``.
                events = tuple(event_log)
                fresh = event_log.emitted - recorded_events
                recorded_events += fresh
                for event in events[max(len(events) - fresh, 0):]:
                    recorder.record_event(
                        dataclasses.replace(event, at_time=frame_t)
                    )
    if engine is not None:
        report.alert_transitions = tuple(engine.transitions)
    if ledger is not None:
        report.ledger = ledger
        report.audit_report = obs_audit.reconcile(ledger)
    report.slo_report = evaluate_slos(
        tuple(slos) if slos is not None else default_slos(),
        registry=registry,
        event_log=event_log,
    )
    return report
