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

import logging
import random
from dataclasses import dataclass, field
from typing import Sequence

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
from repro.obs.audit import DecisionLedger, reconcile_brokers
from repro.obs.slo import SLO, default_slos
from repro.obs.telemetry import FlightRecorder, chaos_rules
from repro.workloads.campaign import Campaign, CampaignReport

__all__ = ["TrialResult", "ChaosReport", "run_chaos"]

logger = logging.getLogger(__name__)

#: Far-future instant for the post-trial soft-state sweep: any lease
#: still pending at trial end has certainly lapsed by then.
_SWEEP_AT = 1e9

#: Every trial: one 10 Mb/s reservation with a 30 s signalling deadline
#: over a fresh A-B-C-D chain with 60 s soft-state leases; repository
#: trials publish the certificates to one repository.
DOMAINS = ("A", "B", "C", "D")
RATE_MBPS = 10.0
DEADLINE_S = 30.0
SOFT_STATE_TTL_S = 60.0
REPOSITORY_NAME = "ldap.grid"


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
    #: Ledger-vs-broker reconciliation violations for this trial.
    audit_violations: tuple[str, ...]


@dataclass
class ChaosReport(CampaignReport):
    """Aggregate of one chaos run."""

    seed: int
    schedule_digest: str
    trials: list[TrialResult] = field(default_factory=list)

    def _per_trial(self, kind: str) -> list[str]:
        return [
            f"trial {t.index} [{t.spec.describe()}]: {v}"
            for t in self.trials for v in getattr(t, kind)
        ]

    @property
    def violations(self) -> list[str]:
        return self._per_trial("violations")

    @property
    def audit_violations(self) -> list[str]:
        """Per-trial broker reconciliation + campaign ledger invariants."""
        return self._per_trial("audit_violations") + super().audit_violations

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
        _list_some(lines, self.violations)
        if self.ledger is not None:
            audit = self.audit_violations
            lines.append(
                f"  audit           : {len(self.ledger)} ledger records, "
                f"{len(audit)} violation(s)"
            )
            _list_some(lines, audit)
        if self.slo_report is not None:
            lines.append("  SLO verdicts:")
            lines.extend(
                f"    {line}" for line in self.slo_report.render().splitlines()
            )
        return "\n".join(lines)


def _list_some(lines: list[str], items: list[str], limit: int = 20) -> None:
    lines.extend(f"    {v}" for v in items[:limit])
    if len(items) > limit:
        lines.append(f"    ... and {len(items) - limit} more")


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


def _matrix() -> list[FaultSpec]:
    """The single-fault matrix over :data:`DOMAINS`: every channel,
    broker, policy server and the repository, broken every valid way."""
    user_link = "|".join(sorted((DOMAINS[0], "Alice")))
    inter_links = [
        "|".join(sorted((a, b))) for a, b in zip(DOMAINS, DOMAINS[1:])
    ]
    matrix = single_fault_matrix(
        channel_links=[user_link, *inter_links],
        broker_domains=DOMAINS,
        policy_domains=DOMAINS,
        repository_names=[REPOSITORY_NAME],
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
    return matrix


def _run_trial(
    index: int, spec: FaultSpec, *, seed: int, ledger: DecisionLedger
) -> TrialResult:
    testbed = build_linear_testbed(
        list(DOMAINS), soft_state_ttl_s=SOFT_STATE_TTL_S
    )
    if spec.target_kind is TargetKind.REPOSITORY:
        # Repository trials run the protocol in §6.4-alternative-2 mode so
        # the repository is actually on the critical path.
        repository = CertificateRepository(name=REPOSITORY_NAME)
        for broker in testbed.brokers.values():
            repository.publish(broker.certificate)
        testbed.hop_by_hop.repository = repository
    user = testbed.add_user(DOMAINS[0], "Alice")
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
            source=DOMAINS[0],
            destination=DOMAINS[-1],
            bandwidth_mbps=RATE_MBPS,
            deadline_s=DEADLINE_S,
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
    audit_violations = tuple(
        v.render() for v in reconcile_brokers(ledger, testbed.brokers)
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
    slos: Sequence[SLO] | None = None,
    recorder: FlightRecorder | None = None,
) -> ChaosReport:
    """Run *trials* single-fault chaos trials; the schedule (and every
    backoff-jitter draw downstream of it) is determined by *seed*.

    The campaign (:class:`~repro.workloads.campaign.Campaign`) keeps a
    metrics registry, event log and decision ledger: every trial is
    reconciled against its brokers while they still exist, the whole
    ledger is reconciled at the end, and the report carries SLO
    verdicts over the campaign (*slos*, or
    :func:`~repro.obs.slo.default_slos`) — so a run answers "did
    recovery keep us inside the objectives?" as well as "did the
    invariants hold?".

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
    matrix = _matrix()
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
    campaign = Campaign(
        report, rules=chaos_rules, recorder=recorder,
        meta=dict(campaign="chaos", seed=seed, trials=trials,
                  schedule_digest=report.schedule_digest),
    )
    with campaign.stores():
        for index, spec in enumerate(schedule):
            report.trials.append(_run_trial(
                index, spec, seed=seed, ledger=campaign.ledger
            ))
            campaign.frame(float(index + 1), stamp=True)
        campaign.close(default_slos() if slos is None else slos)
    return report
