"""Survivability harness: honest traffic under attack, defenses off vs on.

The question this module answers is the one the admission-plane
defenses exist for: **when an adversary runs one of the attack personas
at a given attack fraction, how much of the honest workload survives?**
One run interleaves, on the shared simulation clock:

* an honest Poisson workload (several users, small short reservations
  from the source to the destination domain), and
* one :mod:`~repro.workloads.attackers` persona aimed at a victim
  domain on the honest path, firing at
  ``attack_fraction / (1 - attack_fraction)`` times the honest rate.

The victim's *processing* is modelled as a fluid work queue: every
attack signal charges the work units the victim actually spent on it
(:class:`~repro.core.hopbyhop.IngressReport` work accounting — a full
signature walk with defenses off, a dict lookup when the gate rejects),
scaled by :data:`WORK_UNIT_S` seconds per unit, and the queue drains in
real (modelled) time.  An honest request arriving to a backlog longer
than its signalling deadline times out — which is exactly how
queue-drain attacks kill honest traffic without ever being *granted*
anything.

The report carries the three survivability signals the SLO gate
evaluates — honest admission rate, honest p99 signalling latency, and
breaker-open rate — plus the persona's own counters (including the
replay-guard proof: with defenses on, 100% of replayed envelopes must
be rejected *before* signature verification).  ``repro attack
--persona <p>`` prints the off/on pair;
``benchmarks/bench_attack_survivability.py`` asserts the claimed
off/on shape.

Everything is deterministic under ``spec.seed`` (REP102/REP108): the
testbed, the honest arrivals, and the persona each derive an
independent ``random.Random`` from it via crc32.
"""

from __future__ import annotations

import random
import zlib
from dataclasses import dataclass, field

from repro.bb.defense import DefensePolicy
from repro.core.testbed import build_linear_testbed
from repro.errors import SimulationError
from repro.obs.events import DecisionRecord, EventLog, ReasonCode, RecordKind
from repro.obs.slo import SLO
from repro.obs.telemetry import (
    AlertSeverity,
    FlightRecorder,
    SeriesKey,
    default_rules,
    testbed_probes,
)
from repro.workloads.attackers import AttackPersona, PERSONAS, make_persona
from repro.workloads.campaign import Campaign, CampaignReport

__all__ = [
    "HONEST_SLOS",
    "SurvivabilitySpec",
    "SurvivabilityReport",
    "harness_defense_policy",
    "run_survivability",
    "run_survivability_pair",
]

#: Histogram the harness observes honest end-to-end latency into
#: (queueing wait at the victim + protocol signalling latency).
HONEST_LATENCY_METRIC = "honest_signalling_latency_seconds"

#: Modelled seconds between flight-recorder frames of a recorded run.
SAMPLE_INTERVAL_S = 1.0

#: The honest path and the victim on it (downstream of the source).
DOMAINS = ("A", "B", "C")
VICTIM = "B"
#: Honest Poisson arrival intensity (requests per modelled second),
#: spread over this many users, each asking for one of these rates for
#: an exponential holding time of this mean.
HONEST_RATE_PER_S = 0.4
HONEST_USERS = 8
HONEST_RATE_CHOICES_MBPS = (2.0, 3.0)
HONEST_MEAN_DURATION_S = 10.0
#: Honest requests arriving to a victim backlog beyond this time out
#: (and count as denied).
HONEST_DEADLINE_S = 2.5
#: Modelled seconds one unit of victim work (= one full envelope
#: verification) takes; scales attack work into queueing delay.
WORK_UNIT_S = 0.25


@dataclass(frozen=True)
class SurvivabilitySpec:
    """One mixed honest+attack scenario."""

    persona: str
    seed: int = 2001
    horizon_s: float = 120.0

    def __post_init__(self) -> None:
        if self.persona not in PERSONAS:
            raise SimulationError(
                f"unknown persona {self.persona!r} "
                f"(expected one of {', '.join(sorted(PERSONAS))})"
            )
        if not self.horizon_s > 0:
            raise SimulationError(
                f"horizon must be > 0 s (got {self.horizon_s})"
            )

    @property
    def fraction(self) -> float:
        """Attack signals as a fraction of all signals: the persona's
        :attr:`~repro.workloads.attackers.AttackPersona.
        default_attack_fraction` (each persona needs a different
        intensity to express its harm)."""
        return PERSONAS[self.persona].default_attack_fraction

    @property
    def attack_rate_per_s(self) -> float:
        f = self.fraction
        return HONEST_RATE_PER_S * f / (1.0 - f)


@dataclass
class SurvivabilityReport(CampaignReport):
    """What honest traffic retained under one attack run.

    Its ledger is reconciled against the run's brokers (tables and
    bookings) while the testbed still exists.
    """

    persona: str
    seed: int
    attack_fraction: float
    defenses_on: bool
    honest_offered: int = 0
    honest_admitted: int = 0
    honest_timed_out: int = 0
    honest_denied: int = 0
    honest_p99_latency_s: float = 0.0
    breaker_opens: int = 0
    max_backlog_s: float = 0.0
    attacker: dict[str, int] = field(default_factory=dict)
    defense_rejections: dict[str, int] = field(default_factory=dict)
    #: Modelled time of the first attack signal (None: attack never
    #: started inside the horizon).
    attack_onset_s: float | None = None

    @property
    def honest_admission_rate(self) -> float:
        return (
            self.honest_admitted / self.honest_offered
            if self.honest_offered else 0.0
        )

    @property
    def breaker_open_rate(self) -> float:
        return (
            self.breaker_opens / self.honest_offered
            if self.honest_offered else 0.0
        )

    @property
    def first_critical_alert_s(self) -> float | None:
        """When the first CRITICAL alert fired (None: never, or the run
        was not flight-recorded)."""
        critical = self.firings(AlertSeverity.CRITICAL)
        return critical[0].at_time if critical else None

    @property
    def time_to_detect_s(self) -> float | None:
        """The first CRITICAL firing relative to the attack onset — the
        telemetry plane's headline number."""
        first = self.first_critical_alert_s
        if first is None or self.attack_onset_s is None:
            return None
        return first - self.attack_onset_s

    def to_dict(self) -> dict[str, object]:
        slos: dict[str, object] = {}
        if self.slo_report is not None:
            slos = {
                r.slo.name: {
                    "actual": round(r.actual, 6),
                    "threshold": r.slo.threshold,
                    "ok": r.ok,
                    "burn_rate": round(r.burn_rate, 4),
                }
                for r in self.slo_report.results
            }
        return {
            "persona": self.persona,
            "seed": self.seed,
            "attack_fraction": round(self.attack_fraction, 4),
            "defenses_on": self.defenses_on,
            "honest_offered": self.honest_offered,
            "honest_admitted": self.honest_admitted,
            "honest_timed_out": self.honest_timed_out,
            "honest_denied": self.honest_denied,
            "honest_admission_rate": round(self.honest_admission_rate, 4),
            "honest_p99_latency_s": round(self.honest_p99_latency_s, 4),
            "breaker_opens": self.breaker_opens,
            "max_backlog_s": round(self.max_backlog_s, 4),
            "attacker": dict(self.attacker),
            "defense_rejections": dict(self.defense_rejections),
            "slos": slos,
            "attack_onset_s": self.attack_onset_s,
            "first_critical_alert_s": self.first_critical_alert_s,
            "time_to_detect_s": self.time_to_detect_s,
            "alert_transitions": len(self.alert_transitions),
        }


def harness_defense_policy() -> DefensePolicy:
    """The defense knobs the survivability harness arms.

    Tighter than the :class:`DefensePolicy` defaults: user-class peers
    get a small bucket (one identity cannot spray), domain-class peers
    a loose one (the honest aggregate through a contracted neighbour
    must never throttle), and the per-user quota clamps flooding well
    below the interdomain capacity while staying above any honest
    user's worst-case concurrency.
    """
    return DefensePolicy(
        peer_burst=4.0,
        peer_rate_per_s=0.5,
        domain_peer_burst=16.0,
        domain_peer_rate_per_s=4.0,
        per_user_quota=3,
        per_ingress_quota=64,
        replay_window_s=300.0,
        replay_capacity=8192,
        pending_watermark=32,
        shed_window_s=1.0,
    )


#: The survivability objectives for *honest* traffic.  Evaluated against
#: honest-only telemetry (the harness keeps a separate event log for
#: honest admit/deny), so attack denials — which defenses-on produces by
#: the hundreds, correctly — never burn the honest error budget.
HONEST_SLOS = (
    SLO(
        name="honest-latency-p99",
        kind="latency_quantile",
        metric=HONEST_LATENCY_METRIC,
        quantile=0.99,
        threshold=HONEST_DEADLINE_S,
    ),
    SLO(name="honest-denial-rate", kind="denial_rate", threshold=0.10),
    SLO(
        name="honest-breaker-open-rate",
        kind="breaker_open_rate",
        threshold=0.25,
    ),
)


class _WorkQueue:
    """Fluid model of the victim's signalling work backlog."""

    def __init__(self) -> None:
        self.backlog_s = 0.0
        self.max_backlog_s = 0.0
        self._at = 0.0

    def drain(self, now: float) -> float:
        if now > self._at:
            self.backlog_s = max(0.0, self.backlog_s - (now - self._at))
            self._at = now
        return self.backlog_s

    def charge(self, now: float, seconds: float) -> None:
        self.drain(now)
        self.backlog_s += seconds
        self.max_backlog_s = max(self.max_backlog_s, self.backlog_s)


def _percentile(values: list[float], q: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    index = min(len(ordered) - 1, max(0, int(round(q * (len(ordered) - 1)))))
    return ordered[index]


def run_survivability(
    spec: SurvivabilitySpec,
    *,
    defenses_on: bool,
    recorder: FlightRecorder | None = None,
) -> SurvivabilityReport:
    """Run one mixed honest+attack scenario and measure what survived.

    With defenses on, the brokers arm :func:`harness_defense_policy`.
    The honest objectives are :data:`HONEST_SLOS`.

    With a *recorder*, the run becomes a monitored incident: the flight
    recorder samples registry + fabric probes every
    :data:`SAMPLE_INTERVAL_S` of modelled time, an alert engine on the
    fleet profile steps after each frame, and the report's alert
    transitions give the first CRITICAL firing and its distance from
    the attack onset: **time-to-detect**.
    """
    report = SurvivabilityReport(
        persona=spec.persona,
        seed=spec.seed,
        attack_fraction=spec.fraction,
        defenses_on=defenses_on,
    )
    honest_rng = random.Random(
        zlib.crc32(f"honest-{spec.seed}".encode())
    )
    attack_rng = random.Random(
        zlib.crc32(f"attack-{spec.persona}-{spec.seed}".encode())
    )
    #: Honest-only lifecycle events, so the SLO denominator is honest
    #: decisions and not the attack storm.
    honest_log = EventLog()
    queue = _WorkQueue()
    honest_latencies: list[float] = []

    campaign = Campaign(
        report, rules=default_rules, recorder=recorder,
        meta=dict(persona=spec.persona, seed=spec.seed,
                  defenses_on=defenses_on, victim=VICTIM,
                  horizon_s=spec.horizon_s),
    )
    registry = campaign.registry
    with campaign.stores():
        testbed = build_linear_testbed(list(DOMAINS))
        if defenses_on:
            testbed.arm_defenses(harness_defense_policy())
        source, destination = DOMAINS[0], DOMAINS[-1]
        users = [
            testbed.add_user(source, f"honest-{i}")
            for i in range(HONEST_USERS)
        ]
        persona: AttackPersona = make_persona(
            spec.persona, testbed,
            victim=VICTIM, source=source, rng=attack_rng,
        )
        persona.prepare(testbed.sim.now)
        sim = testbed.sim

        def honest_arrival() -> None:
            now = sim.now
            if now < spec.horizon_s:
                gap = honest_rng.expovariate(HONEST_RATE_PER_S)
                if now + gap < spec.horizon_s:
                    sim.schedule(gap, honest_arrival)
                wait = queue.drain(now)
                report.honest_offered += 1
                user = honest_rng.choice(users)
                rate = honest_rng.choice(HONEST_RATE_CHOICES_MBPS)
                duration = max(
                    1.0,
                    honest_rng.expovariate(1.0 / HONEST_MEAN_DURATION_S),
                )
                if wait > HONEST_DEADLINE_S:
                    # The victim's work queue is longer than the
                    # signalling deadline: the request dies waiting.
                    report.honest_timed_out += 1
                    latency = wait
                    decision = DecisionRecord(
                        RecordKind.DENY, now, domain=VICTIM,
                        user=str(user.dn), reason="signalling timed out "
                        "behind the victim's work queue",
                        reason_code=ReasonCode.DEADLINE_EXCEEDED.value,
                    )
                else:
                    outcome = testbed.reserve(
                        user, source=source, destination=destination,
                        bandwidth_mbps=rate, start=now, duration=duration,
                    )
                    latency = wait + outcome.latency_s
                    if outcome.granted and latency <= HONEST_DEADLINE_S:
                        report.honest_admitted += 1
                        decision = DecisionRecord(
                            RecordKind.ADMIT, now, domain=destination,
                            user=str(user.dn),
                        )
                        testbed.schedule_activation(outcome)
                    else:
                        report.honest_denied += 1
                        decision = DecisionRecord(
                            RecordKind.DENY, now,
                            domain=outcome.denial_domain or VICTIM,
                            user=str(user.dn), reason=outcome.denial_reason,
                        )
                honest_latencies.append(latency)
                registry.histogram(
                    HONEST_LATENCY_METRIC,
                    "Honest end-to-end signalling latency (victim "
                    "queueing + protocol)",
                ).observe(latency)
                honest_log.emit(decision)

        def attack_arrival() -> None:
            now = sim.now
            if now < spec.horizon_s:
                gap = attack_rng.expovariate(spec.attack_rate_per_s)
                if now + gap < spec.horizon_s:
                    sim.schedule(gap, attack_arrival)
                if report.attack_onset_s is None:
                    report.attack_onset_s = now
                    if recorder is not None:
                        recorder.record_meta(attack_onset_s=now)
                work_units = persona.fire(now)
                queue.charge(now, work_units * WORK_UNIT_S)

        if recorder is not None:
            for probe in testbed_probes(testbed):
                recorder.add_probe(probe)
            backlog_key = SeriesKey.make(
                "work_queue_backlog_s", {"domain": VICTIM}
            )
            recorder.add_probe(
                lambda now: {backlog_key: queue.drain(now)}
            )

            def telemetry_tick() -> None:
                now = sim.now
                campaign.frame(now)
                if now + SAMPLE_INTERVAL_S <= spec.horizon_s:
                    sim.schedule(SAMPLE_INTERVAL_S, telemetry_tick)

            sim.schedule(SAMPLE_INTERVAL_S, telemetry_tick)

        sim.schedule(
            honest_rng.expovariate(HONEST_RATE_PER_S), honest_arrival
        )
        sim.schedule(
            attack_rng.expovariate(spec.attack_rate_per_s), attack_arrival
        )
        sim.run()

        # Breaker opens affect honest traffic no matter who tripped
        # them: fold them into the honest event log for the SLO.
        for breaker in campaign.event_log.records(RecordKind.BREAKER):
            if breaker.reason.endswith("-> open"):
                report.breaker_opens += 1
                honest_log.emit(breaker)
        report.honest_p99_latency_s = _percentile(honest_latencies, 0.99)
        report.max_backlog_s = queue.max_backlog_s
        report.attacker = persona.stats.to_dict()
        for domain_defense in (
            b.defense for b in testbed.brokers.values()
            if b.defense is not None
        ):
            stats = domain_defense.stats
            for kind, count in (
                ("rate_limited", stats.rate_limited),
                ("quota_exceeded", stats.quota_exceeded),
                ("replay_rejected", stats.replay_rejected),
                ("shed_overload", stats.shed_overload),
            ):
                if count:
                    report.defense_rejections[kind] = (
                        report.defense_rejections.get(kind, 0) + count
                    )
        campaign.close(
            HONEST_SLOS,
            event_log=honest_log, brokers=testbed.brokers,
        )
    return report


def run_survivability_pair(
    spec: SurvivabilitySpec,
) -> tuple[SurvivabilityReport, SurvivabilityReport]:
    """The headline experiment: the same seeded scenario with the
    admission-plane defenses off, then on."""
    off = run_survivability(spec, defenses_on=False)
    on = run_survivability(spec, defenses_on=True)
    return off, on
