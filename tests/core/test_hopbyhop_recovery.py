"""Failure recovery in hop-by-hop signalling.

These tests drive the protocol through injected faults and assert both
the *liveness* half (transient faults are survived by retries) and the
*safety* half (any abort — expected or not — releases every admission
made so far, so a failed attempt never strands capacity).
"""

import pytest

from repro.bb.reservations import ReservationState
from repro.core.codec import to_wire
from repro.core.envelope import SignedEnvelope
from repro.core.messages import F_TYPE, MSG_APPROVAL, MSG_DENIAL, MSG_RAR
from repro.core.recovery import MAX_ATTEMPTS, CircuitBreaker
from repro.core.testbed import build_linear_testbed
from repro.errors import SignallingError
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultKind, FaultPlan, FaultSpec, TargetKind
from repro.obs import events as obs_events
from repro.obs import spans as obs_spans
from repro.obs.audit import RecordKind, reconcile, use_ledger
from repro.obs.events import ReasonCode


def inject(testbed, *specs):
    injector = FaultInjector(FaultPlan(tuple(specs), seed=1))
    testbed.attach_injector(injector)
    return injector


def assert_no_capacity_booked(testbed, at=1.0):
    for domain, broker in testbed.brokers.items():
        for name in broker.admission.resources():
            load = broker.admission.schedule(name).load_at(at)
            assert load == 0.0, f"{domain}/{name} still carries {load} Mb/s"
        # The table holds live rows only, and each carries its bookings.
        assert len(broker.reservations) == 0, broker.reservations.all()


@pytest.fixture()
def testbed():
    return build_linear_testbed(["A", "B", "C"])


@pytest.fixture()
def alice(testbed):
    return testbed.add_user("A", "Alice")


class TestTransientRecovery:
    def test_single_drop_survived_by_retry(self, testbed, alice):
        inject(
            testbed,
            FaultSpec(TargetKind.CHANNEL, "A|B", FaultKind.DROP, ops=1),
        )
        outcome = testbed.reserve(
            alice, source="A", destination="C", bandwidth_mbps=10.0
        )
        assert outcome.granted
        assert outcome.retries >= 1

    def test_corruption_survived_by_retransmission(self, testbed, alice):
        inject(
            testbed,
            FaultSpec(TargetKind.CHANNEL, "A|B", FaultKind.CORRUPT, ops=1),
        )
        outcome = testbed.reserve(
            alice, source="A", destination="C", bandwidth_mbps=10.0
        )
        assert outcome.granted
        assert outcome.retries >= 1

    def test_brief_broker_crash_survived(self, testbed, alice):
        inject(
            testbed,
            FaultSpec(TargetKind.BROKER, "B", FaultKind.CRASH, ops=1),
        )
        outcome = testbed.reserve(
            alice, source="A", destination="C", bandwidth_mbps=10.0
        )
        assert outcome.granted
        assert outcome.retries >= 1

    def test_retry_backoff_shows_up_in_latency(self, testbed, alice):
        clean = testbed.reserve(
            alice, source="A", destination="C", bandwidth_mbps=1.0
        )
        inject(
            testbed,
            FaultSpec(TargetKind.CHANNEL, "A|B", FaultKind.DROP, ops=1),
        )
        retried = testbed.reserve(
            alice, source="A", destination="C", bandwidth_mbps=1.0
        )
        assert retried.latency_s > clean.latency_s


class TestPermanentFailures:
    def test_dead_intermediate_broker_denies_and_releases(
        self, testbed, alice
    ):
        inject(
            testbed,
            FaultSpec(TargetKind.BROKER, "B", FaultKind.CRASH, ops=None),
        )
        outcome = testbed.reserve(
            alice, source="A", destination="C", bandwidth_mbps=10.0
        )
        assert not outcome.granted
        assert "down" in outcome.denial_reason
        assert_no_capacity_booked(testbed)

    def test_unreachable_downstream_link_denies_and_releases(
        self, testbed, alice
    ):
        inject(
            testbed,
            FaultSpec(TargetKind.CHANNEL, "B|C", FaultKind.DROP, ops=None),
        )
        outcome = testbed.reserve(
            alice, source="A", destination="C", bandwidth_mbps=10.0
        )
        assert not outcome.granted
        assert outcome.denial_domain == "C"
        assert "unreachable" in outcome.denial_reason
        assert_no_capacity_booked(testbed)

    def test_policy_outage_denies_and_releases(self, testbed, alice):
        inject(
            testbed,
            FaultSpec(
                TargetKind.POLICY, "C", FaultKind.UNAVAILABLE, ops=None
            ),
        )
        outcome = testbed.reserve(
            alice, source="A", destination="C", bandwidth_mbps=10.0
        )
        assert not outcome.granted
        assert_no_capacity_booked(testbed)

    def test_policy_outage_mid_admission_leaves_no_row(self, testbed, alice):
        """C's policy server answers the credential check, then goes
        down: every admission attempt at C raises after creating its
        PENDING row, and each row is cancelled before the retry."""
        injector = inject(
            testbed,
            FaultSpec(
                TargetKind.POLICY, "C", FaultKind.UNAVAILABLE,
                start_op=1, ops=None,
            ),
        )
        outcome = testbed.reserve(
            alice, source="A", destination="C", bandwidth_mbps=10.0
        )
        assert not outcome.granted
        assert outcome.denial_domain == "C"
        assert len(injector.triggered) == MAX_ATTEMPTS
        assert_no_capacity_booked(testbed)

    def test_policy_outage_is_recorded_as_policy_unavailable(
        self, testbed, alice
    ):
        """The policy server of C stays down past the retry budget: C is
        alive and denies, and its record names the outage, not a link."""
        inject(
            testbed,
            FaultSpec(
                TargetKind.POLICY, "C", FaultKind.UNAVAILABLE, ops=None
            ),
        )
        with use_ledger() as ledger:
            outcome = testbed.reserve(
                alice, source="A", destination="C", bandwidth_mbps=10.0
            )
        assert not outcome.granted
        assert outcome.denial_domain == "C"
        assert "after" in outcome.denial_reason
        (denial,) = ledger.records(RecordKind.DENY)
        assert denial.domain == "C"
        assert denial.reason_code == ReasonCode.POLICY_UNAVAILABLE.value

    def test_deadline_exceeded_denies_and_releases(self, testbed, alice):
        # A persistent one-second delay dwarfs the 0.25 s hop timeout, so
        # every attempt on A|B is declared lost and the retry budget burns
        # straight through the 0.4 s end-to-end deadline.
        inject(
            testbed,
            FaultSpec(
                TargetKind.CHANNEL, "A|B", FaultKind.DELAY,
                ops=None, delay_s=1.0,
            ),
        )
        outcome = testbed.reserve(
            alice, source="A", destination="C", bandwidth_mbps=10.0,
            deadline_s=0.4,
        )
        assert not outcome.granted
        assert "deadline" in outcome.denial_reason
        assert_no_capacity_booked(testbed)

    def test_breaker_opens_on_proven_dead_link(self, testbed, alice):
        inject(
            testbed,
            FaultSpec(TargetKind.CHANNEL, "B|C", FaultKind.DROP, ops=None),
        )
        outcome = testbed.reserve(
            alice, source="A", destination="C", bandwidth_mbps=10.0
        )
        assert not outcome.granted
        breaker = testbed.hop_by_hop._breakers["B|C"]
        assert breaker.state == CircuitBreaker.OPEN


class TestAbortReleasesPartialPath:
    def test_unexpected_crash_between_admissions_releases_upstream(
        self, testbed, alice, monkeypatch
    ):
        """Regression: an exception thrown after some hops admitted must
        not strand their capacity (the ``finally`` unwind in ``_signal``)."""
        broker_c = testbed.brokers["C"]

        def explode(*args, **kwargs):
            raise RuntimeError("simulated crash between admissions")

        monkeypatch.setattr(broker_c, "admit", explode)
        with pytest.raises(RuntimeError, match="between admissions"):
            testbed.reserve(
                alice, source="A", destination="C", bandwidth_mbps=10.0
            )
        # A and B admitted before C exploded; both must be clean again.
        assert_no_capacity_booked(testbed)

    def test_modify_restores_old_reservation_on_abort(
        self, testbed, alice, monkeypatch
    ):
        outcome = testbed.reserve(
            alice, source="A", destination="C", bandwidth_mbps=10.0
        )
        assert outcome.granted
        broker_c = testbed.brokers["C"]
        real_admit = broker_c.admit
        calls = []

        def explode_once(*args, **kwargs):
            if not calls:
                calls.append(1)
                raise RuntimeError("modify dies mid-flight")
            return real_admit(*args, **kwargs)

        monkeypatch.setattr(broker_c, "admit", explode_once)
        with pytest.raises(RuntimeError, match="mid-flight"):
            testbed.hop_by_hop.modify(alice, outcome, rate_mbps=20.0)
        # The abort's unwind released the partial 20 Mb/s grants and the
        # original 10 Mb/s reservation was re-established on every hop
        # (under fresh handles, written back into the outcome).
        for domain in "ABC":
            broker = testbed.brokers[domain]
            resv = broker.reservations.get(outcome.handles[domain])
            assert resv.state is ReservationState.GRANTED
            assert resv.request.rate_mbps == 10.0
        assert (
            testbed.brokers["B"].admission.schedule("ingress:A").load_at(1.0)
            == 10.0
        )


def only(kind, transform):
    """A tamper hook applying *transform* to messages of one type."""
    def hook(message):
        if isinstance(message, SignedEnvelope) and message.get(F_TYPE) == kind:
            return transform(message)
        return message
    return hook


class TestFailureBranchesOfTheSharedStep:
    """The driver's rare failure branches, through the same receive step
    and denial writer every other denial takes."""

    @pytest.mark.parametrize("link, denier", [
        pytest.param("user|A", "A", id="user-to-A"),
        pytest.param("B|C", "C", id="B-to-C"),
    ])
    def test_truncated_request_is_a_typed_denial(
        self, testbed, alice, link, denier
    ):
        brokers = testbed.brokers
        if link == "user|A":
            channel = testbed.channels.connect(alice, brokers["A"])
        else:
            channel = testbed.channels.connect(brokers["B"], brokers["C"])
        channel.tamper_hook = only(MSG_RAR, lambda m: to_wire(m)[:24])
        with obs_events.use_event_log() as log, use_ledger() as ledger:
            outcome = testbed.reserve(
                alice, source="A", destination="C", bandwidth_mbps=10.0
            )
            report = reconcile(ledger, brokers=brokers)
        assert not outcome.granted
        assert outcome.denial_domain == denier
        assert "undecodable" in outcome.denial_reason
        denials = ledger.records(RecordKind.DENY)
        assert [(r.domain, r.reason_code) for r in denials] == [
            (denier, ReasonCode.TRUST_FAILURE.value)
        ]
        # The event log holds that very record, not a second account.
        assert log.records(RecordKind.DENY) == denials
        assert log.records(RecordKind.DENY)[0] is denials[0]
        # Whatever A and B admitted before the broken copy arrived is
        # released again, and the ledger agrees with the broker tables.
        assert_no_capacity_booked(testbed)
        assert not report.violations

    def test_failed_retransmission_denies_and_releases(self, testbed, alice):
        """B gets a tampered copy, asks A to retransmit, and the link is
        dead by then: the retransmission failure is what B reports."""
        channel = testbed.channels.connect(
            testbed.brokers["A"], testbed.brokers["B"]
        )
        crossings = []

        def tamper_then_drop(message):
            crossings.append(message)
            if len(crossings) == 1:
                return message.with_tampered_field("downstream", "nobody")
            return None if message.get(F_TYPE) == MSG_RAR else message

        channel.tamper_hook = tamper_then_drop
        outcome = testbed.reserve(
            alice, source="A", destination="C", bandwidth_mbps=10.0
        )
        assert not outcome.granted
        assert outcome.denial_domain == "B"
        assert "retransmission to B" in outcome.denial_reason
        assert_no_capacity_booked(testbed)

    def test_dead_broker_closes_its_hop_span_as_failed(self, testbed, alice):
        inject(
            testbed,
            FaultSpec(TargetKind.BROKER, "B", FaultKind.CRASH, ops=None),
        )
        with obs_spans.use_tracer() as tracer:
            outcome = testbed.reserve(
                alice, source="A", destination="C", bandwidth_mbps=10.0
            )
        assert not outcome.granted and outcome.denial_domain == "B"
        statuses = {
            s.attributes["domain"]: s.status for s in tracer if s.name == "hop"
        }
        assert statuses == {"A": "released", "B": "failed"}
        assert all(span.finished for span in tracer)

    def test_lost_denial_reply_still_denies_and_holds_nothing(
        self, testbed, alice
    ):
        testbed.set_policy("C", "Return DENY")
        channel = testbed.channels.connect(
            testbed.brokers["A"], testbed.brokers["B"]
        )
        channel.tamper_hook = only(MSG_DENIAL, lambda m: None)
        with obs_spans.use_tracer() as tracer:
            outcome = testbed.reserve(
                alice, source="A", destination="C", bandwidth_mbps=10.0
            )
        assert not outcome.granted
        assert outcome.denial_domain == "C"
        assert outcome.approval is None
        assert_no_capacity_booked(testbed)
        assert all(span.finished for span in tracer)

    def test_undeliverable_approval_denies_and_closes_every_span(
        self, testbed, alice
    ):
        channel = testbed.channels.connect(
            testbed.brokers["A"], testbed.brokers["B"]
        )
        channel.tamper_hook = only(MSG_APPROVAL, lambda m: None)
        with obs_spans.use_tracer() as tracer, use_ledger() as ledger:
            outcome = testbed.reserve(
                alice, source="A", destination="C", bandwidth_mbps=10.0
            )
            report = reconcile(ledger, brokers=testbed.brokers)
        assert not outcome.granted
        assert outcome.denial_domain == "B"
        assert "approval could not be delivered" in outcome.denial_reason
        hops = [span for span in tracer if span.name == "hop"]
        assert len(hops) == 3
        assert all(span.finished for span in tracer)
        statuses = {s.attributes["domain"]: s.status for s in hops}
        # C's approval got through; B's never reached A.
        assert statuses == {"A": "released", "B": "released", "C": "ok"}
        assert_no_capacity_booked(testbed)
        assert not report.violations


class TestSoftState:
    @pytest.fixture()
    def testbed(self):
        return build_linear_testbed(["A", "B", "C"], soft_state_ttl_s=60.0)

    def test_unrefreshed_reservation_expires_everywhere(
        self, testbed, alice
    ):
        with use_ledger() as ledger:
            outcome = testbed.reserve(
                alice, source="A", destination="C", bandwidth_mbps=10.0
            )
            assert outcome.granted
            assert testbed.sweep_soft_state(59.0) == 0
            assert testbed.sweep_soft_state(61.0) == 3
        for domain in "ABC":
            handle = outcome.handles[domain]
            assert handle not in testbed.brokers[domain].reservations
            (expiry,) = ledger.records(
                RecordKind.EXPIRE, domain=domain, handle=handle
            )
            assert expiry.reason_code == ReasonCode.SOFT_STATE_EXPIRED.value
        assert_no_capacity_booked(testbed)

    def test_refresh_extends_the_lease(self, testbed, alice):
        outcome = testbed.reserve(
            alice, source="A", destination="C", bandwidth_mbps=10.0
        )
        testbed.sim.run(until=50.0)
        testbed.hop_by_hop.refresh(outcome)
        # Without the refresh every lease would have lapsed at t=60.
        assert testbed.sweep_soft_state(100.0) == 0
        assert testbed.sweep_soft_state(200.0) == 3

    def test_refresh_requires_granted_outcome(self, testbed, alice):
        testbed.set_policy("B", "Return DENY")
        outcome = testbed.reserve(
            alice, source="A", destination="C", bandwidth_mbps=10.0
        )
        assert not outcome.granted
        with pytest.raises(SignallingError):
            testbed.hop_by_hop.refresh(outcome)

    def test_sweep_reclaims_when_cancel_cannot_reach_a_dead_broker(
        self, testbed, alice
    ):
        outcome = testbed.reserve(
            alice, source="A", destination="C", bandwidth_mbps=10.0
        )
        assert outcome.granted
        inject(
            testbed,
            FaultSpec(TargetKind.BROKER, "B", FaultKind.CRASH, ops=None),
        )
        with pytest.raises(Exception):
            testbed.hop_by_hop.cancel(outcome)
        testbed.detach_injector()
        # Explicit unwind could not finish; the soft-state backstop can.
        testbed.sweep_soft_state(1e9)
        assert_no_capacity_booked(testbed)
