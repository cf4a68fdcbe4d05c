"""Tests for Approach 1 (source-domain signalling) and the STARS
coordinator — including the trust-scaling flaw and Figure 4 misreservation."""

import pytest

from repro.core.testbed import build_linear_testbed
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultKind, FaultPlan, FaultSpec, TargetKind
from repro.obs.audit import RecordKind, use_ledger
from repro.obs.events import ReasonCode


@pytest.fixture()
def testbed():
    return build_linear_testbed(["A", "B", "C"])


@pytest.fixture()
def alice(testbed):
    return testbed.add_user("A", "Alice")


def inject(testbed, spec):
    testbed.attach_injector(FaultInjector(FaultPlan((spec,), seed=1)))


def reserver(testbed, user, via):
    """Alice's A→C reservation through the agent (introduced to every
    domain) or her home coordinator, ready to run."""
    request = testbed.make_request(
        source="A", destination="C", bandwidth_mbps=10.0
    )
    if via == "agent":
        for domain in ("B", "C"):
            testbed.introduce_user_to(user, domain)
        return lambda: testbed.end_to_end_agent.reserve(user, request)
    rc = testbed.coordinator("A")
    rc.enroll_user(user)
    return lambda: rc.reserve(user, request)


class TestEndToEndAgent:
    def test_fails_without_remote_trust(self, testbed, alice):
        """The paper's first flaw: every BB must know (authenticate) Alice.
        With trust only in her home domain, the attempt dies at B."""
        request = testbed.make_request(
            source="A", destination="C", bandwidth_mbps=10.0
        )
        outcome = testbed.end_to_end_agent.reserve(alice, request)
        assert not outcome.granted
        assert not outcome.complete
        assert "no trust relationship" in outcome.failures["B"]

    def test_succeeds_with_universal_trust(self, testbed, alice):
        for domain in ("B", "C"):
            testbed.introduce_user_to(alice, domain)
        request = testbed.make_request(
            source="A", destination="C", bandwidth_mbps=10.0
        )
        outcome = testbed.end_to_end_agent.reserve(alice, request)
        assert outcome.granted and outcome.complete
        assert set(outcome.handles) == {"A", "B", "C"}

    def test_concurrent_latency_is_max(self, testbed, alice):
        for domain in ("B", "C"):
            testbed.introduce_user_to(alice, domain)
        request = testbed.make_request(
            source="A", destination="C", bandwidth_mbps=10.0
        )
        seq = testbed.end_to_end_agent.reserve(alice, request)
        testbed.end_to_end_agent.release(seq)
        par = testbed.end_to_end_agent.reserve(alice, request, concurrent=True)
        assert par.granted
        assert par.latency_s < seq.latency_s
        # §3: "reservations for each domain can be made in parallel".
        assert par.latency_s == pytest.approx(
            max(
                2 * 0.001 + 0.001,  # home channel RTT + processing
                2 * 0.005 + 0.001,  # remote channel RTT + processing
            )
        )

    def test_sequential_stops_at_first_failure(self, testbed, alice):
        testbed.introduce_user_to(alice, "B")
        testbed.introduce_user_to(alice, "C")
        testbed.set_policy("B", "Return DENY")
        request = testbed.make_request(
            source="A", destination="C", bandwidth_mbps=10.0
        )
        outcome = testbed.end_to_end_agent.reserve(alice, request)
        assert not outcome.granted
        assert "C" not in outcome.failures  # never contacted
        assert outcome.handles == {}  # A rolled back

    def test_rollback_releases_capacity(self, testbed, alice):
        testbed.introduce_user_to(alice, "B")
        testbed.introduce_user_to(alice, "C")
        testbed.set_policy("C", "Return DENY")
        request = testbed.make_request(
            source="A", destination="C", bandwidth_mbps=10.0
        )
        testbed.end_to_end_agent.reserve(alice, request)
        assert testbed.brokers["A"].admission.schedule("egress:B").load_at(1.0) == 0.0
        assert testbed.brokers["B"].admission.schedule("intra").load_at(1.0) == 0.0


class TestRefusalsOnTheRecord:
    """Each contacted BB runs the hop engine's per-domain step, so a
    baseline's refusal is a ledger record with a reason code and its
    rollback releases are ``unwound``, as in hop-by-hop signalling."""

    @staticmethod
    def assert_refused_and_unwound(ledger, domain, code):
        denials = ledger.records(RecordKind.DENY)
        assert [(r.domain, r.reason_code) for r in denials] == [(domain, code)]
        cancels = ledger.records(RecordKind.CANCEL)
        assert sorted(r.domain for r in cancels) == ["A", "B"]
        assert {r.reason_code for r in cancels} == {ReasonCode.UNWOUND}

    def test_untrusted_domain_refusal_is_recorded(self, testbed, alice):
        testbed.introduce_user_to(alice, "B")  # never to C
        request = testbed.make_request(
            source="A", destination="C", bandwidth_mbps=10.0
        )
        with use_ledger() as ledger:
            outcome = testbed.end_to_end_agent.reserve(alice, request)
        assert not outcome.granted and outcome.handles == {}
        assert "no trust relationship" in outcome.failures["C"]
        self.assert_refused_and_unwound(ledger, "C", ReasonCode.TRUST_FAILURE)

    def test_coordinator_rollback_is_unwound(self, testbed, alice):
        rc = testbed.coordinator("A")
        rc.enroll_user(alice)
        testbed.set_policy("C", "Return DENY")
        request = testbed.make_request(
            source="A", destination="C", bandwidth_mbps=10.0
        )
        with use_ledger() as ledger:
            outcome = rc.reserve(alice, request)
        assert not outcome.granted and outcome.handles == {}
        self.assert_refused_and_unwound(ledger, "C", ReasonCode.POLICY_DENIED)

    def test_coordinator_needs_trust_with_every_domain(self, testbed, alice):
        """STARS' residual flaw (§3): a BB that does not trust the RC
        cannot be contacted; the refusal is recorded and A and B unwind."""
        rc = testbed.coordinator("A")
        rc.enroll_user(alice)
        testbed.brokers["C"].truststore.add_revocation_checker(
            lambda cert: cert.subject == rc.dn
        )
        request = testbed.make_request(
            source="A", destination="C", bandwidth_mbps=10.0
        )
        with use_ledger() as ledger:
            outcome = rc.reserve(alice, request, concurrent=False)
        assert "no trust relationship" in outcome.failures["C"]
        self.assert_refused_and_unwound(ledger, "C", ReasonCode.TRUST_FAILURE)

    @pytest.mark.parametrize("via", ["agent", "coordinator"])
    def test_dead_broker_is_broker_unreachable(self, testbed, alice, via):
        """A broker that stays down past the retries: a recorded
        ``broker_unreachable`` refusal, not an escaping error (for the
        agent, the engine's broker-down branch on a one-hop walk)."""
        reserve = reserver(testbed, alice, via)
        inject(testbed, FaultSpec(TargetKind.BROKER, "C", FaultKind.CRASH,
                                  ops=None))
        with use_ledger() as ledger:
            outcome = reserve()
        assert "is down" in outcome.failures["C"]
        assert outcome.retries == 3
        self.assert_refused_and_unwound(
            ledger, "C", ReasonCode.BROKER_UNREACHABLE
        )

    @pytest.mark.parametrize("via", ["agent", "coordinator"])
    def test_transient_crash_is_retried(self, testbed, alice, via):
        reserve = reserver(testbed, alice, via)
        inject(testbed, FaultSpec(TargetKind.BROKER, "C", FaultKind.CRASH,
                                  ops=1))
        outcome = reserve()
        assert outcome.complete and outcome.retries == 1

    def test_unreachable_domain_is_link_unreachable(self, testbed, alice):
        """Delivery is the engine's: retries, then a recorded refusal."""
        reserve = reserver(testbed, alice, "agent")
        inject(testbed, FaultSpec(TargetKind.CHANNEL, "Alice|C",
                                  FaultKind.DROP, ops=None))
        with use_ledger() as ledger:
            outcome = reserve()
        assert "request to C" in outcome.failures["C"]
        assert outcome.retries == 3
        self.assert_refused_and_unwound(
            ledger, "C", ReasonCode.LINK_UNREACHABLE
        )

    def test_sequential_agent_stops_at_a_domain_without_broker(
        self, testbed, alice
    ):
        reserve = reserver(testbed, alice, "agent")
        del testbed.end_to_end_agent.protocol.brokers["B"]
        with use_ledger() as ledger:
            outcome = reserve()
        assert outcome.failures == {"B": "no bandwidth broker"}
        assert [r.domain for r in ledger.records(RecordKind.ADMIT)] == ["A"]


class TestMisreservation:
    """Figure 4: David reserves in his domains but skips the destination."""

    def test_skip_destination_yields_incomplete_grant(self, testbed):
        david = testbed.add_user("A", "David")
        testbed.introduce_user_to(david, "B")
        request = testbed.make_request(
            source="A", destination="C", bandwidth_mbps=10.0
        )
        outcome = testbed.end_to_end_agent.reserve(
            david, request, skip_domains={"C"}
        )
        # Nothing failed -- but the reservation is NOT complete.
        assert outcome.granted
        assert not outcome.complete
        assert set(outcome.handles) == {"A", "B"}
        assert outcome.skipped == ("C",)

    def test_claimed_misreservation_configures_partial_path(self, testbed):
        david = testbed.add_user("A", "David")
        testbed.introduce_user_to(david, "B")
        request = testbed.make_request(
            source="A", destination="C", bandwidth_mbps=10.0,
            attributes=(("flow_id", "david-flow"),),
        )
        outcome = testbed.end_to_end_agent.reserve(
            david, request, skip_domains={"C"}
        )
        testbed.end_to_end_agent.claim(outcome)
        from repro.net.packet import DSCP

        # B's ingress admits David's traffic...
        assert testbed.network.aggregate_policer(
            "edge.B.left", DSCP.EF
        ).bucket.rate_bps == 10e6
        # ...but C's ingress was never told about him.
        agg_c = testbed.network.aggregate_policer("edge.C.left", DSCP.EF)
        assert agg_c is None or agg_c.bucket.rate_bps == 0.0

    def test_hop_by_hop_makes_misreservation_impossible(self, testbed):
        """Approach 2 structurally prevents skipping a domain: the request
        reaches C through B or not at all."""
        david = testbed.add_user("A", "David")
        testbed.set_policy("C", "Return DENY")  # C would refuse David
        with use_ledger() as ledger:
            outcome = testbed.reserve(
                david, source="A", destination="C", bandwidth_mbps=10.0
            )
        assert not outcome.granted
        # Nothing stays reserved anywhere: the partial grants left their
        # tables, and the ledger records each release.
        for domain in "AB":
            handle = outcome.handles[domain]
            assert handle not in testbed.brokers[domain].reservations
            assert ledger.records(RecordKind.CANCEL, domain=domain,
                                  handle=handle)


class TestCoordinator:
    def test_rc_reserves_for_unknown_user(self, testbed, alice):
        """STARS: brokers need not know Alice — they trust the RC."""
        rc = testbed.coordinator("A")
        rc.enroll_user(alice)
        request = testbed.make_request(
            source="A", destination="C", bandwidth_mbps=10.0
        )
        outcome = rc.reserve(alice, request)
        assert outcome.granted and outcome.complete
        # The reservations are owned by Alice, not the RC.
        for domain in "ABC":
            resv = testbed.brokers[domain].reservations.get(
                outcome.handles[domain]
            )
            assert resv.owner == alice.dn

    def test_unenrolled_user_rejected(self, testbed, alice):
        rc = testbed.coordinator("A")
        request = testbed.make_request(
            source="A", destination="C", bandwidth_mbps=10.0
        )
        outcome = rc.reserve(alice, request)
        assert not outcome.granted
        assert "not enrolled" in outcome.failures["A"]

    def test_rc_rolls_back_on_denial(self, testbed, alice):
        rc = testbed.coordinator("A")
        rc.enroll_user(alice)
        testbed.set_policy("C", "Return DENY")
        request = testbed.make_request(
            source="A", destination="C", bandwidth_mbps=10.0
        )
        outcome = rc.reserve(alice, request)
        assert not outcome.granted
        assert outcome.handles == {}
        assert testbed.brokers["A"].admission.schedule("egress:B").load_at(1.0) == 0.0

    def test_rc_is_reused(self, testbed):
        assert testbed.coordinator("A") is testbed.coordinator("A")
