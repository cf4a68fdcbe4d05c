"""Paper scenarios on the production path: every figure/claim workload.

Each test runs one scenario once on a fresh testbed and asserts its
decisions directly: grant handles, denial domain and reason, tunnel
allocation, the Figure-4 skip-domain outcome, typed denials for hostile
ingress bytes, and a chaos slice with zero violations.
"""

from repro.core.codec import to_wire
from repro.core.messages import (
    F_INNER_DIGEST,
    make_user_rar,
    unwrap_rar_layers,
)
from repro.core.testbed import build_linear_testbed
from repro.faults.chaos import run_chaos
from repro.obs import audit as obs_audit

from tests.differential._harness import decision_rows


class TestFourDomainReservation:
    """The paper's standard scenario: Alice reserves A -> D end to end."""

    def test_grant_identical(self):
        with obs_audit.use_ledger() as ledger:
            testbed = build_linear_testbed(["A", "B", "C", "D"])
            alice = testbed.add_user("A", "Alice")
            outcome = testbed.reserve(
                alice, source="A", destination="D",
                bandwidth_mbps=50.0, duration=3600.0,
            )
        assert outcome.granted
        assert set(outcome.handles) == {"A", "B", "C", "D"}
        assert str(outcome.verified.user).endswith("CN=Alice")
        assert decision_rows(ledger)  # the ledger saw the decisions
        # Every layer a broker emitted is an append-chain layer (signed
        # link digest); only the user's own RAR_U has nothing below it.
        *bb_layers, user_layer = unwrap_rar_layers(outcome.final_rar)
        assert len(bb_layers) == 3
        assert all(layer.get(F_INNER_DIGEST) for layer in bb_layers)
        assert user_layer.signer == alice.dn

    def test_denial_at_transit_domain_identical(self):
        testbed = build_linear_testbed(["A", "B", "C", "D"])
        testbed.set_policy("C", "Return DENY")
        alice = testbed.add_user("A", "Alice")
        outcome = testbed.reserve(
            alice, source="A", destination="D",
            bandwidth_mbps=50.0, duration=3600.0,
        )
        assert not outcome.granted
        assert outcome.denial_domain == "C"
        assert outcome.denial_reason

    def test_capacity_exhaustion_reason_identical(self):
        """Admission (not policy) denial: the second oversubscribing
        request is refused, and says why."""
        testbed = build_linear_testbed(["A", "B", "C"])
        alice = testbed.add_user("A", "Alice")
        first = testbed.reserve(
            alice, source="A", destination="C", bandwidth_mbps=100.0,
        )
        second = testbed.reserve(
            alice, source="A", destination="C", bandwidth_mbps=100.0,
        )
        assert first.granted and not second.granted
        assert second.denial_reason


class TestTunnelScenario:
    """Aggregate tunnels with end-domain-only flow signalling (§7)."""

    def test_establish_and_allocate_identical(self):
        testbed = build_linear_testbed(["A", "B", "C", "D"])
        alice = testbed.add_user("A", "Alice")
        request = testbed.make_request(
            source="A", destination="D", bandwidth_mbps=50.0,
            duration=7200.0,
        )
        tunnel, outcome = testbed.tunnels.establish(alice, request)
        assert outcome.granted
        assert tunnel is not None
        allocation, _, _ = testbed.tunnels.allocate_flow(
            tunnel.tunnel_id, alice, rate_mbps=5.0,
            start=0.0, end=3600.0,
        )
        assert allocation.rate_mbps == 5.0
        assert tunnel.allocated_mbps(0.0, 3600.0) == 5.0


class TestMisreservationAttack:
    """Figure 4: a source-domain agent skips a transit domain."""

    def test_skip_domain_outcome_identical(self):
        testbed = build_linear_testbed(["A", "B", "C", "D"])
        mallory = testbed.add_user("A", "Mallory")
        for domain in ("B", "D"):
            testbed.introduce_user_to(mallory, domain)
        request = testbed.make_request(
            source="A", destination="D", bandwidth_mbps=50.0,
        )
        outcome = testbed.end_to_end_agent.reserve(
            mallory, request, skip_domains=["C"],
            rollback_on_failure=False,
        )
        assert outcome.skipped == ("C",)
        assert not outcome.complete

    def test_concurrent_source_domain_identical(self):
        """Concurrent Approach 1 runs under the batched-verification
        scope; every domain still grants."""
        testbed = build_linear_testbed(["A", "B", "C"])
        alice = testbed.add_user("A", "Alice")
        for domain in ("B", "C"):
            testbed.introduce_user_to(alice, domain)
        request = testbed.make_request(
            source="A", destination="C", bandwidth_mbps=25.0,
        )
        outcome = testbed.end_to_end_agent.reserve(
            alice, request, concurrent=True,
        )
        assert outcome.granted and outcome.complete
        assert set(outcome.handles) == {"A", "B", "C"}


class TestConcurrentBatch:
    """A burst of back-to-back reservations from four users."""

    def test_batch_outcomes_identical(self):
        testbed = build_linear_testbed(["A", "B", "C", "D"])
        users = [
            testbed.add_user("A", name)
            for name in ("U0", "U1", "U2", "U3")
        ]
        outcomes = [
            testbed.hop_by_hop.reserve(user, testbed.make_request(
                source="A", destination="D",
                bandwidth_mbps=20.0 + 5.0 * i,
            ))
            for i, user in enumerate(users)
        ]
        assert all(outcome.granted for outcome in outcomes)


class TestIngressDifferential:
    """process_ingress reports — gate, decode, verify."""

    @staticmethod
    def _wire_and_mutations():
        testbed = build_linear_testbed(["A", "B"])
        bob = testbed.add_user("B", "Bob")
        request = testbed.make_request(
            source="B", destination="A", bandwidth_mbps=5.0,
            start=1800.0, duration=1800.0,
        )
        envelope = make_user_rar(
            request=request,
            source_bb=testbed.brokers["B"].dn,
            user=bob.dn,
            user_key=bob.keypair.private,
            deadline=25.0,
            traceparent="00-feed-beef-01",
        )
        wire = to_wire(envelope)
        # A wire whose res_spec violates the reservation invariants:
        # canonical floats are hex strings, so overwriting the start
        # payload (1800.0) with the end payload (3600.0) keeps every
        # frame length intact but decodes to end <= start.  It must come
        # back as a typed denial, not as a ReservationStateError
        # escaping process_ingress.
        start_hex = (1800.0).hex().encode("ascii")
        end_hex = (3600.0).hex().encode("ascii")
        assert len(start_hex) == len(end_hex)
        assert wire.count(start_hex) == 1
        hostile = wire.replace(start_hex, end_hex)
        return testbed, bob, wire, hostile

    def test_reports_identical_for_every_delivery(self):
        testbed, bob, wire, hostile = self._wire_and_mutations()
        deliveries = {
            "well-formed": wire,
            "truncated": wire[:12],
            "bit-flipped": bytes([wire[0] ^ 0x40]) + wire[1:],
            "garbage": b"\x00" * 48,
            "invalid-res-spec": hostile,
        }
        reports = {
            name: testbed.hop_by_hop.process_ingress(
                "B", payload, peer=str(bob.dn),
                peer_certificate=bob.certificate, at_time=0.0,
            )
            for name, payload in deliveries.items()
        }
        accepted = reports.pop("well-formed")
        assert accepted.accepted and accepted.verified
        assert accepted.traceparent == "00-feed-beef-01"
        assert accepted.deadline == 25.0
        for report in reports.values():
            assert not report.accepted and not report.verified
            assert report.reason and report.reason_code


class TestChaosSlice:
    """A deterministic slice of the single-fault chaos matrix."""

    def test_chaos_trials_identical(self):
        report = run_chaos(seed=3, trials=12)
        assert len(report.trials) == 12
        assert report.ledger is not None and decision_rows(report.ledger)
        assert not report.violations
        assert not report.audit_violations
