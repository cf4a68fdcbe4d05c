"""End-to-end tests for hop-by-hop signalling on a wired testbed."""

import logging

import pytest

from repro.bb.reservations import ReservationState
from repro.core.testbed import build_linear_testbed
from repro.core.tracing import trace_approval_chain, trace_request_path
from repro.crypto.dn import DN
from repro.errors import SignallingError
from repro.obs import audit as obs_audit
from repro.obs.audit import RecordKind

FIG6_A = """
If User = Alice
    If Time > 8am and Time < 5pm
        If BW <= 10Mb/s
            Return GRANT
        Else Return DENY
    Else if BW <= Avail_BW
        Return GRANT
    Else Return DENY
Return DENY
"""

FIG6_B = """
If Group = Atlas
    If BW <= 10Mb/s
        Return GRANT
If Issued_by(Capability) = ESnet
    If BW <= 10Mb/s
        Return GRANT
Return DENY
"""


@pytest.fixture()
def testbed():
    return build_linear_testbed(["A", "B", "C"])


@pytest.fixture()
def alice(testbed):
    return testbed.add_user("A", "Alice")


class TestBasicReservation:
    def test_grant_across_three_domains(self, testbed, alice):
        outcome = testbed.reserve(
            alice, source="A", destination="C", bandwidth_mbps=10.0
        )
        assert outcome.granted
        assert set(outcome.handles) == {"A", "B", "C"}
        assert outcome.path == ("A", "B", "C")
        for domain in "ABC":
            bb = testbed.brokers[domain]
            resv = bb.reservations.get(outcome.handles[domain])
            assert resv.state is ReservationState.GRANTED
            assert resv.owner == alice.dn

    def test_capacity_booked_everywhere(self, testbed, alice):
        testbed.reserve(alice, source="A", destination="C", bandwidth_mbps=10.0)
        assert testbed.brokers["A"].admission.schedule("egress:B").load_at(1.0) == 10.0
        assert testbed.brokers["B"].admission.schedule("ingress:A").load_at(1.0) == 10.0
        assert testbed.brokers["B"].admission.schedule("egress:C").load_at(1.0) == 10.0
        assert testbed.brokers["C"].admission.schedule("ingress:B").load_at(1.0) == 10.0

    def test_single_domain_reservation(self, testbed, alice):
        outcome = testbed.reserve(
            alice, source="A", destination="A", bandwidth_mbps=5.0
        )
        assert outcome.granted
        assert outcome.path == ("A",)
        assert set(outcome.handles) == {"A"}

    def test_user_only_talks_to_source_bb(self, testbed, alice):
        """The defining property of Approach 2: Alice has channels only with
        BB-A; the other brokers never see her directly."""
        testbed.reserve(alice, source="A", destination="C", bandwidth_mbps=10.0)
        assert testbed.channels.has(alice.dn, testbed.brokers["A"].dn)
        assert not testbed.channels.has(alice.dn, testbed.brokers["B"].dn)
        assert not testbed.channels.has(alice.dn, testbed.brokers["C"].dn)

    def test_message_and_latency_accounting(self, testbed, alice):
        outcome = testbed.reserve(
            alice, source="A", destination="C", bandwidth_mbps=10.0
        )
        # Request leg: user->A, A->B, B->C = 3; reply leg: 3.
        assert outcome.messages == 6
        # Latency: 2*(0.001 + 0.005 + 0.005) + 3 * processing 0.001.
        assert outcome.latency_s == pytest.approx(0.022 + 0.003)
        assert outcome.bytes > 0

    def test_path_tracing(self, testbed, alice):
        outcome = testbed.reserve(
            alice, source="A", destination="C", bandwidth_mbps=10.0
        )
        trace = trace_request_path(outcome.final_rar)
        assert trace.signers == (
            alice.dn,
            testbed.brokers["A"].dn,
            testbed.brokers["B"].dn,
        )
        assert trace.consistent

    def test_approval_chain(self, testbed, alice):
        outcome = testbed.reserve(
            alice, source="A", destination="C", bandwidth_mbps=10.0
        )
        chain = trace_approval_chain(outcome.approval)
        assert [c[1] for c in chain] == ["A", "B", "C"]
        assert chain[0][2] == outcome.handles["A"]
        assert chain[2][2] == outcome.handles["C"]

    def test_verified_rar_at_destination(self, testbed, alice):
        outcome = testbed.reserve(
            alice, source="A", destination="C", bandwidth_mbps=10.0
        )
        assert outcome.verified is not None
        assert outcome.verified.user == alice.dn
        assert outcome.verified.depth == 2


class TestDenials:
    def test_policy_denial_at_intermediate(self, testbed, alice):
        testbed.set_policy("B", "Return DENY")
        outcome = testbed.reserve(
            alice, source="A", destination="C", bandwidth_mbps=10.0
        )
        assert not outcome.granted
        assert outcome.denial_domain == "B"
        assert "DENY" in outcome.denial_reason

    def test_denial_releases_partial_path(self, testbed, alice):
        testbed.set_policy("C", "Return DENY")
        with obs_audit.use_ledger() as ledger:
            outcome = testbed.reserve(
                alice, source="A", destination="C", bandwidth_mbps=10.0
            )
        assert not outcome.granted
        # A and B were granted then released.
        assert testbed.brokers["A"].admission.schedule("egress:B").load_at(1.0) == 0.0
        assert testbed.brokers["B"].admission.schedule("ingress:A").load_at(1.0) == 0.0
        # The released rows left the tables; the ledger keeps the release.
        for domain in "AB":
            handle = outcome.handles[domain]
            assert handle not in testbed.brokers[domain].reservations
            assert ledger.records(RecordKind.CANCEL, domain=domain,
                                  handle=handle)

    def test_unknown_predicate_fails_closed(self):
        """A policy naming a predicate no one registered cannot grant:
        the domain denies with ``policy_denied``, the upstream hop
        unwinds, and nothing escapes ``reserve``."""
        testbed = build_linear_testbed({
            "A": "Return GRANT",
            "B": "If Accredited_Physicist(requestor) Return GRANT",
        })
        user = testbed.add_user("A", "Alice")
        with obs_audit.use_ledger() as ledger:
            outcome = testbed.reserve(
                user, source="A", destination="B", bandwidth_mbps=1.0
            )
        assert not outcome.granted
        assert outcome.denial_domain == "B"
        denies = ledger.records(RecordKind.DENY)
        assert [(r.domain, r.reason_code) for r in denies] == [
            ("B", "policy_denied")
        ]
        assert "Accredited_Physicist" in denies[0].reason
        assert ledger.records(RecordKind.CANCEL, domain="A",
                              handle=outcome.handles["A"])
        assert testbed.brokers["A"].admission.schedule("egress:B").load_at(1.0) == 0.0
        assert not testbed.brokers["A"].reservations.in_state(
            ReservationState.PENDING, ReservationState.GRANTED,
        )

    def test_fail_closed_deny_names_its_if(self):
        """The provenance of a fail-closed denial is the trace up to the
        call that could not be evaluated: the record names that ``If``."""
        testbed = build_linear_testbed({
            "A": "Return GRANT",
            "B": "If Accredited_Physicist(requestor)\n  Return GRANT\n"
                 "Return DENY",
        })
        user = testbed.add_user("A", "Alice")
        with obs_audit.use_ledger() as ledger:
            testbed.reserve(user, source="A", destination="B",
                            bandwidth_mbps=1.0)
        (deny,) = ledger.records(RecordKind.DENY)
        assert deny.matched_rule == "B/0"
        assert deny.rules_fired == ("B/0?Accredited_Physicist(requestor)=error",)

    def test_cancel_of_denied_outcome_is_refused(self, testbed, alice):
        """A denied outcome holds nothing: cancelling it is a signalling
        error raised before any broker is touched."""
        testbed.set_policy("C", "Return DENY")
        with obs_audit.use_ledger() as ledger:
            outcome = testbed.reserve(
                alice, source="A", destination="C", bandwidth_mbps=10.0
            )
            recorded = len(ledger)
            with pytest.raises(SignallingError, match="denied"):
                testbed.hop_by_hop.cancel(outcome)
        assert len(ledger) == recorded

    def test_denial_is_logged_below_warning(self, testbed, alice, caplog):
        """A denial is a decision, logged at INFO like a grant; the
        ledger holds it."""
        testbed.set_policy("C", "Return DENY")
        with caplog.at_level(logging.INFO, logger="repro"), \
                obs_audit.use_ledger() as ledger:
            outcome = testbed.reserve(
                alice, source="A", destination="C", bandwidth_mbps=10.0
            )
        assert not outcome.granted
        assert not [r for r in caplog.records if r.levelno >= logging.WARNING]
        assert any(
            r.levelno == logging.INFO and "denied by C" in r.getMessage()
            for r in caplog.records
        )
        assert ledger.records(RecordKind.DENY, domain="C")

    def test_capacity_denial(self, testbed, alice):
        first = testbed.reserve(
            alice, source="A", destination="C", bandwidth_mbps=100.0
        )
        assert first.granted
        second = testbed.reserve(
            alice, source="A", destination="C", bandwidth_mbps=100.0
        )
        assert not second.granted
        assert "available" in second.denial_reason

    def test_denial_reason_reaches_user(self, testbed, alice):
        testbed.set_policy("C", "Return DENY")
        outcome = testbed.reserve(
            alice, source="A", destination="C", bandwidth_mbps=10.0
        )
        # §6.1: the denial reason is propagated upstream.
        assert outcome.denial_reason
        assert outcome.denial_domain == "C"

    def test_foreign_user_rejected_at_source(self, testbed):
        """A user with a certificate from an unrelated CA cannot even open
        the channel to the source BB."""
        from repro.core.agent import UserAgent
        from repro.crypto.x509 import CertificateAuthority
        import random

        rogue_ca = CertificateAuthority(
            DN.make("Evil", "X", "CA"), rng=random.Random(1), scheme="simulated"
        )
        kp, cert = rogue_ca.issue_keypair(DN.make("Evil", "X", "Mallory"))
        mallory = UserAgent(
            DN.make("Evil", "X", "Mallory"), "A", keypair=kp, certificate=cert
        )
        mallory.truststore.add_introduced_peer(testbed.brokers["A"].certificate)
        from repro.errors import HandshakeError

        with pytest.raises(HandshakeError):
            testbed.reserve(
                mallory, source="A", destination="C", bandwidth_mbps=1.0
            )


class TestFigure6Scenario:
    """The complete Figure 6 policy environment, end to end."""

    @pytest.fixture()
    def fig6(self, testbed):
        testbed.set_policy("A", FIG6_A)
        testbed.set_policy("B", FIG6_B)
        cas = testbed.add_cas("ESnet")
        alice = testbed.add_user("A", "Alice")
        cas.grant(alice.dn, ["member"])
        alice.grid_login(cas, validity_s=10 * 24 * 3600.0)
        # Destination policy C requires ESnet capability + valid CPU resv
        # for >= 5 Mb/s; we install a CPU-handle validator below.
        testbed.set_policy(
            "C",
            "If BW >= 5Mb/s\n"
            "    If Issued_by(Capability) = ESnet and HasValidCPUResv(RAR)\n"
            "        Return GRANT\n"
            "    Else Return DENY\n"
            "Return GRANT",
        )
        testbed.brokers["C"].register_linked_validator(
            "cpu", lambda handle: handle == "CPU-111"
        )
        return testbed, alice

    def test_alice_granted_with_capability_and_cpu_resv(self, fig6):
        testbed, alice = fig6
        request = testbed.make_request(
            source="A", destination="C", bandwidth_mbps=10.0,
            linked_reservations=(("cpu", "CPU-111"),),
        )
        # Evening (off business hours): BB-A allows up to Avail_BW.
        testbed.sim.run(until=20 * 3600.0)
        outcome = testbed.hop_by_hop.reserve(alice, request)
        assert outcome.granted, outcome.denial_reason

    def test_business_hours_cap_applies(self, fig6):
        testbed, alice = fig6
        testbed.sim.run(until=12 * 3600.0)  # noon
        request = testbed.make_request(
            source="A", destination="C", bandwidth_mbps=20.0,
            linked_reservations=(("cpu", "CPU-111"),),
        )
        outcome = testbed.hop_by_hop.reserve(alice, request)
        assert not outcome.granted
        assert outcome.denial_domain == "A"

    def test_missing_cpu_reservation_denied_at_c(self, fig6):
        testbed, alice = fig6
        testbed.sim.run(until=20 * 3600.0)
        request = testbed.make_request(
            source="A", destination="C", bandwidth_mbps=10.0,
        )
        outcome = testbed.hop_by_hop.reserve(alice, request)
        assert not outcome.granted
        assert outcome.denial_domain == "C"

    def test_capability_chain_verified_at_destination(self, fig6):
        testbed, alice = fig6
        testbed.sim.run(until=20 * 3600.0)
        request = testbed.make_request(
            source="A", destination="C", bandwidth_mbps=10.0,
            linked_reservations=(("cpu", "CPU-111"),),
        )
        outcome = testbed.hop_by_hop.reserve(alice, request)
        assert outcome.granted
        # Figure 7: the destination holds the full delegation chain
        # CAS -> Alice -> BB-A -> BB-B -> BB-C.
        assert outcome.delegation is not None
        assert outcome.delegation.capabilities == {"ESnet:member"}
        holders = outcome.delegation.holders
        assert holders[-1] == testbed.brokers["C"].dn
        assert len(holders) == 4

    def test_bob_without_credentials_denied_at_b(self, fig6):
        testbed, _ = fig6
        bob = testbed.add_user("A", "Bob")
        testbed.sim.run(until=20 * 3600.0)
        request = testbed.make_request(
            source="A", destination="C", bandwidth_mbps=10.0,
        )
        outcome = testbed.hop_by_hop.reserve(bob, request)
        assert not outcome.granted
        # Policy A's user check already stops Bob ("If User = Alice").
        assert outcome.denial_domain == "A"


class TestClaimLifecycle:
    def test_claim_configures_data_plane(self, testbed, alice):
        request = testbed.make_request(
            source="A", destination="C", bandwidth_mbps=10.0,
            attributes=(("flow_id", "alice-flow"),),
        )
        outcome = testbed.hop_by_hop.reserve(alice, request)
        testbed.hop_by_hop.claim(outcome)
        # Per-flow policer at Alice's first router.
        assert testbed.network.flow_policer("core.A", "alice-flow") is not None
        # Aggregate policers at B's and C's ingress.
        from repro.net.packet import DSCP

        agg_b = testbed.network.aggregate_policer("edge.B.left", DSCP.EF)
        agg_c = testbed.network.aggregate_policer("edge.C.left", DSCP.EF)
        assert agg_b is not None and agg_b.bucket.rate_bps == 10e6
        assert agg_c is not None and agg_c.bucket.rate_bps == 10e6

    def test_cancel_shrinks_aggregates(self, testbed, alice):
        request = testbed.make_request(
            source="A", destination="C", bandwidth_mbps=10.0,
            attributes=(("flow_id", "f1"),),
        )
        outcome = testbed.hop_by_hop.reserve(alice, request)
        testbed.hop_by_hop.claim(outcome)
        testbed.hop_by_hop.cancel(outcome)
        from repro.net.packet import DSCP

        agg_c = testbed.network.aggregate_policer("edge.C.left", DSCP.EF)
        assert agg_c.bucket.rate_bps == 0.0
        assert testbed.network.flow_policer("core.A", "f1") is None

    def test_cannot_claim_denied(self, testbed, alice):
        testbed.set_policy("B", "Return DENY")
        outcome = testbed.reserve(
            alice, source="A", destination="C", bandwidth_mbps=10.0
        )
        with pytest.raises(SignallingError):
            testbed.hop_by_hop.claim(outcome)


class TestGroupAssertionsOverProtocol:
    """Figure 6 Policy B's 'Group = Atlas' branch exercised through the
    full protocol: the assertion travels inside the RAR and BB-B verifies
    it against the registered group server."""

    def test_atlas_assertion_grants_at_b(self, testbed):
        testbed.set_policy("B", FIG6_B)
        gs = testbed.add_group_server("HEP")
        alice = testbed.add_user("A", "Alice")
        gs.add_member("Atlas", alice.dn)
        alice.collect_assertion(gs.assert_membership(alice.dn, "Atlas"))
        outcome = testbed.reserve(
            alice, source="A", destination="C", bandwidth_mbps=10.0
        )
        assert outcome.granted, outcome.denial_reason

    def test_revoked_membership_denies(self, testbed):
        testbed.set_policy("B", FIG6_B)
        gs = testbed.add_group_server("HEP")
        alice = testbed.add_user("A", "Alice")
        gs.add_member("Atlas", alice.dn)
        alice.collect_assertion(gs.assert_membership(alice.dn, "Atlas"))
        # The group server drops Alice AFTER issuing the assertion: the
        # online re-validation at decision time must catch it.
        gs.remove_member("Atlas", alice.dn)
        outcome = testbed.reserve(
            alice, source="A", destination="C", bandwidth_mbps=10.0
        )
        assert not outcome.granted
        assert outcome.denial_domain == "B"

    def test_foreign_assertion_ignored(self, testbed):
        testbed.set_policy("B", FIG6_B)
        alice = testbed.add_user("A", "Alice")
        from repro.crypto.keys import SimulatedScheme
        from repro.policy.attributes import make_assertion
        import random as _random

        rogue_keys = SimulatedScheme().generate(_random.Random(5))
        forged = make_assertion(
            issuer=DN.make("Evil", "X", "GS"),
            issuer_key=rogue_keys.private,
            subject=alice.dn,
            attributes={"group": "Atlas"},
        )
        alice.collect_assertion(forged)
        outcome = testbed.reserve(
            alice, source="A", destination="C", bandwidth_mbps=10.0
        )
        assert not outcome.granted

    def test_stolen_assertion_unusable(self, testbed):
        """Bob presents Alice's assertion: subject mismatch, rejected."""
        testbed.set_policy("B", FIG6_B)
        gs = testbed.add_group_server("HEP")
        alice = testbed.add_user("A", "Alice")
        bob = testbed.add_user("A", "Bob")
        gs.add_member("Atlas", alice.dn)
        stolen = gs.assert_membership(alice.dn, "Atlas")
        request = testbed.make_request(
            source="A", destination="C", bandwidth_mbps=10.0
        )
        outcome = testbed.hop_by_hop.reserve(
            bob, request, assertions=[stolen]
        )
        assert not outcome.granted
        assert outcome.denial_domain == "B"


class TestDomainWideInformation:
    """§6.1 step 2: the source BB 'receives additional domain-wide
    information from the policy server ... used to identify additional
    constraints' — propagated downstream as signed assertions and visible
    to later domains' policies."""

    def test_source_additions_reach_destination_policy(self, testbed, alice):
        # A's policy server attaches a traffic-engineering hint on grant.
        testbed.brokers["A"].policy_server.domain_attributes = {
            "te_class": "gold"
        }
        # C only admits requests a trusted upstream marked "gold".
        testbed.set_policy(
            "C", "If Attribute(te_class) = gold\n    Return GRANT\nReturn DENY"
        )
        outcome = testbed.reserve(
            alice, source="A", destination="C", bandwidth_mbps=10.0
        )
        assert outcome.granted, outcome.denial_reason

    def test_without_addition_denied(self, testbed, alice):
        testbed.set_policy(
            "C", "If Attribute(te_class) = gold\n    Return GRANT\nReturn DENY"
        )
        # The request never carried te_class: Attribute() probes to None
        # and C's fall-through denies.
        outcome = testbed.reserve(
            alice, source="A", destination="C", bandwidth_mbps=10.0
        )
        assert not outcome.granted
        assert outcome.denial_domain == "C"

    def test_user_cannot_forge_domain_additions(self, testbed, alice):
        """A user self-asserting the hint gains nothing: the assertion's
        issuer (the user) is not a certificate the verifier associates
        with a BB, and the attribute merge only accepts assertions that
        verify against chain certificates — the user's own self-signed
        claim DOES verify (her cert is introduced), so defense must come
        from policy inspecting issuers.  Here we check the narrower
        guarantee: an assertion signed by a *rogue* key is ignored."""
        from repro.crypto.keys import SimulatedScheme
        from repro.policy.attributes import make_assertion
        import random as _random

        rogue = SimulatedScheme().generate(_random.Random(99))
        forged = make_assertion(
            issuer=testbed.brokers["A"].dn,  # claims to be BB-A
            issuer_key=rogue.private,        # ...but signed by a rogue key
            subject=alice.dn,
            attributes={"te_class": "gold"},
        )
        testbed.set_policy(
            "C", "If Attribute(te_class) = gold\n    Return GRANT\nReturn DENY"
        )
        request = testbed.make_request(
            source="A", destination="C", bandwidth_mbps=10.0
        )
        # The forged assertion fails signature verification against BB-A's
        # real certificate, so te_class never materialises at C.
        outcome = testbed.hop_by_hop.reserve(alice, request, assertions=[forged])
        assert not outcome.granted
        assert outcome.denial_domain == "C"
