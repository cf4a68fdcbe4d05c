"""Adversarial tests: on-path tampering, revocation, depth policy — the
protocol under attack rather than in the happy path."""

import pytest

from repro.core.envelope import seal
from repro.core.messages import F_RES_SPEC
from repro.core.testbed import build_linear_testbed
from repro.crypto.truststore import TrustPolicy
from repro.errors import HandshakeError


@pytest.fixture()
def testbed():
    return build_linear_testbed(["A", "B", "C"])


@pytest.fixture()
def alice(testbed):
    return testbed.add_user("A", "Alice")


class TestOnPathTampering:
    def test_tampered_rate_detected_downstream(self, testbed, alice):
        """An on-path attacker between B and C inflates the reserved rate;
        C's transitive-trust verification must catch it and deny."""
        channel = testbed.channels.between(
            testbed.brokers["B"].dn, testbed.brokers["C"].dn
        )

        def inflate(message):
            spec = message.get(F_RES_SPEC)
            if spec is None:
                # An inner RAR holds the spec; tamper with the inner layer.
                inner = message.get("inner_rar")
                if inner is not None:
                    forged_inner = inflate(inner)
                    return message.with_tampered_field("inner_rar", forged_inner)
                return message
            bigger = spec.with_attributes(injected=True)
            return message.with_tampered_field(F_RES_SPEC, bigger)

        channel.tamper_hook = inflate
        outcome = testbed.reserve(
            alice, source="A", destination="C", bandwidth_mbps=10.0
        )
        assert not outcome.granted
        assert outcome.denial_domain == "C"
        assert "trust verification failed" in outcome.denial_reason
        # The partial path (A, B) was rolled back.
        assert testbed.brokers["A"].admission.schedule("egress:B").load_at(1.0) == 0.0

    def test_replaced_envelope_rejected(self, testbed, alice):
        """The attacker substitutes a wholly self-made message: the outer
        signature no longer matches the channel peer."""
        mallory_key = testbed.brokers["A"].keypair  # reuse a key object shape
        channel = testbed.channels.between(
            testbed.brokers["A"].dn, testbed.brokers["B"].dn
        )

        def replace(message):
            return seal(
                {"type": "rar", "res_spec": None},
                signer=alice.dn,
                key=alice.keypair.private,
            )

        channel.tamper_hook = replace
        outcome = testbed.reserve(
            alice, source="A", destination="C", bandwidth_mbps=10.0
        )
        assert not outcome.granted
        assert outcome.denial_domain == "B"

    def test_tampering_before_source_bb_detected(self, testbed, alice):
        channel = testbed.channels.between(alice.dn, testbed.brokers["A"].dn)

        def shrink_rate(message):
            if not hasattr(message, "with_tampered_field"):
                return message
            spec = message.get(F_RES_SPEC)
            if spec is None:
                return message
            return message.with_tampered_field(
                F_RES_SPEC, spec.with_attributes(smuggled=True)
            )

        channel.tamper_hook = shrink_rate
        outcome = testbed.reserve(
            alice, source="A", destination="C", bandwidth_mbps=10.0
        )
        assert not outcome.granted
        assert outcome.denial_domain == "A"


FIG6_C = (
    "If Issued_by(Capability) = ESnet\n"
    "    Return GRANT\n"
    "Return DENY"
)


class TestRevocation:
    def test_capability_revoked_at_the_cas_after_a_grant(
        self, testbed, alice
    ):
        """Granted, revoked at the CAS, asked again: the destination's
        §6.5 checks consult the CAS on every request, so the same
        credential that just admitted is refused — and only its holder."""
        testbed.set_policy("C", FIG6_C)
        cas = testbed.add_cas("ESnet")
        bob = testbed.add_user("A", "Bob")
        for user in (alice, bob):
            cas.grant(user.dn, ["member"])
            user.grid_login(cas)

        def reserve(user):
            return testbed.reserve(
                user, source="A", destination="C", bandwidth_mbps=5.0
            )

        assert reserve(alice).granted and reserve(bob).granted
        cas.revoke_credential(alice.credentials["ESnet"].certificate)
        refused = reserve(alice)
        assert not refused.granted
        assert refused.denial_domain == "C"
        assert reserve(bob).granted

    def test_user_revoked_at_the_ca_after_a_grant(self, testbed, alice):
        ca = testbed.domain_cas["A"]
        for broker in testbed.brokers.values():
            broker.truststore.add_revocation_checker(ca.is_revoked)
        assert testbed.reserve(
            alice, source="A", destination="C", bandwidth_mbps=5.0
        ).granted
        ca.revoke(alice.certificate.serial)
        refused = testbed.reserve(
            alice, source="A", destination="C", bandwidth_mbps=5.0
        )
        assert not refused.granted
        assert refused.denial_domain == "A"

    def test_revoked_user_cannot_reserve(self, testbed, alice):
        ca = testbed.domain_cas["A"]
        bb_a = testbed.brokers["A"]
        bb_a.truststore.add_revocation_checker(ca.is_revoked)
        ca.revoke(alice.certificate.serial)
        # The user channel already exists; verification consults the
        # trust store again and must now refuse the peer certificate.
        outcome = testbed.reserve(
            alice, source="A", destination="C", bandwidth_mbps=10.0
        )
        assert not outcome.granted
        assert outcome.denial_domain == "A"
        assert "not directly trusted" in outcome.denial_reason

    def test_unrevoked_user_unaffected(self, testbed, alice):
        ca = testbed.domain_cas["A"]
        testbed.brokers["A"].truststore.add_revocation_checker(ca.is_revoked)
        bob = testbed.add_user("A", "Bob")
        ca.revoke(bob.certificate.serial)
        outcome = testbed.reserve(
            alice, source="A", destination="C", bandwidth_mbps=10.0
        )
        assert outcome.granted

    def test_revoked_peer_blocks_new_channels(self, testbed):
        ca = testbed.domain_cas["B"]
        bb_b = testbed.brokers["B"]
        bb_c = testbed.brokers["C"]
        bb_c.truststore.add_revocation_checker(ca.is_revoked)
        # C currently trusts B's certificate contractually; after B's CA
        # revokes it, a fresh handshake must fail.
        ca.revoke(bb_b.certificate.serial)
        # Simulate a re-handshake by removing the cached peer entry.
        bb_c.truststore._peers.pop(bb_b.dn)
        from repro.core.channel import SecureChannel

        with pytest.raises(HandshakeError):
            SecureChannel(bb_c, bb_b)


class TestDepthPolicyEndToEnd:
    def test_strict_destination_rejects_long_chain(self, alice=None):
        """A 5-domain chain with a destination whose trust policy caps the
        introduction depth at 2: the request dies at the destination."""
        tb = build_linear_testbed(
            ["A", "B", "C", "D", "E"],
            trust_policy=TrustPolicy(
                max_introduction_depth=2, require_ca_issued_peers=False
            ),
        )
        user = tb.add_user("A", "Alice")
        outcome = tb.reserve(
            user, source="A", destination="E", bandwidth_mbps=1.0
        )
        assert not outcome.granted
        # Depth 2 allows verification at C (user at depth 2) but D already
        # sees depth 3.
        assert outcome.denial_domain == "D"
        assert "depth" in outcome.denial_reason

    def test_relaxed_policy_accepts(self):
        tb = build_linear_testbed(
            ["A", "B", "C", "D", "E"],
            trust_policy=TrustPolicy(
                max_introduction_depth=4, require_ca_issued_peers=False
            ),
        )
        user = tb.add_user("A", "Alice")
        outcome = tb.reserve(
            user, source="A", destination="E", bandwidth_mbps=1.0
        )
        assert outcome.granted


class TestChannelHygiene:
    def test_endpointless_transmit_rejected(self, testbed, alice):
        from repro.errors import ChannelError

        channel = testbed.channels.between(
            testbed.brokers["A"].dn, testbed.brokers["B"].dn
        )
        with pytest.raises(ChannelError):
            channel.transmit(alice.dn, "hi")
        with pytest.raises(ChannelError):
            channel.peer_certificate(alice.dn)

    def test_channel_without_certificates_rejected(self, testbed, alice):
        from repro.core.agent import UserAgent
        from repro.core.channel import SecureChannel

        bare = UserAgent(
            "/O=Grid/OU=A/CN=Bare", "A", scheme="simulated"
        )
        with pytest.raises(HandshakeError):
            SecureChannel(bare, testbed.brokers["A"])
