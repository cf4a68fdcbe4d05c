"""Integration tests: the ingress defense gate and malformed envelopes.

Covers the two ingress-facing robustness guarantees:

* a byzantine peer's malformed deliveries (truncated payload, corrupted
  field tag, garbage bytes, non-envelope objects) come back as *typed
  denials* with a ReasonCode — never as a raw decode exception escaping
  :meth:`HopByHopProtocol.process_ingress`;
* a *validly signed* layer whose collected fields (capability
  certificates, assertions) hold something else is refused at the trust
  boundary the same way, before the §6.5 checks or the policy server
  read them;
* a validly signed message of the wrong *shape* (a user layer without a
  reservation spec, a chain deeper than the nesting limit, a non-RAR or
  non-envelope inner layer, a layer in the paper's nested shape instead
  of the append chain) is a trust failure too, never a link outage;
* a peer that introduces a certificate whose key material is not
  well-formed for its scheme gets a trust failure: signature
  verification answers False, it never raises;
* the replay guard rejects a replayed signed envelope **before**
  signature verification spends anything (``verified`` stays False and
  the protocol's verification counter does not move) — and a replay
  *re-spelled* into different bytes never gets past decode, because the
  decoder accepts one byte string per message.
"""

import pytest

from repro.bb.defense import DefensePolicy
from repro.core.codec import from_wire, pack, to_wire
from repro.core.envelope import chain_link_digest, seal
from repro.core.hopbyhop import WORK_DECODE, WORK_GATE, WORK_VERIFY
from repro.core.messages import (
    F_ASSERTIONS,
    F_CAPABILITY_CERTS,
    F_RES_SPEC,
    make_bb_rar,
    make_denial,
    make_user_rar,
)
from repro.core.testbed import build_linear_testbed
from repro.crypto import canonical
from repro.crypto.keys import PublicKey
from repro.obs.audit import RecordKind, use_ledger
from repro.obs.events import ReasonCode
from tests.core._oracle import nested_bb_rar
from tests.crypto._oracle import wide_exponent_key


@pytest.fixture()
def testbed():
    return build_linear_testbed(["A", "B"])


def bobs_rar(testbed):
    """One well-formed signed user RAR entering at B, and its signer —
    one of B's own users, directly trusted at the source hop."""
    user = testbed.add_user("B", "Bob")
    request = testbed.make_request(
        source="B", destination="A", bandwidth_mbps=5.0,
        start=0.0, duration=60.0,
    )
    envelope = make_user_rar(
        request=request,
        source_bb=testbed.brokers["B"].dn,
        user=user.dn,
        user_key=user.keypair.private,
    )
    return envelope, user


@pytest.fixture()
def captured_wire(testbed):
    """:func:`bobs_rar` as wire bytes: the original verifies and is
    accepted — which is exactly the envelope a replay attack captures."""
    envelope, user = bobs_rar(testbed)
    return to_wire(envelope), user


class TestMalformedIngress:
    """Satellite (b): malformed envelopes produce typed denials."""

    @pytest.mark.parametrize("mutate", [
        pytest.param(lambda wire: wire[:12], id="truncated-payload"),
        pytest.param(
            lambda wire: bytes([wire[0] ^ 0xFF]) + wire[1:],
            id="corrupted-field-tag",
        ),
        pytest.param(lambda wire: b"\x00" * 64, id="garbage-bytes"),
        # Decodable, but nothing to verify it against: refused at decode
        # cost rather than accepted unverified.
        pytest.param(lambda wire: wire, id="well-formed-without-certificate"),
    ])
    def test_malformed_wire_is_typed_denial(
        self, testbed, captured_wire, mutate
    ):
        wire, _ = captured_wire
        report = testbed.hop_by_hop.process_ingress(
            "B", mutate(wire), peer="CN=BB-evil", at_time=0.0,
        )
        assert not report.accepted
        assert not report.verified
        assert report.reason_code == ReasonCode.TRUST_FAILURE.value
        assert report.reason
        assert report.work_units == WORK_DECODE

    def test_non_envelope_object_is_typed_denial(self, testbed):
        report = testbed.hop_by_hop.process_ingress(
            "B", {"not": "an envelope"}, peer="CN=BB-evil", at_time=0.0,
        )
        assert not report.accepted
        assert report.reason_code == ReasonCode.TRUST_FAILURE.value

    def test_malformed_never_reaches_verification(
        self, testbed, captured_wire
    ):
        wire, _ = captured_wire
        before = testbed.hop_by_hop.ingress_verifications
        testbed.hop_by_hop.process_ingress(
            "B", wire[:10], peer="CN=BB-evil",
            peer_certificate=testbed.brokers["A"].certificate,
            at_time=0.0,
        )
        assert testbed.hop_by_hop.ingress_verifications == before

    def test_well_formed_wire_is_accepted(self, testbed, captured_wire):
        wire, user = captured_wire
        report = testbed.hop_by_hop.process_ingress(
            "B", wire, peer=str(user.dn),
            peer_certificate=user.certificate, at_time=0.0,
        )
        assert report.accepted
        assert report.verified
        assert report.work_units == WORK_VERIFY

    def test_accepted_message_leaves_no_audit_notes_behind(
        self, testbed, captured_wire
    ):
        """An accepted message writes no record; its verification notes
        must not ride on this thread's next denial."""
        wire, user = captured_wire
        stranger = testbed.add_user("A", "Mallory")
        with use_ledger() as ledger:
            accepted = testbed.hop_by_hop.process_ingress(
                "B", wire, peer=str(user.dn),
                peer_certificate=user.certificate, at_time=0.0,
            )
            rejected = testbed.hop_by_hop.process_ingress(
                "B", wire + b"x", peer=str(stranger.dn),
                peer_certificate=stranger.certificate, at_time=0.0,
            )
        assert accepted.accepted and not rejected.accepted
        (denial,) = ledger.records(RecordKind.DENY)
        assert denial.user == str(stranger.dn)
        assert denial.checks == ()


class TestMalformedCollectedFields:
    """A key holder signs a layer whose capability-certificate or
    assertion field is not a sequence of what its name promises."""

    @pytest.mark.parametrize("as_wire", [False, True], ids=["object", "wire"])
    @pytest.mark.parametrize("field, value", [
        pytest.param(F_CAPABILITY_CERTS, 5, id="capability_certs-int"),
        pytest.param(F_ASSERTIONS, 7, id="assertions-int"),
        pytest.param(F_CAPABILITY_CERTS, (5,), id="capability_certs-junk-item"),
        pytest.param(F_ASSERTIONS, ("x",), id="assertions-junk-item"),
    ])
    def test_signed_junk_field_is_trust_failure(
        self, testbed, field, value, as_wire
    ):
        honest, user = bobs_rar(testbed)
        payload = {key: honest.get(key) for key in honest.keys()}
        payload[field] = value
        hostile = seal(payload, signer=user.dn, key=user.keypair.private)
        report = testbed.hop_by_hop.process_ingress(
            "B", to_wire(hostile) if as_wire else hostile,
            peer=str(user.dn), peer_certificate=user.certificate,
            at_time=0.0,
        )
        assert not report.accepted
        assert report.reason_code == ReasonCode.TRUST_FAILURE.value
        assert "field is malformed" in report.reason
        # The signature had to be checked to know who wrote the field.
        assert report.work_units == WORK_VERIFY

    def test_junk_capability_certs_in_rar_u_is_denied_by_the_source(
        self, testbed
    ):
        user = testbed.add_user("A", "Mallory")
        user.delegate_capabilities_to = lambda *args, **kwargs: (5, 6)
        outcome = testbed.reserve(
            user, source="A", destination="B", bandwidth_mbps=5.0,
        )
        assert not outcome.granted
        assert outcome.denial_domain == "A"
        assert "field is malformed" in outcome.denial_reason


def _no_res_spec(testbed, a, b):
    return seal({"type": "rar", "downstream_dn": b.dn},
                signer=a.dn, key=a.keypair.private)


def _too_deep(testbed, a, b):
    rar = _no_res_spec(testbed, a, b)
    for _ in range(70):
        rar = make_bb_rar(inner=rar, introduced_cert=None, downstream=b.dn,
                          bb=a.dn, bb_key=a.keypair.private)
    return rar


def _non_rar_inner(testbed, a, b):
    denial = make_denial(domain="A", reason="no", bb=a.dn,
                         bb_key=a.keypair.private)
    return seal({"type": "rar", "inner_rar": denial,
                 "inner_digest": chain_link_digest(denial),
                 "downstream_dn": b.dn}, signer=a.dn, key=a.keypair.private)


def _non_envelope_inner(testbed, a, b):
    return seal({"type": "rar", "inner_rar": "RAR_U", "downstream_dn": b.dn},
                signer=a.dn, key=a.keypair.private)


def _nested_layer(testbed, a, b):
    """A's honest wrap of Alice's request, in the §6.4 nested shape."""
    alice = testbed.add_user("A", "Alice")
    rar_u = make_user_rar(
        request=testbed.make_request(source="A", destination="B",
                                     bandwidth_mbps=5.0),
        source_bb=a.dn, user=alice.dn, user_key=alice.keypair.private,
    )
    return nested_bb_rar(inner=rar_u, introduced_cert=alice.certificate,
                         downstream=b.dn, bb=a.dn, bb_key=a.keypair.private)


class TestStructuralRefusals:
    """B's channel peer A signs a message of the wrong shape.  The
    signature is valid, the shape is not: B denies it as a trust failure
    and records that code, where a retransmission or a link outage
    would suggest that trying again could help."""

    @pytest.mark.parametrize("build", [
        pytest.param(_no_res_spec, id="user-layer-without-res-spec"),
        pytest.param(_too_deep, id="nested-70-deep"),
        pytest.param(_non_rar_inner, id="non-rar-inner-layer"),
        pytest.param(_non_envelope_inner, id="non-envelope-inner-field"),
        pytest.param(_nested_layer, id="nested-shape-layer"),
    ])
    def test_wrong_shape_is_trust_failure(self, testbed, build):
        a, b = testbed.brokers["A"], testbed.brokers["B"]
        message = build(testbed, a, b)
        with use_ledger() as ledger:
            report = testbed.hop_by_hop.process_ingress(
                "B", message, peer=str(a.dn), peer_certificate=a.certificate,
                peer_kind="domain", at_time=0.0,
            )
        assert not report.accepted
        assert report.reason_code == ReasonCode.TRUST_FAILURE.value
        (denial,) = ledger.records(RecordKind.DENY)
        assert denial.domain == "B"
        assert denial.reason_code == ReasonCode.TRUST_FAILURE.value


class TestMalformedKeyMaterial:
    """B's channel peer A introduces Alice's certificate, but the key it
    binds is not well-formed for its scheme.  Alice signed her request
    in that scheme, with the modulus of her RSA key where one is needed,
    so B's check reaches the scheme's ``verify``: it answers False, it
    never raises, and B denies as a trust failure and records that code,
    in object and in wire form alike."""

    @pytest.mark.parametrize("as_wire", [False, True], ids=["object", "wire"])
    @pytest.mark.parametrize("scheme, material", [
        pytest.param("rsa", lambda n: (n,), id="rsa-one-element"),
        pytest.param("rsa", lambda n: (), id="rsa-empty"),
        pytest.param("rsa", lambda n: (n, 65537, 3), id="rsa-three-elements"),
        pytest.param("rsa", lambda n: (n, "3"), id="rsa-string-exponent"),
        pytest.param("simulated", lambda n: (), id="simulated-empty"),
        pytest.param("simulated", lambda n: (5,), id="simulated-int-seed"),
        pytest.param("simulated", lambda n: ("seed-ü",),
                     id="simulated-non-ascii-seed"),
    ])
    def test_malformed_material_is_trust_failure(
        self, testbed, keypool, scheme, material, as_wire
    ):
        alice = testbed.add_user("A", "Alice")
        signing = keypool[0] if scheme == "rsa" else alice.keypair
        self._assert_trust_failure(
            testbed, alice, signing.private,
            PublicKey(scheme, material(signing.public.material[0])), as_wire,
        )

    @pytest.mark.parametrize("as_wire", [False, True], ids=["object", "wire"])
    def test_rsa_wide_exponent_is_trust_failure(
        self, testbed, keypool, as_wire
    ):
        """Well-formed RSA material, and Alice's signature under it is
        correct, but its exponent is not 65 537: a verify under it would
        cost a full-width exponentiation, so B refuses it unchecked."""
        alice = testbed.add_user("A", "Alice")
        wide = wide_exponent_key(keypool[0].private)
        self._assert_trust_failure(
            testbed, alice, wide.private, wide.public, as_wire
        )

    @staticmethod
    def _assert_trust_failure(testbed, alice, signing_key, public, as_wire):
        a, b = testbed.brokers["A"], testbed.brokers["B"]
        hostile = testbed.domain_cas["A"].issue(alice.dn, public)
        rar_u = make_user_rar(
            request=testbed.make_request(source="A", destination="B",
                                         bandwidth_mbps=5.0),
            source_bb=a.dn, user=alice.dn, user_key=signing_key,
        )
        layer = make_bb_rar(inner=rar_u, introduced_cert=hostile,
                            downstream=b.dn, bb=a.dn,
                            bb_key=a.keypair.private)
        with use_ledger() as ledger:
            report = testbed.hop_by_hop.process_ingress(
                "B", to_wire(layer) if as_wire else layer, peer=str(a.dn),
                peer_certificate=a.certificate, peer_kind="domain",
                at_time=0.0,
            )
        assert not report.accepted
        assert report.reason_code == ReasonCode.TRUST_FAILURE.value
        (denial,) = ledger.records(RecordKind.DENY)
        assert denial.domain == "B"
        assert denial.reason_code == ReasonCode.TRUST_FAILURE.value


class TestReplayGuardAtIngress:
    """Acceptance: 100% of replays rejected before verification."""

    def test_replays_rejected_before_any_verification(
        self, testbed, captured_wire
    ):
        wire, user = captured_wire
        testbed.arm_defenses(DefensePolicy(
            peer_burst=1000.0, peer_rate_per_s=1000.0,
            replay_window_s=600.0,
        ))
        protocol = testbed.hop_by_hop
        original = protocol.process_ingress(
            "B", wire, peer=str(user.dn),
            peer_certificate=user.certificate, at_time=0.0,
        )
        assert original.accepted and original.verified
        verifications_after_original = protocol.ingress_verifications
        rejected = 0
        for i in range(50):
            report = protocol.process_ingress(
                "B", wire, peer=str(user.dn),
                peer_certificate=user.certificate, at_time=0.1 + i * 0.1,
            )
            assert not report.accepted
            assert not report.verified, (
                "a replayed envelope reached signature verification"
            )
            assert report.reason_code == ReasonCode.REPLAY_REJECTED.value
            assert report.work_units == WORK_GATE
            rejected += 1
        assert rejected == 50
        # The verification walk never ran again: the whole point.
        assert protocol.ingress_verifications == verifications_after_original
        assert (
            testbed.brokers["B"].defense.stats.replay_rejected == 50
        )

    @staticmethod
    def _respellings(envelope):
        """Five byte strings, none equal to ``to_wire(envelope)``, that
        the permissive reference decoder reads as *envelope*."""
        def respell(mutate):
            packed = pack(envelope)
            mutate(packed)
            return canonical.encode(packed)

        def request_of(packed):
            return dict(map(tuple, packed["payload"]))[F_RES_SPEC]

        def lower_rdns(packed):
            packed["signer"]["rdns"] = [
                [attr.lower(), value]
                for attr, value in packed["signer"]["rdns"]
            ]

        wire = to_wire(envelope)
        empty_list = canonical.encode("items") + canonical.encode([])
        empty_map = canonical.encode("items") + canonical.encode({})
        assert empty_list in wire
        return {
            "extra envelope key": respell(
                lambda p: p.update(zzz=1)),
            "extra signer dn key": respell(
                lambda p: p["signer"].update(zzz=1)),
            "lower-case RDN types": respell(lower_rdns),
            "empty L as empty M": wire.replace(empty_list, empty_map, 1),
            "service_class 46.0": respell(
                lambda p: request_of(p).update(service_class=46.0)),
        }

    def test_respelled_replays_never_reach_verification(self, testbed):
        """One signed RAR_U: delivered, replayed exactly, then replayed
        in five other spellings.  The exact copy dies at the gate; a
        re-spelling has a fresh digest, so it must die at decode — not
        buy the signature walk the replay guard exists to refuse."""
        envelope, user = bobs_rar(testbed)
        wire = to_wire(envelope)
        respellings = self._respellings(envelope)
        for name, respelled in respellings.items():
            assert respelled != wire, name
            assert from_wire(respelled) == envelope, name

        testbed.arm_defenses(DefensePolicy(
            peer_burst=1000.0, peer_rate_per_s=1000.0,
            replay_window_s=600.0,
        ))
        protocol = testbed.hop_by_hop

        def deliver(message, at_time):
            return protocol.process_ingress(
                "B", message, peer=str(user.dn),
                peer_certificate=user.certificate, at_time=at_time,
            )

        original = deliver(wire, 0.0)
        assert original.accepted and original.verified
        verifications = protocol.ingress_verifications

        replay = deliver(wire, 0.1)
        assert replay.reason_code == ReasonCode.REPLAY_REJECTED.value
        assert replay.work_units == WORK_GATE

        for step, (name, respelled) in enumerate(respellings.items()):
            report = deliver(respelled, 0.2 + 0.1 * step)
            assert not report.accepted, name
            assert report.verified is False, (
                f"{name}: a re-spelled replay reached signature "
                "verification"
            )
            assert report.reason_code == ReasonCode.TRUST_FAILURE.value, name
            assert report.work_units == WORK_DECODE, name
        assert protocol.ingress_verifications == verifications

    def test_rate_limit_rejects_with_reason_code(
        self, testbed, captured_wire
    ):
        wire, user = captured_wire
        testbed.arm_defenses(DefensePolicy(
            peer_burst=1.0, peer_rate_per_s=0.0,
        ))
        protocol = testbed.hop_by_hop
        first = protocol.process_ingress(
            "B", wire, peer=str(user.dn),
            peer_certificate=user.certificate, at_time=0.0,
        )
        assert first.accepted
        limited = protocol.process_ingress(
            "B", wire + b"x", peer=str(user.dn),
            peer_certificate=user.certificate, at_time=0.0,
        )
        assert not limited.accepted
        assert limited.reason_code == ReasonCode.RATE_LIMITED.value
        assert limited.work_units == WORK_GATE

    def test_defenses_off_replay_costs_full_verification(
        self, testbed, captured_wire
    ):
        # The contrast the defenses exist for: with no gate armed, every
        # replayed copy costs the victim another full signature walk.
        wire, user = captured_wire
        protocol = testbed.hop_by_hop
        before = protocol.ingress_verifications
        for i in range(3):
            report = protocol.process_ingress(
                "B", wire, peer=str(user.dn),
                peer_certificate=user.certificate, at_time=float(i),
            )
            assert report.verified
            assert report.work_units == WORK_VERIFY
        assert protocol.ingress_verifications == before + 3


class TestQuotaIntegration:
    """The broker's admission pipeline enforces reservation quotas."""

    def test_per_user_quota_denies_with_reason_code(self, testbed):
        testbed.arm_defenses(DefensePolicy(
            peer_burst=1000.0, peer_rate_per_s=1000.0, per_user_quota=2,
        ))
        user = testbed.add_user("A", "Hog")
        # Distinct requests (varying start), so the replay guard sees
        # fresh envelopes and the *quota* is what denies the third.
        outcomes = [
            testbed.reserve(
                user, source="A", destination="B",
                bandwidth_mbps=1.0, start=float(i), duration=600.0,
            )
            for i in range(3)
        ]
        assert outcomes[0].granted and outcomes[1].granted
        assert not outcomes[2].granted
        assert testbed.brokers["A"].defense.stats.quota_exceeded >= 1
