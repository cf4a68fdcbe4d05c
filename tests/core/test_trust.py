"""Tests for transitive-trust verification of nested RARs (paper §6.4).

The fixture builds the paper's exact scenario by hand: user U in domain A,
brokers BB-A, BB-B, BB-C with per-domain CAs, contractual (SLA) trust only
between *adjacent* brokers, and the message chain

    RAR_U = sign_U({res_spec, DN_BBA, caps...})
    RAR_A = sign_BBA({RAR_U, cert_U, DN_BBB, ...})
    RAR_B = sign_BBB({RAR_A, cert_A, DN_BBC, ...})

verified at BB-C, which has no direct trust relationship with BB-A or U.
"""

import random

import pytest

from repro.bb.reservations import ReservationRequest
from repro.core.messages import make_bb_rar, make_user_rar
from repro.core.trust import verify_rar, verify_rar_with_repository
from repro.crypto.dn import DN
from repro.crypto.keys import RSAScheme, SimulatedScheme
from repro.crypto.repository import CertificateRepository
from repro.crypto.truststore import TrustPolicy, TrustStore
from repro.crypto.x509 import CertificateAuthority
from repro.errors import (
    ChainTooDeepError,
    IntroductionError,
    MalformedMessageError,
    SignallingError,
    TamperedMessageError,
)
from tests.core._oracle import nested_bb_rar

ALICE = DN.make("Grid", "A", "Alice")
BB = {d: DN.make("Grid", d, f"BB-{d}") for d in "ABC"}


def build_world():
    """Keys, certificates, and trust stores for the 3-domain chain."""
    rng = random.Random(42)
    scheme = SimulatedScheme()
    cas = {
        d: CertificateAuthority(DN.make("Grid", d, f"CA-{d}"), rng=rng,
                                scheme="simulated")
        for d in "ABC"
    }
    keys, certs = {}, {}
    for d in "ABC":
        kp, cert = cas[d].issue_keypair(BB[d])
        keys[d] = kp
        certs[d] = cert
    alice_keys, alice_cert = cas["A"].issue_keypair(ALICE)

    stores = {}
    for d in "ABC":
        store = TrustStore(TrustPolicy(require_ca_issued_peers=False))
        store.add_anchor(cas[d].certificate)
        stores[d] = store
    # Contractual trust between adjacent brokers only.
    stores["A"].add_introduced_peer(certs["B"])
    stores["B"].add_introduced_peer(certs["A"])
    stores["B"].add_introduced_peer(certs["C"])
    stores["C"].add_introduced_peer(certs["B"])

    return {
        "cas": cas,
        "keys": keys,
        "certs": certs,
        "stores": stores,
        "alice_keys": alice_keys,
        "alice_cert": alice_cert,
    }


@pytest.fixture(scope="module")
def world():
    return build_world()


def request():
    return ReservationRequest(
        source_host="h0.A",
        destination_host="h0.C",
        source_domain="A",
        destination_domain="C",
        rate_mbps=10.0,
        start=0.0,
        end=3600.0,
    )


def build_chain(world, wrap_a=make_bb_rar, wrap_b=make_bb_rar):
    """RAR_U, RAR_A and RAR_B, each BB layer built by its *wrap*."""
    rar_u = make_user_rar(
        request=request(), source_bb=BB["A"], user=ALICE,
        user_key=world["alice_keys"].private,
    )
    rar_a = wrap_a(
        inner=rar_u, introduced_cert=world["alice_cert"], downstream=BB["B"],
        bb=BB["A"], bb_key=world["keys"]["A"].private,
    )
    rar_b = wrap_b(
        inner=rar_a, introduced_cert=world["certs"]["A"], downstream=BB["C"],
        bb=BB["B"], bb_key=world["keys"]["B"].private,
    )
    return rar_u, rar_a, rar_b


class TestHappyPath:
    def test_destination_verifies_full_chain(self, world):
        _, _, rar_b = build_chain(world)
        result = verify_rar(
            rar_b,
            verifier=BB["C"],
            peer_certificate=world["certs"]["B"],
            truststore=world["stores"]["C"],
        )
        assert result.user == ALICE
        assert result.request.rate_mbps == 10.0
        assert result.path == (ALICE, BB["A"], BB["B"])
        assert result.depth == 2
        assert result.user_certificate == world["alice_cert"]
        # Introductions seen: cert_A (by BB_B) and cert_U (by BB_A).
        assert {c.subject for c in result.introduced} == {ALICE, BB["A"]}

    def test_intermediate_verifies_shorter_chain(self, world):
        _, rar_a, _ = build_chain(world)
        result = verify_rar(
            rar_a,
            verifier=BB["B"],
            peer_certificate=world["certs"]["A"],
            truststore=world["stores"]["B"],
        )
        assert result.path == (ALICE, BB["A"])
        assert result.depth == 1

    def test_source_verifies_user_rar(self, world):
        rar_u, _, _ = build_chain(world)
        result = verify_rar(
            rar_u,
            verifier=BB["A"],
            peer_certificate=world["alice_cert"],
            truststore=world["stores"]["A"],
        )
        assert result.path == (ALICE,)
        assert result.depth == 0
        assert result.user_certificate is None


class TestTamperDetection:
    def test_modified_res_spec_detected(self, world):
        rar_u, _, _ = build_chain(world)
        bigger = request().with_attributes(note="x")
        forged_u = rar_u.with_tampered_field("res_spec", bigger)
        # Rebuild the outer layers around the forged inner one (an on-path
        # BB_B trying to alter the user's request).
        rar_a = make_bb_rar(
            inner=forged_u, introduced_cert=world["alice_cert"],
            downstream=BB["B"], bb=BB["A"], bb_key=world["keys"]["A"].private,
        )
        rar_b = make_bb_rar(
            inner=rar_a, introduced_cert=world["certs"]["A"], downstream=BB["C"],
            bb=BB["B"], bb_key=world["keys"]["B"].private,
        )
        with pytest.raises(TamperedMessageError):
            verify_rar(
                rar_b, verifier=BB["C"],
                peer_certificate=world["certs"]["B"],
                truststore=world["stores"]["C"],
            )

    def test_outer_tamper_detected(self, world):
        _, _, rar_b = build_chain(world)
        forged = rar_b.with_tampered_field("downstream_dn", BB["C"])
        # Same value, but payload tuple rebuilt -> same; use different field.
        forged = rar_b.with_tampered_field("assertions", ("evil",))
        with pytest.raises(TamperedMessageError):
            verify_rar(
                forged, verifier=BB["C"],
                peer_certificate=world["certs"]["B"],
                truststore=world["stores"]["C"],
            )

    def test_wrong_peer_claimed(self, world):
        _, _, rar_b = build_chain(world)
        with pytest.raises(IntroductionError, match="channel peer"):
            verify_rar(
                rar_b, verifier=BB["C"],
                peer_certificate=world["certs"]["A"],  # not the actual signer
                truststore=world["stores"]["C"],
            )

    def test_untrusted_peer(self, world):
        _, _, rar_b = build_chain(world)
        empty_store = TrustStore(TrustPolicy(require_ca_issued_peers=False))
        with pytest.raises(IntroductionError, match="not.*directly trusted"):
            verify_rar(
                rar_b, verifier=BB["C"],
                peer_certificate=world["certs"]["B"],
                truststore=empty_store,
            )

    def test_misaddressed_message(self, world):
        _, rar_a, _ = build_chain(world)
        # BB_C receives a message addressed to BB_B.
        store = world["stores"]["C"]
        store.add_introduced_peer(world["certs"]["A"])
        try:
            with pytest.raises(IntroductionError, match="addressed"):
                verify_rar(
                    rar_a, verifier=BB["C"],
                    peer_certificate=world["certs"]["A"],
                    truststore=store,
                )
        finally:
            store._peers.pop(BB["A"], None)

    def test_missing_introduction(self, world):
        rar_u, _, _ = build_chain(world)
        # BB_A "forgets" to introduce the user certificate.
        rar_a = make_bb_rar(
            inner=rar_u, introduced_cert=world["alice_cert"], downstream=BB["B"],
            bb=BB["A"], bb_key=world["keys"]["A"].private,
        )
        stripped = rar_a.with_tampered_field("introduced_cert", None)
        # Re-sign so only the introduction is missing, not the signature.
        from repro.core.envelope import seal

        payload = {k: stripped.get(k) for k in stripped.keys()}
        payload["introduced_cert"] = None
        resigned = seal(payload, signer=BB["A"], key=world["keys"]["A"].private)
        with pytest.raises(IntroductionError, match="introduces no certificate"):
            verify_rar(
                resigned, verifier=BB["B"],
                peer_certificate=world["certs"]["A"],
                truststore=world["stores"]["B"],
            )

    def test_substituted_user_key_detected(self, world):
        """BB_A introduces a certificate for a *different* key than the one
        that signed the user RAR: signature check must fail."""
        rng = random.Random(7)
        mallory_keys = SimulatedScheme().generate(rng)
        rar_u = make_user_rar(
            request=request(), source_bb=BB["A"], user=ALICE,
            user_key=mallory_keys.private,  # signed with Mallory's key
        )
        rar_a = make_bb_rar(
            inner=rar_u, introduced_cert=world["alice_cert"],  # Alice's real cert
            downstream=BB["B"], bb=BB["A"], bb_key=world["keys"]["A"].private,
        )
        with pytest.raises(TamperedMessageError):
            verify_rar(
                rar_a, verifier=BB["B"],
                peer_certificate=world["certs"]["A"],
                truststore=world["stores"]["B"],
            )


class TestOneSpellingPerLayer:
    """The append chain is the one accepted spelling of a BB layer.  A
    layer in the paper's nested shape (built by the test oracle) wraps
    a RAR without a chain link: it is refused as malformed, not as
    tampered, since a retransmission cannot repair a shape."""

    @pytest.mark.parametrize("wrap_a, wrap_b", [
        pytest.param(nested_bb_rar, nested_bb_rar, id="nested-chain"),
        pytest.param(nested_bb_rar, make_bb_rar, id="nested-inner-layer"),
        pytest.param(make_bb_rar, nested_bb_rar, id="nested-outer-layer"),
    ])
    @pytest.mark.parametrize("mode", ["introduction", "repository"])
    def test_nested_layer_is_refused(self, world, wrap_a, wrap_b, mode):
        _, _, rar_b = build_chain(world, wrap_a, wrap_b)
        check = dict(
            verifier=BB["C"], peer_certificate=world["certs"]["B"],
            truststore=world["stores"]["C"],
        )
        if mode == "repository":
            repository = CertificateRepository()
            for cert in (world["alice_cert"], *world["certs"].values()):
                repository.publish(cert)
            check.update(repository=repository)
        verify = verify_rar if mode == "introduction" else \
            verify_rar_with_repository
        with pytest.raises(MalformedMessageError, match="without a chain link"):
            verify(rar_b, **check)


class TestPolicyKnobs:
    def test_depth_limit_enforced(self, world):
        _, _, rar_b = build_chain(world)
        strict = TrustStore(
            TrustPolicy(max_introduction_depth=1, require_ca_issued_peers=False)
        )
        strict.add_introduced_peer(world["certs"]["B"])
        with pytest.raises(ChainTooDeepError):
            verify_rar(
                rar_b, verifier=BB["C"],
                peer_certificate=world["certs"]["B"],
                truststore=strict,
            )

    def test_depth_2_sufficient(self, world):
        _, _, rar_b = build_chain(world)
        ok = TrustStore(
            TrustPolicy(max_introduction_depth=2, require_ca_issued_peers=False)
        )
        ok.add_introduced_peer(world["certs"]["B"])
        assert verify_rar(
            rar_b, verifier=BB["C"],
            peer_certificate=world["certs"]["B"],
            truststore=ok,
        ).depth == 2

    def test_secure_scheme_policy(self, world):
        """An RSA-only verifier rejects simulated-scheme chains."""
        _, _, rar_b = build_chain(world)
        strict = TrustStore(
            TrustPolicy(require_secure_scheme=True, require_ca_issued_peers=False)
        )
        strict.add_introduced_peer(world["certs"]["B"])
        with pytest.raises(IntroductionError, match="scheme"):
            verify_rar(
                rar_b, verifier=BB["C"],
                peer_certificate=world["certs"]["B"],
                truststore=strict,
            )


class TestWorldChangesBetweenVerifications:
    """A verdict is a function of the message, the truststore and the
    clock *now*: the same bytes that verified a moment ago are refused,
    with the error a first-time verification raises, as soon as a
    signer is revoked, a certificate lapses, the peer stops being
    trusted or the depth policy tightens — with nothing told to the
    verifier in between."""

    @pytest.fixture()
    def fresh(self):
        world = build_world()
        for ca in world["cas"].values():
            world["stores"]["C"].add_revocation_checker(ca.is_revoked)
        return world

    def verify_at_c(self, world, at_time=0.0):
        _, _, rar_b = build_chain(world)
        return verify_rar(
            rar_b, verifier=BB["C"],
            peer_certificate=world["certs"]["B"],
            truststore=world["stores"]["C"],
            at_time=at_time,
        )

    @pytest.mark.parametrize("domain, which, message", [
        ("A", lambda w: w["alice_cert"], "Alice has been revoked"),
        ("A", lambda w: w["certs"]["A"], "BB-A has been revoked"),
        ("B", lambda w: w["certs"]["B"], "not directly trusted"),
    ], ids=["user", "introduced-broker", "channel-peer"])
    def test_revoked_at_the_ca(self, fresh, domain, which, message):
        assert self.verify_at_c(fresh).user == ALICE
        fresh["cas"][domain].revoke(which(fresh).serial)
        with pytest.raises(IntroductionError, match=message):
            self.verify_at_c(fresh)

    def test_clock_passes_not_after(self, fresh):
        assert self.verify_at_c(fresh).depth == 2
        beyond = fresh["alice_cert"].not_after + 1.0
        with pytest.raises(IntroductionError, match="not directly trusted"):
            self.verify_at_c(fresh, at_time=beyond)

    def test_introduced_certificate_lapses_first(self, fresh):
        short_lived = fresh["cas"]["A"].issue(
            ALICE, fresh["alice_keys"].public, not_after=100.0
        )
        fresh["alice_cert"] = short_lived
        assert self.verify_at_c(fresh, at_time=100.0).user == ALICE
        with pytest.raises(IntroductionError, match="Alice not valid at"):
            self.verify_at_c(fresh, at_time=100.5)

    def test_peer_no_longer_directly_trusted(self, fresh):
        assert self.verify_at_c(fresh).user == ALICE
        fresh["stores"]["C"]._peers.pop(BB["B"])
        with pytest.raises(IntroductionError, match="not directly trusted"):
            self.verify_at_c(fresh)

    def test_depth_policy_lowered(self, fresh):
        assert self.verify_at_c(fresh).depth == 2
        fresh["stores"]["C"].policy = TrustPolicy(
            max_introduction_depth=1, require_ca_issued_peers=False
        )
        with pytest.raises(ChainTooDeepError):
            self.verify_at_c(fresh)


class TestRSAEndToEnd:
    def test_full_chain_with_real_rsa(self, keypool):
        """The whole transitive-trust walk with genuine RSA signatures."""
        rng = random.Random(3)
        ca = CertificateAuthority(
            DN.make("Grid", "A", "CA"), keypair=keypool[0], scheme="rsa"
        )
        alice_kp = keypool[1]
        alice_cert = ca.issue(ALICE, alice_kp.public)
        bb_a_kp = keypool[2]
        bb_a_cert = ca.issue(BB["A"], bb_a_kp.public)
        bb_b_kp = keypool[3]
        bb_b_cert = ca.issue(BB["B"], bb_b_kp.public)

        rar_u = make_user_rar(
            request=request(), source_bb=BB["A"], user=ALICE,
            user_key=alice_kp.private,
        )
        rar_a = make_bb_rar(
            inner=rar_u, introduced_cert=alice_cert, downstream=BB["B"],
            bb=BB["A"], bb_key=bb_a_kp.private,
        )
        store = TrustStore(TrustPolicy(require_ca_issued_peers=False))
        store.add_introduced_peer(bb_a_cert)
        result = verify_rar(
            rar_a, verifier=BB["B"], peer_certificate=bb_a_cert,
            truststore=store,
        )
        assert result.user == ALICE
