"""Tests for the certificate repository and repository-based RAR
verification (paper §6.4, key-distribution alternative 2)."""

import random

import pytest

from repro.bb.reservations import ReservationRequest
from repro.core.messages import make_bb_rar, make_user_rar
from repro.core.trust import verify_rar_with_repository
from repro.crypto.dn import DN
from repro.crypto.repository import CertificateRepository
from repro.crypto.truststore import TrustPolicy, TrustStore
from repro.crypto.x509 import CertificateAuthority
from repro.errors import (
    CertificateError,
    IntroductionError,
    TamperedMessageError,
)

ALICE = DN.make("Grid", "A", "Alice")
BB = {d: DN.make("Grid", d, f"BB-{d}") for d in "ABC"}


@pytest.fixture()
def world():
    rng = random.Random(12)
    ca = CertificateAuthority(DN.make("Grid", "Root", "CA"), rng=rng,
                              scheme="simulated")
    alice_kp, alice_cert = ca.issue_keypair(ALICE)
    keys, certs = {}, {}
    for d in "ABC":
        keys[d], certs[d] = ca.issue_keypair(BB[d])
    return ca, alice_kp, alice_cert, keys, certs


class TestRepository:
    def test_publish_lookup(self, world):
        _, _, alice_cert, _, _ = world
        repo = CertificateRepository()
        repo.publish(alice_cert)
        assert repo.lookup(ALICE) is alice_cert
        assert repo.queries == 1
        assert repo.total_latency_s == pytest.approx(0.002)
        assert ALICE in repo
        assert len(repo) == 1

    def test_unknown_dn_fails(self):
        repo = CertificateRepository()
        with pytest.raises(CertificateError):
            repo.lookup(ALICE)
        assert repo.queries == 1  # failed lookups still cost a round trip

    def test_withdraw(self, world):
        _, _, alice_cert, _, _ = world
        repo = CertificateRepository()
        repo.publish(alice_cert)
        repo.withdraw(ALICE)
        with pytest.raises(CertificateError):
            repo.lookup(ALICE)
        with pytest.raises(CertificateError):
            repo.withdraw(ALICE)

    def test_republish_replaces(self, world):
        ca, _, alice_cert, _, _ = world
        repo = CertificateRepository()
        repo.publish(alice_cert)
        _, new_cert = ca.issue_keypair(ALICE)
        repo.publish(new_cert)
        assert repo.lookup(ALICE) is new_cert


def request():
    return ReservationRequest(
        source_host="h0.A", destination_host="h0.C",
        source_domain="A", destination_domain="C",
        rate_mbps=10.0, start=0.0, end=3600.0,
    )


def build_bare_chain(world):
    """RARs carrying NO introduced certificates: DN references only."""
    _, alice_kp, alice_cert, keys, certs = world
    rar_u = make_user_rar(
        request=request(), source_bb=BB["A"], user=ALICE,
        user_key=alice_kp.private,
    )
    rar_a = make_bb_rar(
        inner=rar_u, introduced_cert=alice_cert, downstream=BB["B"],
        bb=BB["A"], bb_key=keys["A"].private,
    )
    rar_b = make_bb_rar(
        inner=rar_a, introduced_cert=certs["A"], downstream=BB["C"],
        bb=BB["B"], bb_key=keys["B"].private,
    )
    return rar_b


class TestRepositoryVerification:
    def make_store(self, world):
        _, _, _, _, certs = world
        store = TrustStore(TrustPolicy(require_ca_issued_peers=False))
        store.add_introduced_peer(certs["B"])
        return store

    def make_repo(self, world):
        _, _, alice_cert, _, certs = world
        repo = CertificateRepository()
        repo.publish(alice_cert)
        for cert in certs.values():
            repo.publish(cert)
        return repo

    def test_verification_via_repository(self, world):
        rar = build_bare_chain(world)
        _, _, _, _, certs = world
        verified, lookups = verify_rar_with_repository(
            rar,
            verifier=BB["C"],
            peer_certificate=certs["B"],
            truststore=self.make_store(world),
            repository=self.make_repo(world),
        )
        assert verified.user == ALICE
        assert verified.depth == 2
        # One lookup per non-peer signer: BB-A and Alice.
        assert lookups == 2

    def test_missing_cert_in_repository(self, world):
        rar = build_bare_chain(world)
        _, _, _, _, certs = world
        repo = CertificateRepository()
        repo.publish(certs["A"])  # Alice's cert missing
        with pytest.raises(CertificateError):
            verify_rar_with_repository(
                rar, verifier=BB["C"], peer_certificate=certs["B"],
                truststore=self.make_store(world), repository=repo,
            )

    def test_stale_repository_key_detected(self, world):
        """If the repository serves a *different* certificate for a signer
        (e.g. after a key rollover), the signature check fails."""
        ca, _, alice_cert, keys, certs = world
        rar = build_bare_chain(world)
        repo = self.make_repo(world)
        _, rolled = ca.issue_keypair(BB["A"])  # new key for BB-A
        repo.publish(rolled)
        with pytest.raises(TamperedMessageError):
            verify_rar_with_repository(
                rar, verifier=BB["C"], peer_certificate=certs["B"],
                truststore=self.make_store(world), repository=repo,
            )

    def test_latency_accounting(self, world):
        rar = build_bare_chain(world)
        _, _, _, _, certs = world
        repo = self.make_repo(world)
        verify_rar_with_repository(
            rar, verifier=BB["C"], peer_certificate=certs["B"],
            truststore=self.make_store(world), repository=repo,
        )
        assert repo.total_latency_s == pytest.approx(2 * 0.002)

    @pytest.mark.parametrize("require_secure_scheme", [True, False])
    def test_secure_scheme_policy_covers_fetched_keys(
        self, world, keypool, require_secure_scheme
    ):
        """A key local policy forbids is forbidden however it was
        fetched: RSA brokers, a simulated-scheme user key served by the
        repository."""
        _, alice_kp, alice_cert, _, _ = world
        rsa_ca = CertificateAuthority(
            DN.make("Grid", "Root", "RSA-CA"), keypair=keypool[0], scheme="rsa"
        )
        certs = {
            d: rsa_ca.issue(BB[d], keypool[i].public)
            for i, d in enumerate("AB", start=1)
        }
        rar_u = make_user_rar(
            request=request(), source_bb=BB["A"], user=ALICE,
            user_key=alice_kp.private,
        )
        rar_a = make_bb_rar(
            inner=rar_u, introduced_cert=alice_cert, downstream=BB["B"],
            bb=BB["A"], bb_key=keypool[1].private,
        )
        rar_b = make_bb_rar(
            inner=rar_a, introduced_cert=certs["A"], downstream=BB["C"],
            bb=BB["B"], bb_key=keypool[2].private,
        )
        repo = CertificateRepository()
        for cert in (alice_cert, certs["A"]):
            repo.publish(cert)
        store = TrustStore(TrustPolicy(
            require_secure_scheme=require_secure_scheme,
            require_ca_issued_peers=False,
        ))
        store.add_introduced_peer(certs["B"])

        def verify():
            return verify_rar_with_repository(
                rar_b, verifier=BB["C"], peer_certificate=certs["B"],
                truststore=store, repository=repo,
            )

        if require_secure_scheme:
            with pytest.raises(IntroductionError, match="scheme of .*Alice"):
                verify()
        else:
            verified, lookups = verify()
            assert (verified.user, lookups) == (ALICE, 2)
