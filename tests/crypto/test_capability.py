"""Tests for capability certificates and cascaded delegation (paper §6.5)."""

import random

import pytest

from repro.crypto.capability import (
    ProxyCredential,
    capability_set,
    check_possession,
    delegate,
    is_capability_certificate,
    issue_capability,
    prove_possession,
    restriction_set,
    verify_delegation_chain,
)
from repro.crypto.dn import DN
from repro.crypto.keys import SimulatedScheme
from repro.errors import DelegationError

CAS_DN = DN.make("Grid", "ESnet", "CAS")
USER_DN = DN.make("Grid", "DomainA", "Alice")
BB_A = DN.make("Grid", "DomainA", "BB-A")
BB_B = DN.make("Grid", "DomainB", "BB-B")
BB_C = DN.make("Grid", "DomainC", "BB-C")

SCHEME = SimulatedScheme()


@pytest.fixture()
def cas_key(rng):
    return SCHEME.generate(rng)


@pytest.fixture()
def bb_keys(rng):
    return {dn: SCHEME.generate(rng) for dn in (BB_A, BB_B, BB_C)}


@pytest.fixture()
def user_cred(cas_key, rng):
    return issue_capability(
        issuer=CAS_DN,
        issuer_signing_key=cas_key.private,
        subject=USER_DN,
        capabilities=["ESnet:member"],
        serial=1,
        rng=rng,
        scheme="simulated",
    )


def build_chain(user_cred, bb_keys, *, restriction="valid-for:RAR-1"):
    """User -> BB_A -> BB_B -> BB_C, as in Figure 7."""
    cert_a = delegate(
        user_cred,
        delegate_subject=BB_A,
        delegate_public_key=bb_keys[BB_A].public,
        extra_restrictions=[restriction],
    )
    cred_a = ProxyCredential(cert_a, bb_keys[BB_A].private)
    cert_b = delegate(
        cred_a, delegate_subject=BB_B, delegate_public_key=bb_keys[BB_B].public
    )
    cred_b = ProxyCredential(cert_b, bb_keys[BB_B].private)
    cert_c = delegate(
        cred_b, delegate_subject=BB_C, delegate_public_key=bb_keys[BB_C].public
    )
    return [user_cred.certificate, cert_a, cert_b, cert_c]


class TestIssuance:
    def test_issue_sets_flag_and_caps(self, user_cred):
        cert = user_cred.certificate
        assert is_capability_certificate(cert)
        assert capability_set(cert) == {"ESnet:member"}
        assert restriction_set(cert) == frozenset()

    def test_subject_cn_tagged(self, user_cred):
        assert "(capability)" in user_cred.certificate.subject.common_name

    def test_untagged_subject(self, cas_key, rng):
        cred = issue_capability(
            issuer=CAS_DN,
            issuer_signing_key=cas_key.private,
            subject=USER_DN,
            capabilities=["x"],
            serial=2,
            rng=rng,
            scheme="simulated",
            tag_subject=False,
        )
        assert cred.certificate.subject == USER_DN

    def test_empty_capabilities_rejected(self, cas_key, rng):
        with pytest.raises(DelegationError):
            issue_capability(
                issuer=CAS_DN,
                issuer_signing_key=cas_key.private,
                subject=USER_DN,
                capabilities=[],
                serial=3,
                rng=rng,
                scheme="simulated",
            )

    def test_holder_possesses_proxy_key(self, user_cred):
        nonce = b"challenge-123"
        proof = prove_possession(user_cred.private_key, nonce)
        assert check_possession(user_cred.certificate, nonce, proof)

    def test_possession_fails_for_other_key(self, user_cred, rng):
        other = SCHEME.generate(rng)
        proof = prove_possession(other.private, b"nonce")
        assert not check_possession(user_cred.certificate, b"nonce", proof)


class TestDelegation:
    def test_delegate_subject_and_key(self, user_cred, bb_keys):
        cert_a = delegate(
            user_cred,
            delegate_subject=BB_A,
            delegate_public_key=bb_keys[BB_A].public,
        )
        assert cert_a.subject == BB_A
        assert cert_a.public_key == bb_keys[BB_A].public
        assert cert_a.issuer == user_cred.certificate.subject

    def test_delegation_signed_with_proxy_key(self, user_cred, bb_keys):
        cert_a = delegate(
            user_cred,
            delegate_subject=BB_A,
            delegate_public_key=bb_keys[BB_A].public,
        )
        # The proxy public key is in the parent certificate.
        assert cert_a.verify_signature(user_cred.certificate.public_key)

    def test_restrictions_accumulate(self, user_cred, bb_keys):
        chain = build_chain(user_cred, bb_keys)
        assert restriction_set(chain[1]) == {"valid-for:RAR-1"}
        assert restriction_set(chain[3]) == {"valid-for:RAR-1"}

    def test_capabilities_copied(self, user_cred, bb_keys):
        chain = build_chain(user_cred, bb_keys)
        for cert in chain:
            assert capability_set(cert) == {"ESnet:member"}

    def test_drop_capability(self, cas_key, bb_keys, rng):
        cred = issue_capability(
            issuer=CAS_DN,
            issuer_signing_key=cas_key.private,
            subject=USER_DN,
            capabilities=["a", "b"],
            serial=4,
            rng=rng,
            scheme="simulated",
        )
        cert = delegate(
            cred,
            delegate_subject=BB_A,
            delegate_public_key=bb_keys[BB_A].public,
            drop_capabilities=["b"],
        )
        assert capability_set(cert) == {"a"}

    def test_dropping_everything_rejected(self, user_cred, bb_keys):
        with pytest.raises(DelegationError):
            delegate(
                user_cred,
                delegate_subject=BB_A,
                delegate_public_key=bb_keys[BB_A].public,
                drop_capabilities=["ESnet:member"],
            )

    def test_delegate_requires_capability_cert(self, bb_keys, cas_key, rng):
        from repro.crypto.x509 import sign_certificate

        plain = sign_certificate(
            serial=9,
            issuer=CAS_DN,
            subject=USER_DN,
            public_key=cas_key.public,
            signing_key=cas_key.private,
        )
        cred = ProxyCredential(plain, cas_key.private)
        with pytest.raises(DelegationError):
            delegate(
                cred,
                delegate_subject=BB_A,
                delegate_public_key=bb_keys[BB_A].public,
            )


class TestChainVerification:
    def trusted(self, cas_key):
        return {CAS_DN: cas_key.public}

    def test_figure7_chain_verifies(self, user_cred, bb_keys, cas_key):
        chain = build_chain(user_cred, bb_keys)
        result = verify_delegation_chain(
            chain,
            trusted_issuers=self.trusted(cas_key),
            possession_nonce=b"n0",
            possession_prover=lambda n: prove_possession(bb_keys[BB_C].private, n),
        )
        assert result.capabilities == {"ESnet:member"}
        assert result.restrictions == {"valid-for:RAR-1"}
        assert result.holders[-1] == BB_C
        assert result.issuer == CAS_DN
        assert len(result.holders) == 4

    def test_untrusted_issuer_rejected(self, user_cred, bb_keys, rng):
        chain = build_chain(user_cred, bb_keys)
        rogue = SCHEME.generate(rng)
        with pytest.raises(DelegationError, match="not trusted"):
            verify_delegation_chain(
                chain, trusted_issuers={DN.make("Evil", "X", "CA"): rogue.public}
            )

    def test_wrong_issuer_key_rejected(self, user_cred, bb_keys, rng):
        chain = build_chain(user_cred, bb_keys)
        rogue = SCHEME.generate(rng)
        with pytest.raises(DelegationError, match="does not verify"):
            verify_delegation_chain(chain, trusted_issuers={CAS_DN: rogue.public})

    def test_broken_linkage_rejected(self, user_cred, bb_keys, cas_key):
        chain = build_chain(user_cred, bb_keys)
        # Remove the middle element: BB_B's cert now follows the root directly.
        bad = [chain[0], chain[2], chain[3]]
        with pytest.raises(DelegationError):
            verify_delegation_chain(bad, trusted_issuers=self.trusted(cas_key))

    def test_widened_capability_rejected(self, user_cred, bb_keys, cas_key):
        cert_a = delegate(
            user_cred,
            delegate_subject=BB_A,
            delegate_public_key=bb_keys[BB_A].public,
        )
        cred_a = ProxyCredential(cert_a, bb_keys[BB_A].private)
        # BB_A forges a wider delegation by hand.
        from repro.crypto.x509 import sign_certificate
        from repro.crypto.capability import (
            EXT_CAPABILITIES,
            EXT_CAPABILITY_FLAG,
            EXT_RESTRICTIONS,
        )

        widened = sign_certificate(
            serial=50,
            issuer=cert_a.subject,
            subject=BB_B,
            public_key=bb_keys[BB_B].public,
            signing_key=cred_a.private_key,
            extensions={
                EXT_CAPABILITY_FLAG: True,
                EXT_CAPABILITIES: ("ESnet:member", "ESnet:admin"),
                EXT_RESTRICTIONS: (),
            },
        )
        with pytest.raises(DelegationError, match="widens"):
            verify_delegation_chain(
                [user_cred.certificate, cert_a, widened],
                trusted_issuers=self.trusted(cas_key),
            )

    def test_dropped_restriction_rejected(self, user_cred, bb_keys, cas_key):
        chain = build_chain(user_cred, bb_keys)
        cred_b = ProxyCredential(chain[2], bb_keys[BB_B].private)
        from repro.crypto.x509 import sign_certificate
        from repro.crypto.capability import (
            EXT_CAPABILITIES,
            EXT_CAPABILITY_FLAG,
            EXT_RESTRICTIONS,
        )

        unrestricted = sign_certificate(
            serial=51,
            issuer=chain[2].subject,
            subject=BB_C,
            public_key=bb_keys[BB_C].public,
            signing_key=cred_b.private_key,
            extensions={
                EXT_CAPABILITY_FLAG: True,
                EXT_CAPABILITIES: ("ESnet:member",),
                EXT_RESTRICTIONS: (),  # restriction silently removed
            },
        )
        with pytest.raises(DelegationError, match="drops restrictions"):
            verify_delegation_chain(
                [chain[0], chain[1], chain[2], unrestricted],
                trusted_issuers=self.trusted(cas_key),
            )

    def test_possession_failure_rejected(self, user_cred, bb_keys, cas_key, rng):
        chain = build_chain(user_cred, bb_keys)
        impostor = SCHEME.generate(rng)
        with pytest.raises(DelegationError, match="possession"):
            verify_delegation_chain(
                chain,
                trusted_issuers=self.trusted(cas_key),
                possession_nonce=b"n1",
                possession_prover=lambda n: prove_possession(impostor.private, n),
            )

    def test_nonce_without_prover_rejected(self, user_cred, bb_keys, cas_key):
        chain = build_chain(user_cred, bb_keys)
        with pytest.raises(DelegationError):
            verify_delegation_chain(
                chain,
                trusted_issuers=self.trusted(cas_key),
                possession_nonce=b"n",
            )

    def test_empty_chain_rejected(self, cas_key):
        with pytest.raises(DelegationError):
            verify_delegation_chain([], trusted_issuers=self.trusted(cas_key))

    def test_root_only_chain(self, user_cred, cas_key):
        result = verify_delegation_chain(
            [user_cred.certificate], trusted_issuers=self.trusted(cas_key)
        )
        assert result.capabilities == {"ESnet:member"}
        assert len(result.holders) == 1

    def test_expired_element_rejected(self, cas_key, bb_keys, rng):
        cred = issue_capability(
            issuer=CAS_DN,
            issuer_signing_key=cas_key.private,
            subject=USER_DN,
            capabilities=["c"],
            serial=60,
            rng=rng,
            scheme="simulated",
            not_before=0.0,
            not_after=100.0,
        )
        cert_a = delegate(
            cred, delegate_subject=BB_A, delegate_public_key=bb_keys[BB_A].public
        )
        # Valid while the clock is inside the window; the same chain is
        # refused once it has moved past ``not_after``.
        assert verify_delegation_chain(
            [cred.certificate, cert_a],
            trusted_issuers={CAS_DN: cas_key.public},
            at_time=100.0,
        ).capabilities == {"c"}
        with pytest.raises(DelegationError, match="not valid"):
            verify_delegation_chain(
                [cred.certificate, cert_a],
                trusted_issuers={CAS_DN: cas_key.public},
                at_time=500.0,
            )

    @pytest.mark.parametrize("position", range(4))
    def test_element_revoked_after_a_verdict_is_rejected(
        self, user_cred, bb_keys, cas_key, position
    ):
        """The oracle is asked on every verification: a chain that just
        verified stops verifying the moment any element is revoked."""
        chain = build_chain(user_cred, bb_keys)
        revoked = set()

        def verify():
            return verify_delegation_chain(
                chain,
                trusted_issuers=self.trusted(cas_key),
                revocation_checker=lambda cert: cert.fingerprint in revoked,
            )

        assert verify().holders[-1] == BB_C
        revoked.add(chain[position].fingerprint)
        with pytest.raises(DelegationError, match="revoked"):
            verify()


class TestSplitChains:
    def test_single_chain_preserved(self, user_cred, bb_keys, cas_key):
        from tests.crypto._oracle import split_capability_chains

        chain = build_chain(user_cred, bb_keys)
        assert split_capability_chains(chain) == [tuple(chain)]

    def test_two_communities_separate(self, cas_key, bb_keys, rng):
        from tests.crypto._oracle import split_capability_chains

        other_cas = SCHEME.generate(rng)
        cred_a = issue_capability(
            issuer=CAS_DN, issuer_signing_key=cas_key.private,
            subject=USER_DN, capabilities=["ESnet:member"],
            serial=1, rng=rng, scheme="simulated",
        )
        cred_b = issue_capability(
            issuer=DN.make("Grid", "GEANT", "CAS"),
            issuer_signing_key=other_cas.private,
            subject=USER_DN, capabilities=["GEANT:member"],
            serial=2, rng=rng, scheme="simulated",
        )
        # Both delegated to BB_A (same actual key), then BB_A delegates
        # both to BB_B — the ambiguous case the splitter must untangle.
        deleg_a1 = delegate(cred_a, delegate_subject=BB_A,
                            delegate_public_key=bb_keys[BB_A].public)
        deleg_b1 = delegate(cred_b, delegate_subject=BB_A,
                            delegate_public_key=bb_keys[BB_A].public)
        deleg_a2 = delegate(ProxyCredential(deleg_a1, bb_keys[BB_A].private),
                            delegate_subject=BB_B,
                            delegate_public_key=bb_keys[BB_B].public)
        deleg_b2 = delegate(ProxyCredential(deleg_b1, bb_keys[BB_A].private),
                            delegate_subject=BB_B,
                            delegate_public_key=bb_keys[BB_B].public)
        flat = [cred_a.certificate, deleg_a1, cred_b.certificate, deleg_b1,
                deleg_a2, deleg_b2]
        chains = split_capability_chains(flat)
        assert len(chains) == 2
        by_caps = {next(iter(capability_set(c[0]))): c for c in chains}
        assert [cert.subject for cert in by_caps["ESnet:member"][1:]] == [
            BB_A, BB_B
        ]
        assert [cert.subject for cert in by_caps["GEANT:member"][1:]] == [
            BB_A, BB_B
        ]
        # Each split chain verifies independently.
        verify_delegation_chain(
            list(by_caps["ESnet:member"]),
            trusted_issuers={CAS_DN: cas_key.public},
        )
        verify_delegation_chain(
            list(by_caps["GEANT:member"]),
            trusted_issuers={DN.make("Grid", "GEANT", "CAS"): other_cas.public},
        )

    def test_unrelated_cert_starts_new_chain(self, user_cred, cas_key, rng):
        from tests.crypto._oracle import split_capability_chains

        other = issue_capability(
            issuer=DN.make("Grid", "X", "CAS"),
            issuer_signing_key=SCHEME.generate(rng).private,
            subject=DN.make("Grid", "B", "Bob"),
            capabilities=["X:thing"], serial=9, rng=rng, scheme="simulated",
        )
        chains = split_capability_chains(
            [user_cred.certificate, other.certificate]
        )
        assert len(chains) == 2

    def test_empty(self):
        from tests.crypto._oracle import split_capability_chains

        assert split_capability_chains([]) == []


class TestChainReordering:
    def test_swapped_middle_delegations_rejected(self, user_cred, bb_keys,
                                                 cas_key):
        """An attacker reordering the middle of the cascade breaks the
        issuer/subject linkage and is rejected."""
        chain = build_chain(user_cred, bb_keys)
        swapped = [chain[0], chain[2], chain[1], chain[3]]
        with pytest.raises(DelegationError):
            verify_delegation_chain(
                swapped, trusted_issuers={CAS_DN: cas_key.public}
            )

    def test_truncated_chain_still_valid_prefix(self, user_cred, bb_keys,
                                                cas_key):
        """Dropping the tail yields a shorter but still valid chain — the
        holder is then BB_B, not BB_C (replay by an intermediate is
        possession-limited, which is why check 5 exists)."""
        chain = build_chain(user_cred, bb_keys)
        result = verify_delegation_chain(
            chain[:3], trusted_issuers={CAS_DN: cas_key.public}
        )
        assert result.holders[-1] == BB_B
        # ...but BB_C cannot prove possession for that chain.
        with pytest.raises(DelegationError, match="possession"):
            verify_delegation_chain(
                chain[:3],
                trusted_issuers={CAS_DN: cas_key.public},
                possession_nonce=b"x",
                possession_prover=lambda n: prove_possession(
                    bb_keys[BB_C].private, n
                ),
            )
