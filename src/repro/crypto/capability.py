"""Capability certificates and Neuman-style cascaded delegation.

Section 6.5 of the paper describes how a capability issued by a Community
Authorization Server (CAS) travels hop-by-hop to the end domain:

* The CAS issues the user a *capability certificate*: subject is the user
  (CN-tagged as a capability subject), the subject public key is a fresh
  **proxy key** whose private half the user holds, and the X.509v3
  extension field carries the capability attributes (e.g. "all
  capabilities of the ESnet group").
* To delegate, the current holder mints a new capability certificate whose
  subject is the delegate and whose subject public key is the delegate's
  *existing* public key (known from the SSL handshake — no new key pair is
  created).  The extensions are copied and may only be **narrowed** by
  additional restrictions such as ``valid for RAR``.  The new certificate
  is signed with the private key matching the public key in the *previous*
  certificate (the cascaded-authorization rule of Neuman [19]).
* The end domain submits the whole chain to a policy engine, which runs
  the seven checks the paper enumerates.  :func:`verify_delegation_chain`
  implements checks 1–6 (issuance, every signing-key linkage, proof of
  possession by the final holder, and tamper detection on the capability
  sets); check 7 — actually *using* the capabilities for authorization —
  is the policy engine's job (:mod:`repro.policy`).
"""

from __future__ import annotations

import logging
import random
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from repro.crypto import canonical
from repro.crypto.dn import DistinguishedName
from repro.crypto.keys import KeyPair, PrivateKey, PublicKey, get_scheme
from repro.crypto.x509 import Certificate, sign_certificate
from repro.errors import DelegationError
from repro.obs import metrics as obs_metrics
from repro.obs.audit import ledger as obs_audit

__all__ = [
    "EXT_CAPABILITY_FLAG",
    "EXT_CAPABILITIES",
    "EXT_RESTRICTIONS",
    "ProxyCredential",
    "issue_capability",
    "delegate",
    "DelegationResult",
    "RevocationOracle",
    "verify_delegation_chain",
    "split_capability_chains",
    "prove_possession",
    "check_possession",
    "capability_set",
    "restriction_set",
    "is_capability_certificate",
]

#: Extension keys used on capability certificates ("Capability Certificate
#: Flag" and the attribute payload in the paper's Figure 7).
EXT_CAPABILITY_FLAG = "capability_certificate_flag"
EXT_CAPABILITIES = "capabilities"
EXT_RESTRICTIONS = "restrictions"

#: CN suffix marking a subject DN as a capability subject ("potentially
#: modified to indicate that this is a capability certificate").
CAPABILITY_CN_TAG = " (capability)"

logger = logging.getLogger(__name__)

#: Buckets for delegation-chain lengths (certificates per chain).
_CHAIN_LENGTH_BUCKETS = (1.0, 2.0, 4.0, 8.0, 16.0)


@dataclass(frozen=True)
class ProxyCredential:
    """What a capability holder possesses: the certificate naming it as the
    subject plus the private key matching the certificate's subject public
    key.  Holding the private key is what makes delegation (and proof of
    possession) possible."""

    certificate: Certificate
    private_key: PrivateKey

    @property
    def capabilities(self) -> frozenset[str]:
        return capability_set(self.certificate)

    @property
    def restrictions(self) -> frozenset[str]:
        return restriction_set(self.certificate)


def capability_set(cert: Certificate) -> frozenset[str]:
    """The capability strings carried by *cert* (empty when absent)."""
    return frozenset(cert.extension(EXT_CAPABILITIES, ()))


def restriction_set(cert: Certificate) -> frozenset[str]:
    """The restriction strings carried by *cert* (empty when absent)."""
    return frozenset(cert.extension(EXT_RESTRICTIONS, ()))


def is_capability_certificate(cert: Certificate) -> bool:
    return bool(cert.extension(EXT_CAPABILITY_FLAG, False))


def issue_capability(
    *,
    issuer: DistinguishedName,
    issuer_signing_key: PrivateKey,
    subject: DistinguishedName,
    capabilities: Iterable[str],
    serial: int,
    rng: random.Random,
    scheme: str = "rsa",
    not_before: float = 0.0,
    not_after: float = 10 * 365 * 24 * 3600.0,
    tag_subject: bool = True,
) -> ProxyCredential:
    """Issue a fresh capability certificate with a new proxy key pair.

    This is what a CAS does at "grid-login": the returned credential's
    private key is handed to the user; the certificate can be shown to
    anyone.
    """
    caps = tuple(sorted(set(capabilities)))
    if not caps:
        raise DelegationError("a capability certificate needs at least one capability")
    proxy: KeyPair = get_scheme(scheme).generate(rng)
    subject_dn = subject
    if tag_subject:
        cn = subject.common_name or "capability-subject"
        subject_dn = subject.with_cn(cn + CAPABILITY_CN_TAG)
    cert = sign_certificate(
        serial=serial,
        issuer=issuer,
        subject=subject_dn,
        public_key=proxy.public,
        signing_key=issuer_signing_key,
        not_before=not_before,
        not_after=not_after,
        extensions={
            EXT_CAPABILITY_FLAG: True,
            EXT_CAPABILITIES: caps,
            EXT_RESTRICTIONS: (),
        },
    )
    return ProxyCredential(certificate=cert, private_key=proxy.private)


def delegate(
    holder: ProxyCredential,
    *,
    delegate_subject: DistinguishedName,
    delegate_public_key: PublicKey,
    extra_restrictions: Iterable[str] = (),
    drop_capabilities: Iterable[str] = (),
    serial: int | None = None,
) -> Certificate:
    """Delegate *holder*'s capability to a new subject.

    The new certificate is signed with the holder's private proxy key, its
    subject public key is the delegate's existing key (per the paper, the
    key learned in the SSL handshake), capabilities may only shrink and
    restrictions may only grow.  Returns the new capability certificate;
    the delegate's :class:`ProxyCredential` pairs it with the delegate's
    own private key.
    """
    parent = holder.certificate
    if not is_capability_certificate(parent):
        raise DelegationError("cannot delegate: parent is not a capability certificate")
    caps = capability_set(parent) - frozenset(drop_capabilities)
    if not caps:
        raise DelegationError("delegation would drop every capability")
    restrictions = restriction_set(parent) | frozenset(extra_restrictions)
    cert = sign_certificate(
        serial=parent.serial if serial is None else serial,
        issuer=parent.subject,
        subject=delegate_subject,
        public_key=delegate_public_key,
        signing_key=holder.private_key,
        not_before=parent.not_before,
        not_after=parent.not_after,
        extensions={
            EXT_CAPABILITY_FLAG: True,
            EXT_CAPABILITIES: tuple(sorted(caps)),
            EXT_RESTRICTIONS: tuple(sorted(restrictions)),
        },
    )
    registry = obs_metrics.get_registry()
    if registry is not None:
        registry.counter(
            "delegations_total", "Capability delegations minted",
        ).inc()
    logger.debug(
        "delegated %d capabilities from %s to %s",
        len(caps), parent.subject, delegate_subject,
    )
    return cert


# ---------------------------------------------------------------------------
# Proof of possession
# ---------------------------------------------------------------------------

_POSSESSION_CONTEXT = "repro.capability.possession"


def prove_possession(private_key: PrivateKey, nonce: bytes) -> bytes:
    """Sign a verifier-chosen nonce, proving possession of *private_key*."""
    scheme = get_scheme(private_key.scheme)
    return scheme.sign(private_key, canonical.encode([_POSSESSION_CONTEXT, nonce]))


def check_possession(cert: Certificate, nonce: bytes, proof: bytes) -> bool:
    """Verify a proof produced by :func:`prove_possession` against the
    subject public key of *cert*."""
    scheme = get_scheme(cert.public_key.scheme)
    return scheme.verify(
        cert.public_key, canonical.encode([_POSSESSION_CONTEXT, nonce]), proof
    )


# ---------------------------------------------------------------------------
# Chain verification — the paper's seven checks (1–6 here, 7 in repro.policy)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DelegationResult:
    """Outcome of a successful chain verification.

    ``capabilities`` is the *effective* (most-narrowed) capability set,
    ``restrictions`` the union of all restrictions accumulated along the
    chain, and ``holders`` the subjects in delegation order (user first).
    """

    capabilities: frozenset[str]
    restrictions: frozenset[str]
    holders: tuple[DistinguishedName, ...]
    issuer: DistinguishedName


def _note_chain_checks(chain: Sequence[Certificate]) -> None:
    """Note each chain certificate plus a summary delegation check into
    the audit pending buffer."""
    for cert in chain:
        obs_audit.note_check(
            "capability_certificate",
            subject=str(cert.subject),
            fingerprint=cert.fingerprint,
            source="fresh",
        )
    obs_audit.note_check(
        "delegation",
        subject=(
            f"{chain[0].issuer} -> {chain[-1].subject}" if chain else ""
        ),
        fingerprint=chain[-1].fingerprint if chain else "",
        source="fresh",
        detail=f"chain length {len(chain)}",
    )


PossessionProver = Callable[[bytes], bytes]

#: Oracle answering "is this certificate revoked right now?" — typically
#: a CA's :meth:`~repro.crypto.x509.CertificateAuthority.is_revoked` or a
#: truststore's aggregate checker.
RevocationOracle = Callable[[Certificate], bool]


def verify_delegation_chain(
    chain: Sequence[Certificate],
    *,
    trusted_issuers: dict[DistinguishedName, PublicKey],
    at_time: float = 0.0,
    possession_nonce: bytes | None = None,
    possession_prover: PossessionProver | None = None,
    revocation_checker: RevocationOracle | None = None,
) -> DelegationResult:
    """Verify a capability delegation chain, root (CAS-issued) first.

    Implements checks 1–6 from Section 6.5:

    1. a trusted issuer (CAS) issued the root capability certificate;
    2. each delegation was signed with the private key matching the public
       (proxy) key of the *previous* certificate — for the first hop this
       proves the user could use the private proxy key, for later hops it
       proves each BB's delegation;
    3. + 4. (the same linkage rule applied at every subsequent hop);
    5. when a nonce and prover are supplied, the final holder proves
       possession of the private key matching the final certificate;
    6. the capability payload was never widened and restrictions were
       never removed along the chain.

    *revocation_checker*, when supplied, additionally rejects any chain
    element the oracle reports as revoked.

    Raises :class:`~repro.errors.DelegationError` on any violation.
    """
    try:
        result = _verify_delegation_chain_metered(
            chain,
            trusted_issuers=trusted_issuers,
            at_time=at_time,
            possession_nonce=possession_nonce,
            possession_prover=possession_prover,
            revocation_checker=revocation_checker,
        )
    except DelegationError as exc:
        obs_audit.note_check(
            "delegation",
            fingerprint=chain[-1].fingerprint if chain else "",
            verdict="rejected",
            source="fresh",
            detail=str(exc),
        )
        raise
    if obs_audit.get_ledger() is not None:
        _note_chain_checks(chain)
    return result


def _verify_delegation_chain_metered(
    chain: Sequence[Certificate],
    *,
    trusted_issuers: dict[DistinguishedName, PublicKey],
    at_time: float,
    possession_nonce: bytes | None,
    possession_prover: PossessionProver | None,
    revocation_checker: RevocationOracle | None,
) -> DelegationResult:
    registry = obs_metrics.get_registry()
    if registry is None:
        return _verify_delegation_chain_impl(
            chain,
            trusted_issuers=trusted_issuers,
            at_time=at_time,
            possession_nonce=possession_nonce,
            possession_prover=possession_prover,
            revocation_checker=revocation_checker,
        )
    timer = registry.histogram(
        "delegation_chain_verify_seconds",
        "Wall-clock cost of one delegation-chain verification",
    )
    try:
        with timer.time():
            result = _verify_delegation_chain_impl(
                chain,
                trusted_issuers=trusted_issuers,
                at_time=at_time,
                possession_nonce=possession_nonce,
                possession_prover=possession_prover,
                revocation_checker=revocation_checker,
            )
    except DelegationError as exc:
        registry.counter(
            "delegation_chain_verifications_total",
            "Capability delegation-chain verifications, by result",
        ).inc(result="fail")
        logger.debug("delegation chain rejected: %s", exc)
        raise
    registry.counter(
        "delegation_chain_verifications_total",
        "Capability delegation-chain verifications, by result",
    ).inc(result="ok")
    registry.histogram(
        "delegation_chain_length",
        "Certificates per verified delegation chain",
        buckets=_CHAIN_LENGTH_BUCKETS,
    ).observe(len(chain))
    return result


def _verify_delegation_chain_impl(
    chain: Sequence[Certificate],
    *,
    trusted_issuers: dict[DistinguishedName, PublicKey],
    at_time: float = 0.0,
    possession_nonce: bytes | None = None,
    possession_prover: PossessionProver | None = None,
    revocation_checker: RevocationOracle | None = None,
) -> DelegationResult:
    if not chain:
        raise DelegationError("empty delegation chain")

    if revocation_checker is not None:
        for idx, cert in enumerate(chain):
            if revocation_checker(cert):
                raise DelegationError(
                    f"chain element {idx} ({cert.subject}, serial "
                    f"{cert.serial}) has been revoked"
                )

    root = chain[0]
    if not is_capability_certificate(root):
        raise DelegationError("root certificate lacks the capability flag")
    # Check 1: trusted issuance of the root.
    issuer_key = trusted_issuers.get(root.issuer)
    if issuer_key is None:
        raise DelegationError(f"capability issuer {root.issuer} is not trusted")
    if not root.verify_signature(issuer_key):
        raise DelegationError(
            f"root capability signature does not verify under issuer {root.issuer}"
        )

    caps = capability_set(root)
    restrictions = restriction_set(root)
    holders = [root.subject]

    prev = root
    for idx, cert in enumerate(chain[1:], start=1):
        if not is_capability_certificate(cert):
            raise DelegationError(f"chain element {idx} lacks the capability flag")
        if not cert.valid_at(at_time):
            raise DelegationError(
                f"chain element {idx} ({cert.subject}) not valid at t={at_time}"
            )
        if cert.issuer != prev.subject:
            raise DelegationError(
                f"chain element {idx} names issuer {cert.issuer}, expected the "
                f"previous subject {prev.subject}"
            )
        # Checks 2–4: signed with the key matching the previous certificate's
        # subject public key (the proxy-key cascade).
        if not cert.verify_signature(prev.public_key):
            raise DelegationError(
                f"delegation to {cert.subject} was not signed with the proxy key "
                f"of {prev.subject}"
            )
        # Check 6: capability sets may only narrow; restrictions only grow.
        child_caps = capability_set(cert)
        if not child_caps <= caps:
            raise DelegationError(
                f"delegation to {cert.subject} widens capabilities: "
                f"{sorted(child_caps - caps)}"
            )
        if not child_caps:
            raise DelegationError(f"delegation to {cert.subject} carries no capabilities")
        child_restrictions = restriction_set(cert)
        if not restrictions <= child_restrictions:
            raise DelegationError(
                f"delegation to {cert.subject} drops restrictions: "
                f"{sorted(restrictions - child_restrictions)}"
            )
        caps = child_caps
        restrictions = child_restrictions
        holders.append(cert.subject)
        prev = cert

    if not root.valid_at(at_time):
        raise DelegationError(f"root capability not valid at t={at_time}")

    # Check 5: proof of possession by the final holder.
    if possession_nonce is not None:
        if possession_prover is None:
            raise DelegationError("possession nonce supplied without a prover")
        proof = possession_prover(possession_nonce)
        if not check_possession(chain[-1], possession_nonce, proof):
            raise DelegationError(
                f"final holder failed proof of possession for {chain[-1].subject}"
            )

    return DelegationResult(
        capabilities=frozenset(caps),
        restrictions=frozenset(restrictions),
        holders=tuple(holders),
        issuer=root.issuer,
    )


def split_capability_chains(
    certs: Sequence[Certificate],
) -> list[tuple[Certificate, ...]]:
    """Partition a flat capability-certificate list into delegation chains.

    A user may hold credentials from several communities; all their
    certificates travel together in the RAR.  Each certificate attaches to
    the chain whose current tip it chains from — issuer DN matches the
    tip's subject *and* the signature verifies under the tip's (proxy)
    public key (the only reliable discriminator when one holder delegates
    several communities to the same next hop).  Certificates that chain
    from nothing seen so far start new chains (the CAS-issued roots).
    """
    chains: list[list[Certificate]] = []
    for cert in certs:
        attached = False
        for chain in chains:
            tip = chain[-1]
            if (
                cert.issuer == tip.subject
                and capability_set(cert) <= capability_set(tip)
                and cert.verify_signature(tip.public_key)
            ):
                chain.append(cert)
                attached = True
                break
        if not attached:
            chains.append([cert])
    return [tuple(chain) for chain in chains]
