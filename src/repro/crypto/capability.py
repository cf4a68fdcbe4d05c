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
* A BB receives the certificates of all the user's chains as one flat
  list.  :func:`verify_capability_chains` sorts them into chains and
  checks each in the same walk, verifying every link's signature once;
  the final holder's check 5 is its own (``docs/PROTOCOL.md`` §4).
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
    "CheckedChain",
    "verify_capability_chains",
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
        for prev, cert in zip(chain, chain[1:]):
            fault = _link_fault(prev, cert)
            if fault is not None:
                raise DelegationError(fault)
        result = _accept(
            chain, trusted_issuers=trusted_issuers, at_time=at_time,
            revocation_checker=revocation_checker,
        )
        # Check 5: proof of possession by the final holder.
        if possession_nonce is not None:
            if possession_prover is None:
                raise DelegationError("possession nonce supplied without a prover")
            proof = possession_prover(possession_nonce)
            if not check_possession(chain[-1], possession_nonce, proof):
                raise DelegationError(
                    f"final holder failed proof of possession for {chain[-1].subject}"
                )
    except DelegationError as exc:
        _note_rejected(chain, exc)
        raise
    if obs_audit.get_ledger() is not None:
        _note_chain_checks(chain)
    return result


@dataclass(frozen=True)
class CheckedChain:
    """One delegation chain found in a flat certificate list, with its
    verdict: the :class:`DelegationResult` when every check passed, else
    ``None`` and the reason it was rejected."""

    chain: tuple[Certificate, ...]
    result: DelegationResult | None
    reason: str = ""


def verify_capability_chains(
    certs: Sequence[Certificate],
    *,
    trusted_issuers: dict[DistinguishedName, PublicKey],
    at_time: float = 0.0,
    revocation_checker: RevocationOracle | None = None,
) -> tuple[CheckedChain, ...]:
    """Partition a flat capability-certificate list into delegation chains
    and verify each one (§6.5 checks 1–4 and 6, validity, revocation),
    verifying every link's signature once.

    A user may hold credentials from several communities; all their
    certificates travel together in the RAR.  Each certificate attaches to
    the first chain whose current tip it chains from: issuer DN matches
    the tip's subject, the capabilities do not widen, *and* the signature
    verifies under the tip's (proxy) public key — the only reliable
    discriminator when one holder delegates several communities to the
    same next hop.  That signature is checks 2–4 for the link, so it is
    not verified again.  Certificates that chain from nothing seen so far
    start new chains (the CAS-issued roots).

    A chain that fails a check is returned with ``result=None`` and the
    reason; nothing is raised.  Check 5 (possession) is the final
    holder's, and is not run here.
    """
    chains: list[list[Certificate]] = []
    for cert in certs:
        for chain in chains:
            if _link_fault(chain[-1], cert) is None:
                chain.append(cert)
                break
        else:
            chains.append([cert])
    checked = []
    for chain in chains:
        try:
            result = _accept(
                chain, trusted_issuers=trusted_issuers, at_time=at_time,
                revocation_checker=revocation_checker,
            )
        except DelegationError as exc:
            _note_rejected(chain, exc)
            checked.append(CheckedChain(tuple(chain), None, str(exc)))
            continue
        if obs_audit.get_ledger() is not None:
            _note_chain_checks(chain)
        checked.append(CheckedChain(tuple(chain), result))
    return tuple(checked)


def _note_rejected(chain: Sequence[Certificate], exc: DelegationError) -> None:
    logger.debug("delegation chain rejected: %s", exc)
    obs_audit.note_check(
        "delegation",
        fingerprint=chain[-1].fingerprint if chain else "",
        verdict="rejected",
        source="fresh",
        detail=str(exc),
    )


def _link_fault(prev: Certificate, cert: Certificate) -> str | None:
    """Why *cert* is not a delegation from *prev*'s holder, or ``None``
    when it is: it names *prev*'s subject as issuer, does not widen the
    capabilities (check 6) and is signed with the key matching *prev*'s
    subject public key (checks 2–4, the proxy-key cascade).  The
    signature is checked last, so a certificate that cannot link costs
    no verification."""
    if cert.issuer != prev.subject:
        return (
            f"{cert.subject} names issuer {cert.issuer}, expected the "
            f"previous subject {prev.subject}"
        )
    widened = capability_set(cert) - capability_set(prev)
    if widened:
        return f"delegation to {cert.subject} widens capabilities: {sorted(widened)}"
    if not cert.verify_signature(prev.public_key):
        return (
            f"delegation to {cert.subject} was not signed with the proxy key "
            f"of {prev.subject}"
        )
    return None


def _accept(
    chain: Sequence[Certificate],
    *,
    trusted_issuers: dict[DistinguishedName, PublicKey],
    at_time: float,
    revocation_checker: RevocationOracle | None,
) -> DelegationResult:
    """The checks of a chain whose links are already known to link
    (:func:`_link_fault`): revocation, check 1 on the root, and for every
    element the capability flag, validity, a non-empty capability set and
    restrictions that only grow (check 6)."""
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

    restrictions = restriction_set(root)
    for idx, cert in enumerate(chain[1:], start=1):
        if not is_capability_certificate(cert):
            raise DelegationError(f"chain element {idx} lacks the capability flag")
        if not cert.valid_at(at_time):
            raise DelegationError(
                f"chain element {idx} ({cert.subject}) not valid at t={at_time}"
            )
        if not capability_set(cert):
            raise DelegationError(f"delegation to {cert.subject} carries no capabilities")
        child_restrictions = restriction_set(cert)
        if not restrictions <= child_restrictions:
            raise DelegationError(
                f"delegation to {cert.subject} drops restrictions: "
                f"{sorted(restrictions - child_restrictions)}"
            )
        restrictions = child_restrictions

    if not root.valid_at(at_time):
        raise DelegationError(f"root capability not valid at t={at_time}")

    return DelegationResult(
        capabilities=capability_set(chain[-1]),
        restrictions=restrictions,
        holders=tuple(cert.subject for cert in chain),
        issuer=root.issuer,
    )
