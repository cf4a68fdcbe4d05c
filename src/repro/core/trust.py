"""Transitive-trust verification of nested RAR messages (paper §6.4).

A bandwidth broker receiving ``RAR_N`` over a mutually authenticated
channel can verify:

* the outermost signature — the channel peer's certificate is known (SLA
  + handshake), so this is direct trust;
* every inner signature — each layer *introduces* the certificate of the
  next-inner signer (``cert_N`` inside ``RAR_{N+1}``), forming a web of
  trust: "this web of trust allows each domain to access a list of key
  introducers when deciding whether to accept the public key stored in
  the certificate";
* path consistency — every layer names the DN of the BB it was sent to
  (``DN_BB_{N+2}``), so the verifier can trace the exact path the request
  took and confirm it terminates at itself;
* its own security policy — "checking its own security policy which might
  limit the depth of an acceptable trust chain" — via the verifier's
  :class:`~repro.crypto.truststore.TrustPolicy`.

The result of :func:`verify_rar` is everything the BB's policy server
needs: the authenticated user, the original request, the collected
capability chain (in delegation order, ready for the §6.5 checks), the
assertions added along the path, and the traced path itself.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Sequence, TypeVar

from repro.bb.reservations import ReservationRequest
from repro.crypto.dn import DistinguishedName
from repro.crypto.repository import CertificateRepository
from repro.crypto.truststore import TrustStore
from repro.crypto.x509 import Certificate
from repro.core.envelope import SignedEnvelope
from repro.core.messages import (
    F_ASSERTIONS,
    F_CAPABILITY_CERTS,
    F_DOWNSTREAM,
    F_INTRODUCED_CERT,
    F_RES_SPEC,
    unwrap_rar_layers,
)
from repro.errors import (
    ChainTooDeepError,
    IntroductionError,
    MalformedMessageError,
    ReproError,
)
from repro.obs.audit import ledger as obs_audit
from repro.policy.attributes import SignedAssertion

__all__ = ["VerifiedRAR", "verify_rar", "verify_rar_with_repository"]

logger = logging.getLogger(__name__)

_T = TypeVar("_T")


def _note_rar_checks(
    verified: "VerifiedRAR", peer_certificate: Certificate
) -> None:
    """Note every certificate this verification vouched for, plus a
    summary trust check, into the audit pending buffer (nothing when no
    ledger is on)."""
    if obs_audit.get_ledger() is None:
        return
    for cert in (peer_certificate, *verified.introduced):
        obs_audit.note_check(
            "certificate",
            subject=str(cert.subject),
            fingerprint=cert.fingerprint,
            source="fresh",
        )
    obs_audit.note_check(
        "rar_trust",
        subject=str(verified.user),
        fingerprint=peer_certificate.fingerprint,
        source="fresh",
        detail=f"depth {verified.depth}",
    )


@dataclass(frozen=True)
class VerifiedRAR:
    """Outcome of successful transitive-trust verification."""

    #: The authenticated originating user.
    user: DistinguishedName
    #: The user's identity certificate (introduced by the source BB), when
    #: the chain is longer than the bare user RAR.
    user_certificate: Certificate | None
    #: The original reservation specification, exactly as the user signed it.
    request: ReservationRequest
    #: Signers from the user outward: (user, BB_source, ..., BB_previous).
    path: tuple[DistinguishedName, ...]
    #: Capability certificates in delegation order (CAS-issued first).
    capability_chain: tuple[Certificate, ...]
    #: All signed assertions collected along the path.
    assertions: tuple[SignedAssertion, ...]
    #: Introduction depth of the innermost (user) signature.
    depth: int
    #: Certificates introduced along the way, by subject (the "list of key
    #: introducers" a later tunnel handshake can draw on).
    introduced: tuple[Certificate, ...]


def verify_rar(
    rar: SignedEnvelope,
    *,
    verifier: DistinguishedName,
    peer_certificate: Certificate,
    truststore: TrustStore,
    at_time: float = 0.0,
) -> VerifiedRAR:
    """Verify a RAR chain received from the holder of *peer_certificate*
    over a mutually authenticated channel.

    Raises :class:`~repro.errors.TamperedMessageError` on any signature
    or link failure, :class:`~repro.errors.MalformedMessageError` on a
    chain of the wrong shape (:func:`~repro.core.messages.unwrap_rar_layers`),
    :class:`~repro.errors.IntroductionError` on broken introductions or
    path inconsistencies, and :class:`~repro.errors.ChainTooDeepError`
    when the verifier's trust policy rejects the introduction depth.
    """
    return _verify(
        rar,
        verifier=verifier,
        peer_certificate=peer_certificate,
        truststore=truststore,
        at_time=at_time,
        repository=None,
    )


def verify_rar_with_repository(
    rar: SignedEnvelope,
    *,
    verifier: DistinguishedName,
    peer_certificate: Certificate,
    truststore: TrustStore,
    repository: CertificateRepository,
    at_time: float = 0.0,
) -> tuple[VerifiedRAR, int]:
    """Verify a nested RAR resolving inner-signer keys from a trusted
    certificate *repository* instead of in-request introductions.

    This is the paper's §6.4 alternative 2 ("secure LDAP"), implemented so
    the key-distribution ablation compares real code paths.  The RAR may
    omit introduced certificates entirely; each inner signer's key is
    fetched by DN.  Requires "a strong trust relationship with the
    repository" — here, the caller choosing to pass one.

    A fetched key passes the same validity, revocation and
    signature-scheme policy as an introduced one: what local policy
    forbids is forbidden however the key arrived.
    ``max_introduction_depth`` alone does not apply — a repository key
    is vouched for by the repository, not introduced through the chain.

    Returns ``(verified, lookups)`` where *lookups* is the number of
    repository queries this verification performed.
    """
    queries_before = repository.queries
    verified = _verify(
        rar,
        verifier=verifier,
        peer_certificate=peer_certificate,
        truststore=truststore,
        at_time=at_time,
        repository=repository,
    )
    return verified, repository.queries - queries_before


def _verify(
    rar: SignedEnvelope,
    *,
    verifier: DistinguishedName,
    peer_certificate: Certificate,
    truststore: TrustStore,
    at_time: float,
    repository: CertificateRepository | None,
) -> VerifiedRAR:
    """One full walk with its audit notes."""
    try:
        verified = _walk_layers(
            rar,
            verifier=verifier,
            peer_certificate=peer_certificate,
            truststore=truststore,
            at_time=at_time,
            repository=repository,
        )
    except ReproError as exc:
        logger.debug(
            "RAR verification failed (%s): %s",
            "introduction" if repository is None else "repository", exc,
        )
        obs_audit.note_check(
            "rar_trust",
            fingerprint=peer_certificate.fingerprint,
            verdict="rejected",
            source="fresh",
            detail=str(exc) if repository is None else f"repository: {exc}",
        )
        raise
    _note_rar_checks(verified, peer_certificate)
    return verified


def _require_signer_acceptable(
    cert: Certificate, truststore: TrustStore, at_time: float
) -> None:
    """Raise unless local policy and the clock accept *cert* as a
    signer's key right now."""
    if not truststore.scheme_acceptable(cert.public_key):
        raise IntroductionError(
            f"signature scheme of {cert.subject} violates local policy"
        )
    if not cert.valid_at(at_time):
        raise IntroductionError(
            f"certificate for {cert.subject} not valid at t={at_time}"
        )
    if truststore.is_revoked(cert):
        raise IntroductionError(
            f"certificate for {cert.subject} has been revoked"
        )


def _introduced_certificate(
    layer: SignedEnvelope,
    inner_signer: DistinguishedName,
    depth: int,
    truststore: TrustStore,
) -> Certificate:
    """The key source of §6.4 alternative 1: *layer* carries the
    certificate of the next-inner signer, vouched for by *layer*'s
    (already verified) signature.  *depth* is the introduction depth
    that key would be accepted at."""
    cert = layer.get(F_INTRODUCED_CERT)
    if cert is None:
        raise IntroductionError(
            f"layer signed by {layer.signer} introduces no certificate for "
            f"inner signer {inner_signer}"
        )
    if not isinstance(cert, Certificate):
        raise IntroductionError("introduced certificate field is malformed")
    if cert.subject != inner_signer:
        raise IntroductionError(
            f"introduced certificate names {cert.subject}, inner layer is "
            f"signed by {inner_signer}"
        )
    if not truststore.depth_acceptable(depth):
        raise ChainTooDeepError(
            f"introduction depth {depth} exceeds local trust policy "
            f"(max {truststore.policy.max_introduction_depth})"
        )
    return cert


def _collected(
    layer: SignedEnvelope, field: str, item_type: type[_T]
) -> Sequence[_T]:
    """What *layer* adds under *field*.  The layer's signature is valid,
    which says who wrote the field, not that it holds what its name
    promises: anything but a sequence of *item_type* is refused here,
    before the §6.5 checks or the policy server read it."""
    items = layer.get(field, ())
    if not isinstance(items, (tuple, list)) or not all(
        isinstance(item, item_type) for item in items
    ):
        raise IntroductionError(f"{field} field is malformed")
    return items


def _walk_layers(
    rar: SignedEnvelope,
    *,
    verifier: DistinguishedName,
    peer_certificate: Certificate,
    truststore: TrustStore,
    at_time: float,
    repository: CertificateRepository | None,
) -> VerifiedRAR:
    """The §6.4 walk, outermost layer inward.  *repository* is the key
    source for every signer below the channel peer: ``None`` takes the
    certificate each layer introduces, otherwise the key is looked up
    by the signer's DN."""
    layers = unwrap_rar_layers(rar)

    # Layer 0 (outermost) must be signed by the channel peer: direct trust.
    outer = layers[0]
    if outer.signer != peer_certificate.subject:
        raise IntroductionError(
            f"outermost RAR signed by {outer.signer}, but the channel peer is "
            f"{peer_certificate.subject}"
        )
    if not truststore.accepts_directly(peer_certificate, at_time=at_time):
        raise IntroductionError(
            f"channel peer certificate {peer_certificate.subject} is not "
            f"directly trusted"
        )
    if outer.get(F_DOWNSTREAM) != verifier:
        raise IntroductionError(
            f"outermost RAR is addressed to {outer.get(F_DOWNSTREAM)}, "
            f"not to verifier {verifier}"
        )

    signer_cert = peer_certificate
    capability_chain: list[Certificate] = []
    assertions: list[SignedAssertion] = []
    #: Certificates accepted below the peer's, outermost first; the
    #: last one is the user's.
    vouched: list[Certificate] = []

    for depth, layer in enumerate(layers):
        _require_signer_acceptable(signer_cert, truststore, at_time)
        layer.require_valid(signer_cert.public_key)

        # Collect what this layer adds.  Capability certificates appear
        # outermost-last in delegation order, so prepend.
        capability_chain[:0] = _collected(layer, F_CAPABILITY_CERTS, Certificate)
        assertions[:0] = _collected(layer, F_ASSERTIONS, SignedAssertion)

        if depth + 1 == len(layers):
            break
        inner = layers[depth + 1]
        # Path consistency: the inner layer must name this layer's signer
        # as the BB it was sent to.
        if inner.get(F_DOWNSTREAM) != layer.signer:
            raise IntroductionError(
                f"path break: layer signed by {inner.signer} was addressed to "
                f"{inner.get(F_DOWNSTREAM)}, not to {layer.signer} who "
                f"forwarded it"
            )
        signer_cert = (
            _introduced_certificate(layer, inner.signer, depth + 1, truststore)
            if repository is None
            else repository.lookup(inner.signer)
        )
        vouched.append(signer_cert)

    user_layer = layers[-1]
    request = user_layer.get(F_RES_SPEC)
    if not isinstance(request, ReservationRequest):
        raise MalformedMessageError("innermost RAR carries no reservation spec")

    return VerifiedRAR(
        user=user_layer.signer,
        user_certificate=vouched[-1] if vouched else None,
        request=request,
        path=tuple(layer.signer for layer in reversed(layers)),
        capability_chain=tuple(capability_chain),
        assertions=tuple(assertions),
        depth=len(layers) - 1,
        introduced=tuple(vouched),
    )
