"""RAR message construction — the exact composition rules of paper §6.4.

The notation from the paper, and its realization here:

* ``RAR_U = sign_pkeyU({res_spec, DN_BBA, Capability_Cert'_CAS,
  Capability_Cert'_U})`` — :func:`make_user_rar`.
* ``RAR_A = sign_pkeyBBA({RAR_U, cert_U, DN_BBB, Capability_Cert'_A})``
  and the general step ``RAR_{N+1} = sign_pkeyBB_{N+1}({RAR_N, cert_N,
  DN_BB_{N+2}, Capability_Cert'_{N+1}})`` — :func:`make_bb_rar`, whose
  signature covers ``RAR_N``'s digest link (:data:`F_INNER_DIGEST`): the
  one spelling of a layer :func:`unwrap_rar_layers` accepts.
* the approval that "propagates back to the source domain, with each
  intermediate domain referring to local SLA and SLS information",
  each BB "adds its own signed policy information" — :func:`make_approval`.
* denial propagation upstream "to inform the user of the reason for the
  denial" (§6.1) — :func:`make_denial`.

Payload field names are constants so the trust-verification code and the
tests share one vocabulary.
"""

from __future__ import annotations

from typing import Sequence

from repro.bb.reservations import ReservationRequest
from repro.crypto.dn import DistinguishedName
from repro.crypto.keys import PrivateKey
from repro.crypto.x509 import Certificate
from repro.core.envelope import (
    LINK_DIGEST_FIELD,
    SignedEnvelope,
    chain_link_digest,
    seal,
)
from repro.errors import (
    MalformedMessageError,
    SignallingError,
    TamperedMessageError,
)
from repro.policy.attributes import SignedAssertion

__all__ = [
    "F_TYPE",
    "F_RES_SPEC",
    "F_DOWNSTREAM",
    "F_CAPABILITY_CERTS",
    "F_ASSERTIONS",
    "F_INNER",
    "F_INNER_DIGEST",
    "F_INTRODUCED_CERT",
    "F_HANDLE",
    "F_HANDLES",
    "F_REASON",
    "F_DOMAIN",
    "F_POLICY_INFO",
    "F_DEADLINE",
    "F_TRACEPARENT",
    "MSG_RAR",
    "MSG_APPROVAL",
    "MSG_DENIAL",
    "make_user_rar",
    "make_bb_rar",
    "make_approval",
    "make_denial",
    "unwrap_rar_layers",
]

# Payload field names.
F_TYPE = "type"
F_RES_SPEC = "res_spec"
F_DOWNSTREAM = "downstream_dn"
F_CAPABILITY_CERTS = "capability_certs"
F_ASSERTIONS = "assertions"
F_INNER = "inner_rar"
#: Append-only chain link (:data:`repro.core.envelope.LINK_DIGEST_FIELD`):
#: SHA-256 of the inner envelope's canonical bytes.  Present on every BB
#: layer; the wrapper's signature covers this digest instead of the
#: re-encoded inner chain.  :func:`unwrap_rar_layers` refuses a layer
#: that wraps a RAR without one, and re-derives and checks the link on
#: every unwrap, so tampering any inner byte still voids the chain.
F_INNER_DIGEST = LINK_DIGEST_FIELD
F_INTRODUCED_CERT = "introduced_cert"
F_HANDLE = "handle"
F_HANDLES = "handles"
F_REASON = "reason"
F_DOMAIN = "domain"
#: Always the empty tuple in an approval: no hop attaches policy
#: information to its approval.  The field stays until the next wire
#: revision drops it.
F_POLICY_INFO = "policy_info"
#: Absolute end-to-end signalling deadline (modelled seconds).  Set by
#: the user in ``RAR_U`` and copied outward by every BB wrapper, so each
#: hop can bound its own retries by the remaining end-to-end budget.
F_DEADLINE = "deadline"
#: W3C-style trace context (``00-<trace>-<span>-01``, see
#: :mod:`repro.obs.propagation`).  Unlike :data:`F_DEADLINE` it is NOT
#: copied verbatim: each wrapping BB writes its *own* hop span id, so the
#: downstream hop's spans parent under this hop — the trace tree nests
#: exactly like the signature envelopes.  Signed like every other field,
#: so tampering with the trace context voids the envelope.
F_TRACEPARENT = "traceparent"

# Message types.
MSG_RAR = "rar"
MSG_APPROVAL = "approval"
MSG_DENIAL = "denial"


def make_user_rar(
    *,
    request: ReservationRequest,
    source_bb: DistinguishedName,
    capability_certs: Sequence[Certificate] = (),
    assertions: Sequence[SignedAssertion] = (),
    user: DistinguishedName,
    user_key: PrivateKey,
    deadline: float | None = None,
    traceparent: str | None = None,
) -> SignedEnvelope:
    """``RAR_U``: the user's signed request, naming the source-domain BB.

    ``capability_certs`` normally holds the CAS-issued capability
    certificate plus the user's delegation of it to the source BB
    (``Capability_Cert'_CAS`` and ``Capability_Cert'_U``).  ``deadline``
    (absolute, modelled seconds) bounds the whole signalling attempt;
    every wrapping BB propagates it outward.  ``traceparent`` carries
    the root span's trace context so the source BB's spans stitch into
    the user agent's trace (:data:`F_TRACEPARENT`).
    """
    payload = {
        F_TYPE: MSG_RAR,
        F_RES_SPEC: request,
        F_DOWNSTREAM: source_bb,
        F_CAPABILITY_CERTS: tuple(capability_certs),
        F_ASSERTIONS: tuple(assertions),
    }
    if deadline is not None:
        payload[F_DEADLINE] = deadline
    if traceparent is not None:
        payload[F_TRACEPARENT] = traceparent
    return seal(payload, signer=user, key=user_key)


def make_bb_rar(
    *,
    inner: SignedEnvelope,
    introduced_cert: Certificate | None,
    downstream: DistinguishedName,
    capability_certs: Sequence[Certificate] = (),
    assertions: Sequence[SignedAssertion] = (),
    bb: DistinguishedName,
    bb_key: PrivateKey,
    traceparent: str | None = None,
) -> SignedEnvelope:
    """``RAR_{N+1}``: a BB wraps the received RAR, introduces the upstream
    signer's certificate (learned in the SSL handshake), names the next
    downstream BB, and adds its own capability delegation / policy info.

    ``introduced_cert=None`` builds the certificate-free variant used under
    repository-based key distribution (§6.4 alternative 2) — verifiers then
    resolve inner-signer keys by DN instead.

    ``traceparent`` names *this* hop's span (not the upstream one — the
    trace context is rewritten at every hop, unlike the deadline, which
    is copied verbatim from the inner layer).

    The payload carries :data:`F_INNER_DIGEST`, and this BB's signature
    covers that digest *instead of* the inner envelope, so wrapping costs
    O(this layer) signature work rather than O(chain).
    :func:`unwrap_rar_layers` checks the link digest, and each layer's
    own signature is checked against its own fields.
    """
    if inner.get(F_TYPE) != MSG_RAR:
        raise SignallingError("inner message is not a RAR")
    if introduced_cert is not None and introduced_cert.subject != inner.signer:
        raise SignallingError(
            f"introduced certificate names {introduced_cert.subject}, but the "
            f"inner RAR was signed by {inner.signer}"
        )
    payload = {
        F_TYPE: MSG_RAR,
        F_INNER: inner,
        F_DOWNSTREAM: downstream,
        F_CAPABILITY_CERTS: tuple(capability_certs),
        F_ASSERTIONS: tuple(assertions),
        F_INNER_DIGEST: chain_link_digest(inner),
    }
    deadline = inner.get(F_DEADLINE)
    if deadline is not None:
        payload[F_DEADLINE] = deadline
    if traceparent is not None:
        payload[F_TRACEPARENT] = traceparent
    if introduced_cert is not None:
        payload[F_INTRODUCED_CERT] = introduced_cert
    return seal(payload, signer=bb, key=bb_key)


def make_approval(
    *,
    handle: str,
    domain: str,
    inner: SignedEnvelope | None = None,
    bb: DistinguishedName,
    bb_key: PrivateKey,
) -> SignedEnvelope:
    """An approval propagating back upstream.  ``inner`` is the downstream
    approval this BB is endorsing; the destination's approval has none."""
    payload = {
        F_TYPE: MSG_APPROVAL,
        F_HANDLE: handle,
        F_DOMAIN: domain,
        F_POLICY_INFO: (),
    }
    if inner is not None:
        if inner.get(F_TYPE) != MSG_APPROVAL:
            raise SignallingError("inner message is not an approval")
        payload[F_INNER] = inner
    return seal(payload, signer=bb, key=bb_key)


def make_denial(
    *,
    domain: str,
    reason: str,
    bb: DistinguishedName,
    bb_key: PrivateKey,
) -> SignedEnvelope:
    """A denial propagating back upstream with its reason (§6.1).  It
    wraps nothing: each upstream hop relays it as it was received."""
    payload = {F_TYPE: MSG_DENIAL, F_DOMAIN: domain, F_REASON: reason}
    return seal(payload, signer=bb, key=bb_key)


def unwrap_rar_layers(rar: SignedEnvelope) -> list[SignedEnvelope]:
    """Return the layers of a RAR chain, outermost first (the user's
    original request last).  Needs no keys; the trust verifiers call it
    before any signature check.

    A layer that wraps an inner RAR must carry its chain link
    (:data:`F_INNER_DIGEST`).  A wrong shape — a non-RAR layer, a
    non-envelope inner field, a wrapped RAR without a link, more than 64
    layers — raises :class:`~repro.errors.MalformedMessageError`, which
    no retransmission can repair; a link that does not match the inner
    bytes raises :class:`~repro.errors.TamperedMessageError`.
    """
    layers = []
    current: SignedEnvelope | None = rar
    while current is not None:
        if current.get(F_TYPE) != MSG_RAR:
            raise MalformedMessageError(
                f"layer signed by {current.signer} is not a RAR"
            )
        layers.append(current)
        if len(layers) > 64:
            raise MalformedMessageError("RAR nesting exceeds maximum depth 64")
        inner = current.get(F_INNER)
        link = current.get(F_INNER_DIGEST)
        if inner is None:
            if link is not None:
                raise TamperedMessageError(
                    f"append-chain layer signed by {current.signer} carries "
                    f"a link digest but no inner envelope"
                )
        elif not isinstance(inner, SignedEnvelope):
            raise MalformedMessageError("inner RAR field holds a non-envelope")
        elif link is None:
            raise MalformedMessageError(
                f"layer signed by {current.signer} wraps a RAR without a "
                f"chain link"
            )
        elif not isinstance(link, bytes) or link != chain_link_digest(inner):
            raise TamperedMessageError(
                f"append-chain link broken below layer signed by "
                f"{current.signer}: inner bytes do not match the "
                f"signed digest"
            )
        current = inner
    return layers
