"""The paper's §6.4 nested RAR shape, kept as a reference for the append chain.

In the nested shape each BB signs the whole inner envelope:
``RAR_{N+1} = sign_BB({RAR_N, cert_N, DN_next, caps})`` with ``RAR_N``
under the signature itself.  Every broker emits the append chain instead
(:func:`repro.core.messages.make_bb_rar`): the signature covers a digest
link to ``RAR_N``, and :func:`repro.core.messages.unwrap_rar_layers`
refuses a layer without one.  The nested shape lives on here only:

* :func:`nested_bb_rar` — the nested builder, the payload
  ``make_bb_rar`` writes minus the link, so the golden vector
  ``rar_nested_3hop`` rebuilds byte for byte;
* :func:`nested_layers` — its reader, which walks ``F_INNER`` and checks
  no link (the enclosing signatures are what protect a nested chain).

The append-vs-nested property suite, the golden vectors and the C4
signed-bytes check build with these; the trust tests hand the result to
the verifiers, which must refuse it.
"""

from typing import Sequence

from repro.core.envelope import SignedEnvelope, seal
from repro.core.messages import (
    F_ASSERTIONS,
    F_CAPABILITY_CERTS,
    F_DEADLINE,
    F_DOWNSTREAM,
    F_INNER,
    F_INTRODUCED_CERT,
    F_TRACEPARENT,
    F_TYPE,
    MSG_RAR,
)
from repro.crypto.dn import DistinguishedName
from repro.crypto.keys import PrivateKey
from repro.crypto.x509 import Certificate
from repro.policy.attributes import SignedAssertion


def nested_bb_rar(
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
    """``RAR_{N+1}`` in the nested shape: *bb*'s signature covers *inner*."""
    payload = {
        F_TYPE: MSG_RAR,
        F_INNER: inner,
        F_DOWNSTREAM: downstream,
        F_CAPABILITY_CERTS: tuple(capability_certs),
        F_ASSERTIONS: tuple(assertions),
    }
    if inner.get(F_DEADLINE) is not None:
        payload[F_DEADLINE] = inner.get(F_DEADLINE)
    if traceparent is not None:
        payload[F_TRACEPARENT] = traceparent
    if introduced_cert is not None:
        payload[F_INTRODUCED_CERT] = introduced_cert
    return seal(payload, signer=bb, key=bb_key)


def nested_layers(rar: SignedEnvelope) -> list[SignedEnvelope]:
    """The layers of a nested chain, outermost first, links unchecked."""
    layers = []
    current: SignedEnvelope | None = rar
    while current is not None:
        layers.append(current)
        current = current.get(F_INNER)
    return layers
