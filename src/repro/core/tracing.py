"""Signalling-path tracing from nested signatures.

"The signatures both assert the authenticity of the information and
allows for the tracking the path taken by a request as it moves from BB
to BB." (§6.4)

These helpers extract the path structurally (no keys needed — full
cryptographic verification is :func:`repro.core.trust.verify_rar`'s job):
useful for audit trails, diagnostics, and the benchmark harness.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.crypto.dn import DistinguishedName
from repro.core.envelope import SignedEnvelope
from repro.core.messages import (
    F_DOMAIN,
    F_DOWNSTREAM,
    F_HANDLE,
    F_INNER,
    F_TYPE,
    MSG_APPROVAL,
    unwrap_rar_layers,
)
from repro.errors import SignallingError

__all__ = ["PathTrace", "trace_request_path", "trace_approval_chain"]


@dataclass(frozen=True)
class PathTrace:
    """The traced trajectory of a request."""

    #: Signers in travel order: user first, then each BB.
    signers: tuple[DistinguishedName, ...]
    #: The DN each hop addressed its message to.
    addressed_to: tuple[DistinguishedName, ...]
    #: True when every hop's addressee matches the next signer.
    consistent: bool


def trace_request_path(rar: SignedEnvelope) -> PathTrace:
    """Trace the hops of a RAR chain, user first.

    The layers come from :func:`~repro.core.messages.unwrap_rar_layers`,
    so a chain of the wrong shape, or a maliciously deep (or cyclic) one,
    raises :class:`~repro.errors.SignallingError` as it does at a verifier.
    """
    layers = unwrap_rar_layers(rar)
    in_travel_order = list(reversed(layers))
    signers = tuple(layer.signer for layer in in_travel_order)
    addressed = tuple(layer.get(F_DOWNSTREAM) for layer in in_travel_order)
    consistent = all(
        addressed[i] == signers[i + 1] for i in range(len(signers) - 1)
    )
    return PathTrace(signers=signers, addressed_to=addressed, consistent=consistent)


def trace_approval_chain(
    approval: SignedEnvelope,
) -> tuple[tuple[DistinguishedName, str, str], ...]:
    """Unwind an approval: ``(signer, domain, handle)`` per hop, the hop
    closest to the user first (the destination's approval innermost)."""
    out = []
    current: SignedEnvelope | None = approval
    while current is not None:
        if current.get(F_TYPE) != MSG_APPROVAL:
            raise SignallingError("not an approval envelope")
        out.append((current.signer, current[F_DOMAIN], current[F_HANDLE]))
        current = current.get(F_INNER)
        if len(out) > 64:
            raise SignallingError("approval nesting exceeds maximum depth")
    return tuple(out)
