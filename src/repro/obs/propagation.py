"""Cross-domain trace context propagation (W3C ``traceparent`` style).

The tracer stitches spans *inside one process* from the open-span stack
it keeps per request (:mod:`repro.obs.spans`).  That stops exactly where
the paper's architecture is interesting: a reservation crosses
administrative domains, and each bandwidth broker only sees the
envelope it received.  The field mirrors the paper's own mechanism —
just as every BB nests the upstream RAR inside its own signed envelope
(§6.4), every BB embeds a *trace context* field in the envelope it
forwards, naming the span under which the downstream hop's work should
hang.

The wire format is the W3C Trace Context ``traceparent`` header::

    00-<32 hex trace-id>-<16 hex parent span-id>-01
    └┬┘ └──────┬───────┘ └────────┬───────────┘ └┬┘
  version   trace-id         parent span        flags (sampled)

The 128-bit trace-id reversibly encodes the correlation ID (UTF-8 bytes,
hex, left-padded with zeros — ``req-000001`` is 10 bytes, well inside
the 16-byte field), so a traceparent seen on the wire can be mapped back
to the event-log correlation ID without a lookup table.  IDs longer than
16 bytes are hashed into the field; they still group spans correctly but
are no longer reversible.

The field travels *inside the signed payload* (``F_TRACEPARENT`` in
:mod:`repro.core.messages`), so a tampered trace context fails signature
verification like any other field — the measurements inherit the trust
properties of the signalling itself.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass

from repro.errors import ObservabilityError

__all__ = [
    "TraceContext",
    "format_traceparent",
    "parse_traceparent",
    "encode_trace_id",
    "decode_trace_id",
]

#: Version and flags are fixed: we speak exactly one version and always
#: sample (tracing is off entirely when the tracer is disabled).
_VERSION = "00"
_FLAGS = "01"

_TRACEPARENT_RE = re.compile(
    r"^(?P<version>[0-9a-f]{2})-(?P<trace_id>[0-9a-f]{32})"
    r"-(?P<span_id>[0-9a-f]{16})-(?P<flags>[0-9a-f]{2})$"
)


@dataclass(frozen=True)
class TraceContext:
    """The trace identity a hop hands to its downstream neighbour."""

    trace_id: str
    span_id: int

    def __post_init__(self) -> None:
        if not self.trace_id:
            raise ObservabilityError("trace context needs a trace id")
        if self.span_id <= 0:
            raise ObservabilityError(
                f"trace context span id must be positive, got {self.span_id}"
            )


def encode_trace_id(trace_id: str) -> str:
    """Encode a correlation ID into the 32-hex-digit traceparent field.

    Reversible for IDs up to 16 UTF-8 bytes (zero-padded on the left);
    longer IDs degrade to a SHA-256-derived 16-byte digest, which still
    identifies the trace consistently but cannot be decoded back.
    """
    raw = trace_id.encode("utf-8")
    if len(raw) > 16:
        raw = hashlib.sha256(raw).digest()[:16]
    return raw.hex().zfill(32)


def decode_trace_id(field: str) -> str:
    """Invert :func:`encode_trace_id` where possible.

    Strips the zero padding and decodes UTF-8; if the bytes do not
    round-trip (a hashed over-long ID, or a foreign tracer's random
    trace-id), the 32-hex-digit field itself becomes the trace ID —
    still a stable grouping key, just not a correlation ID.
    """
    raw = bytes.fromhex(field).lstrip(b"\x00")
    try:
        decoded = raw.decode("utf-8")
    except UnicodeDecodeError:
        return field
    if not decoded or encode_trace_id(decoded) != field:
        return field
    return decoded


def format_traceparent(context: TraceContext) -> str:
    """Render *context* as a ``traceparent`` string."""
    return (
        f"{_VERSION}-{encode_trace_id(context.trace_id)}"
        f"-{context.span_id:016x}-{_FLAGS}"
    )


def parse_traceparent(value: str) -> TraceContext:
    """Parse a ``traceparent`` string back into a :class:`TraceContext`.

    Raises :class:`~repro.errors.ObservabilityError` on anything
    malformed (wrong shape, unknown version, all-zero ids) — a reader
    treats that the same as an absent field rather than guessing.
    """
    if not isinstance(value, str):
        raise ObservabilityError(
            f"traceparent must be a string, got {type(value).__name__}"
        )
    m = _TRACEPARENT_RE.match(value)
    if m is None:
        raise ObservabilityError(f"malformed traceparent {value!r}")
    if m.group("version") != _VERSION:
        raise ObservabilityError(
            f"unsupported traceparent version {m.group('version')!r}"
        )
    trace_field = m.group("trace_id")
    span_field = m.group("span_id")
    if set(trace_field) == {"0"} or set(span_field) == {"0"}:
        raise ObservabilityError(
            f"traceparent {value!r} has an all-zero id"
        )
    return TraceContext(
        trace_id=decode_trace_id(trace_field),
        span_id=int(span_field, 16),
    )
