"""Wire codec for protocol messages.

The paper proposed carrying its policy-information model inside the
Internet2 **SIBBS** BB-to-BB protocol (§7/§8): "the extension semantics,
not the wire syntax, are the contribution" (DESIGN.md).  The engines in
this package therefore pass Python objects; this module supplies the
missing wire layer — a complete, self-describing serialization of every
protocol object to bytes and back:

* nested :class:`~repro.core.envelope.SignedEnvelope` RARs, approvals,
  denials;
* :class:`~repro.crypto.x509.Certificate` (incl. capability extensions),
  :class:`~repro.policy.attributes.SignedAssertion`,
  :class:`~repro.bb.reservations.ReservationRequest`,
  :class:`~repro.crypto.dn.DistinguishedName`,
  :class:`~repro.crypto.keys.PublicKey`.

Signatures survive the round trip: objects are reconstructed
field-for-field, so the canonical bytes they sign are identical and
:meth:`SignedEnvelope.verify` still passes on the decoded copy.  That
property is what makes it legitimate for the in-memory engines to skip
the byte layer — and it is asserted by the test suite.
"""

from __future__ import annotations

import struct
from typing import Any

from repro.bb.reservations import ReservationRequest
from repro.core.envelope import SignedEnvelope
from repro.crypto import canonical
from repro.crypto.dn import DistinguishedName
from repro.crypto.keys import PublicKey
from repro.crypto.x509 import Certificate
from repro.errors import EncodingError
from repro.net.packet import DSCP
from repro.policy.attributes import SignedAssertion

__all__ = [
    "pack",
    "unpack",
    "to_wire",
    "from_wire",
    "WireView",
    "WireCodecError",
    "TruncatedWireError",
    "WireDepthError",
    "WireTagError",
    "WireValueError",
]

_KIND = "__kind__"


def pack(value: Any) -> Any:
    """Render *value* as a plain, canonically encodable structure with
    ``__kind__`` tags for protocol object types."""
    if isinstance(value, DSCP):
        # Before the scalar fast path: DSCP is an IntEnum and would
        # otherwise decay to a bare int on the wire.
        return {_KIND: "dscp", "value": int(value)}
    if value is None or isinstance(value, (bool, int, str, bytes)):
        return value
    if isinstance(value, float):
        if value == float("inf"):
            return {_KIND: "+inf"}
        if value == float("-inf"):
            return {_KIND: "-inf"}
        return value
    if isinstance(value, (tuple, list)):
        return {_KIND: "seq", "items": [pack(v) for v in value]}
    if isinstance(value, dict):
        return {_KIND: "map", "items": {k: pack(v) for k, v in value.items()}}
    if isinstance(value, DistinguishedName):
        return {_KIND: "dn", "rdns": [list(p) for p in value.rdns]}
    if isinstance(value, PublicKey):
        material = []
        for m in value.material:
            if isinstance(m, int):
                material.append(["int", str(m)])
            elif isinstance(m, str):
                material.append(["str", m])
            else:
                raise EncodingError(
                    f"unsupported key material type {type(m).__name__}"
                )
        return {_KIND: "pubkey", "scheme": value.scheme, "material": material}
    if isinstance(value, Certificate):
        return {
            _KIND: "certificate",
            "serial": value.serial,
            "issuer": pack(value.issuer),
            "subject": pack(value.subject),
            "public_key": pack(value.public_key),
            "not_before": value.not_before,
            "not_after": value.not_after,
            "extensions": [[k, pack(v)] for k, v in value.extensions],
            "signature": value.signature,
            "signature_scheme": value.signature_scheme,
        }
    if isinstance(value, SignedAssertion):
        return {
            _KIND: "assertion",
            "issuer": pack(value.issuer),
            "subject": pack(value.subject),
            "attributes": [[k, pack(v)] for k, v in value.attributes],
            "signature": value.signature,
            "signature_scheme": value.signature_scheme,
            "valid_from": value.valid_from,
            "valid_until": pack(value.valid_until),
        }
    if isinstance(value, ReservationRequest):
        return {
            _KIND: "res_spec",
            "source_host": value.source_host,
            "destination_host": value.destination_host,
            "source_domain": value.source_domain,
            "destination_domain": value.destination_domain,
            "rate_mbps": value.rate_mbps,
            "start": value.start,
            "end": value.end,
            "service_class": int(value.service_class),
            "burst_bits": value.burst_bits,
            "cost_ceiling": pack(value.cost_ceiling),
            "linked_reservations": [list(p) for p in value.linked_reservations],
            "attributes": [[k, pack(v)] for k, v in value.attributes],
        }
    if isinstance(value, SignedEnvelope):
        return {
            _KIND: "envelope",
            "payload": [[k, pack(v)] for k, v in value.payload],
            "signer": pack(value.signer),
            "signature": value.signature,
            "scheme": value.scheme,
        }
    raise EncodingError(f"cannot pack values of type {type(value).__name__}")


def unpack(data: Any) -> Any:
    """Inverse of :func:`pack`."""
    if data is None or isinstance(data, (bool, int, float, str, bytes)):
        return data
    if isinstance(data, list):
        # Bare lists only appear inside known structures; treat as tuple.
        return tuple(unpack(v) for v in data)
    if not isinstance(data, dict):
        raise EncodingError(f"cannot unpack {type(data).__name__}")
    kind = data.get(_KIND)
    if kind is None:
        raise EncodingError("mapping without __kind__ tag")
    if kind == "+inf":
        return float("inf")
    if kind == "-inf":
        return float("-inf")
    if kind == "seq":
        return tuple(unpack(v) for v in data["items"])
    if kind == "map":
        return {k: unpack(v) for k, v in data["items"].items()}
    if kind == "dn":
        return DistinguishedName(tuple((a, v) for a, v in data["rdns"]))
    if kind == "dscp":
        return DSCP(data["value"])
    if kind == "pubkey":
        material = []
        for t, v in data["material"]:
            material.append(int(v) if t == "int" else v)
        return PublicKey(data["scheme"], tuple(material))
    if kind == "certificate":
        return Certificate(
            serial=data["serial"],
            issuer=unpack(data["issuer"]),
            subject=unpack(data["subject"]),
            public_key=unpack(data["public_key"]),
            not_before=data["not_before"],
            not_after=data["not_after"],
            extensions=tuple((k, unpack(v)) for k, v in data["extensions"]),
            signature=data["signature"],
            signature_scheme=data["signature_scheme"],
        )
    if kind == "assertion":
        return SignedAssertion(
            issuer=unpack(data["issuer"]),
            subject=unpack(data["subject"]),
            attributes=tuple((k, unpack(v)) for k, v in data["attributes"]),
            signature=data["signature"],
            signature_scheme=data["signature_scheme"],
            valid_from=data["valid_from"],
            valid_until=unpack(data["valid_until"]),
        )
    if kind == "res_spec":
        return ReservationRequest(
            source_host=data["source_host"],
            destination_host=data["destination_host"],
            source_domain=data["source_domain"],
            destination_domain=data["destination_domain"],
            rate_mbps=data["rate_mbps"],
            start=data["start"],
            end=data["end"],
            service_class=DSCP(data["service_class"]),
            burst_bits=data["burst_bits"],
            cost_ceiling=unpack(data["cost_ceiling"]),
            linked_reservations=tuple(
                (k, v) for k, v in data["linked_reservations"]
            ),
            attributes=tuple((k, unpack(v)) for k, v in data["attributes"]),
        )
    if kind == "envelope":
        return SignedEnvelope(
            payload=tuple((k, unpack(v)) for k, v in data["payload"]),
            signer=unpack(data["signer"]),
            signature=data["signature"],
            scheme=data["scheme"],
        )
    raise EncodingError(f"unknown __kind__ tag {kind!r}")


def to_wire(value: Any) -> bytes:
    """Serialize a protocol object (or nested message) to bytes."""
    return canonical.encode(pack(value))


def from_wire(data: bytes) -> Any:
    """Parse bytes produced by :func:`to_wire` back into protocol objects.

    The reference decoder: the codec property, fuzz and golden-vector
    suites hold :class:`WireView` to its accept-set and values.  Nothing
    in ``src/`` calls it (``tests/analysis/test_import_boundaries.py``).
    """
    return unpack(canonical.decode(data))


# ---------------------------------------------------------------------------
# Zero-copy wire views (the production decoder)
# ---------------------------------------------------------------------------
#
# :class:`WireView` is a sliced decoder over the received buffer:
# ``parse`` checks only the outer frame, ``kind``/``peek`` skip across
# the tag+length frames (O(1) per skipped field, no payload copies) to
# extract single fields, and ``materialize`` runs one fused
# decode+unpack pass that builds the final protocol objects directly —
# no intermediate plain-value tree.  All failures raise
# :class:`WireCodecError` subclasses (never bare ``KeyError`` /
# ``ValueError``) at cost bounded by the buffer length and the
# canonical depth bound.  :func:`from_wire` is the tests' reference for
# the accept-set, decoded values and error order, which is why the
# permissive non-standard shapes below are tolerated rather than
# rejected.

_MAX_DEPTH = 200

_T_NONE = 0x4E   # N
_T_TRUE = 0x54   # T
_T_FALSE = 0x46  # F
_T_INT = 0x49    # I
_T_FLOAT = 0x44  # D
_T_STR = 0x53    # S
_T_BYTES = 0x42  # B
_T_SEQ = 0x4C    # L
_T_MAP = 0x4D    # M


class WireCodecError(EncodingError):
    """A zero-copy decode failure (malformed, truncated, non-canonical)."""


class TruncatedWireError(WireCodecError):
    """The buffer ends before a frame's declared payload does."""


class WireDepthError(WireCodecError):
    """Nesting beyond the canonical depth bound (depth-bomb defense)."""


class WireTagError(WireCodecError):
    """An unknown type tag or an unexpected frame type."""


class WireValueError(WireCodecError):
    """A structurally framed but non-canonical or ill-typed payload."""


def _frame(buf: memoryview, pos: int, data_end: int) -> tuple[int, int, int]:
    """Read one ``tag + length`` frame header at *pos*.

    Returns ``(tag, payload_start, payload_end)``.  Bounds are checked
    against the whole buffer (like :func:`canonical.decode`); containment
    within the *enclosing* frame is the caller's length-mismatch check.
    """
    if pos + 5 > data_end:
        raise TruncatedWireError("truncated encoding (missing tag/length)")
    tag = buf[pos]
    (length,) = struct.unpack_from(">I", buf, pos + 1)
    start = pos + 5
    stop = start + length
    if stop > data_end:
        raise TruncatedWireError(
            "truncated encoding (payload shorter than length)"
        )
    return tag, start, stop


def _scalar(buf: memoryview, tag: int, start: int, stop: int) -> Any:
    """Decode one scalar frame with the canonical strictness rules."""
    if tag == _T_NONE:
        if stop != start:
            raise WireValueError("None payload must be empty")
        return None
    if tag == _T_TRUE:
        return True
    if tag == _T_FALSE:
        return False
    payload = bytes(buf[start:stop])
    if tag == _T_INT:
        try:
            value = int(payload.decode("ascii"))
        except (UnicodeDecodeError, ValueError) as exc:
            raise WireValueError("malformed integer payload") from exc
        if str(value).encode("ascii") != payload:
            raise WireValueError("non-canonical integer payload")
        return value
    if tag == _T_FLOAT:
        try:
            value_f = float.fromhex(payload.decode("ascii"))
        except (UnicodeDecodeError, ValueError, OverflowError) as exc:
            raise WireValueError("malformed float payload") from exc
        if value_f != value_f or value_f in (float("inf"), float("-inf")):
            raise WireValueError("non-finite float payload")
        if value_f.hex().encode("ascii") != payload:
            raise WireValueError("non-canonical float payload")
        return value_f
    if tag == _T_STR:
        try:
            return payload.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise WireValueError("malformed utf-8 string payload") from exc
    if tag == _T_BYTES:
        return payload
    raise WireTagError(f"unknown type tag {bytes((tag,))!r}")


def _plain(
    buf: memoryview, pos: int, data_end: int, depth: int
) -> tuple[Any, int]:
    """Strict canonical decode of one value (lists stay lists — exactly
    :func:`canonical.decode`'s result shape)."""
    if depth > _MAX_DEPTH:
        raise WireDepthError("encoded nesting exceeds maximum depth 200")
    tag, start, stop = _frame(buf, pos, data_end)
    if tag == _T_SEQ:
        items: list[Any] = []
        inner = start
        while inner < stop:
            item, inner = _plain(buf, inner, data_end, depth + 1)
            items.append(item)
        if inner != stop:
            raise WireValueError("sequence payload length mismatch")
        return items, stop
    if tag == _T_MAP:
        mapping: dict[str, Any] = {}
        inner = start
        previous: str | None = None
        while inner < stop:
            key, inner = _plain(buf, inner, data_end, depth + 1)
            if not isinstance(key, str):
                raise WireValueError("mapping key is not a string")
            if previous is not None and key <= previous:
                raise WireValueError(
                    "non-canonical mapping (duplicate or unsorted keys)"
                )
            previous = key
            value, inner = _plain(buf, inner, data_end, depth + 1)
            mapping[key] = value
        if inner != stop:
            raise WireValueError("mapping payload length mismatch")
        return mapping, stop
    return _scalar(buf, tag, start, stop), stop


def _map_spans(
    buf: memoryview, start: int, stop: int, data_end: int, depth: int
) -> dict[str, tuple[int, int]]:
    """Scan a map frame's entries into ``{key: (value_pos, value_end)}``
    without decoding the values (skips are O(1) per frame)."""
    spans: dict[str, tuple[int, int]] = {}
    inner = start
    previous: str | None = None
    while inner < stop:
        key, inner = _plain(buf, inner, data_end, depth + 1)
        if not isinstance(key, str):
            raise WireValueError("mapping key is not a string")
        if previous is not None and key <= previous:
            raise WireValueError(
                "non-canonical mapping (duplicate or unsorted keys)"
            )
        previous = key
        _, _, value_end = _frame(buf, inner, data_end)
        spans[key] = (inner, value_end)
        inner = value_end
    if inner != stop:
        raise WireValueError("mapping payload length mismatch")
    return spans


def _require(
    spans: dict[str, tuple[int, int]], key: str, kind: str
) -> tuple[int, int]:
    span = spans.get(key)
    if span is None:
        raise WireValueError(f"{kind} wire value lacks key {key!r}")
    return span


def _pair_spans(
    buf: memoryview, pos: int, end: int, data_end: int
) -> "tuple[int, int] | None":
    """Positions of the two elements of a ``[key, value]`` pair frame, or
    ``None`` when the frame is not a two-item sequence (caller falls back
    to :func:`_legacy_pairs`)."""
    tag, start, stop = _frame(buf, pos, data_end)
    if tag != _T_SEQ or stop != end or start == stop:
        return None
    _, _, first_end = _frame(buf, start, data_end)
    if first_end >= stop:
        return None
    _, _, second_end = _frame(buf, first_end, data_end)
    if second_end != stop:
        return None
    return start, first_end


def _legacy_pairs(container: Any) -> tuple[tuple[Any, Any], ...]:
    """:func:`unpack`'s exact pair semantics for non-standard shapes —
    anything iterable yielding length-2 items is accepted, exactly like
    ``tuple((k, unpack(v)) for k, v in container)``."""
    out: list[tuple[Any, Any]] = []
    try:
        for element in container:
            k, v = element
            out.append((k, unpack(v)))
    except (TypeError, ValueError) as exc:
        raise WireValueError(str(exc)) from exc
    return tuple(out)


def _packed_pairs(
    buf: memoryview, pos: int, data_end: int, depth: int
) -> tuple[tuple[Any, Any], ...]:
    """Decode a ``[[key, packed-value], ...]`` field into key/value pairs
    (the shape :func:`pack` uses for payloads, extensions, attributes).

    The common frame shape — a sequence of two-item sequences — is
    decoded fused, one pass, zero copies.  Any other shape is
    plain-decoded and run through :func:`_legacy_pairs`.
    """
    if depth > _MAX_DEPTH:
        raise WireDepthError("encoded nesting exceeds maximum depth 200")
    tag, start, stop = _frame(buf, pos, data_end)
    if tag != _T_SEQ:
        container, _ = _plain(buf, pos, data_end, depth)
        return _legacy_pairs(container)
    out: list[tuple[Any, Any]] = []
    inner = start
    while inner < stop:
        _, _, item_end = _frame(buf, inner, data_end)
        spans = _pair_spans(buf, inner, item_end, data_end)
        if spans is None:
            element, _ = _plain(buf, inner, data_end, depth + 1)
            out.extend(_legacy_pairs((element,)))
        else:
            key_pos, value_pos = spans
            key, _ = _plain(buf, key_pos, data_end, depth + 2)
            value, _ = _packed(buf, value_pos, data_end, depth + 2)
            out.append((key, value))
        inner = item_end
    if inner != stop:
        raise WireValueError("sequence payload length mismatch")
    return tuple(out)


def _packed(
    buf: memoryview, pos: int, data_end: int, depth: int
) -> tuple[Any, int]:
    """One fused decode+unpack step: the zero-copy equivalent of
    ``unpack(canonical.decode(...))`` for the value at *pos*."""
    if depth > _MAX_DEPTH:
        raise WireDepthError("encoded nesting exceeds maximum depth 200")
    tag, start, stop = _frame(buf, pos, data_end)
    if tag == _T_SEQ:
        # Bare lists only appear inside known structures; like unpack(),
        # decode to a tuple.
        items: list[Any] = []
        inner = start
        while inner < stop:
            item, inner = _packed(buf, inner, data_end, depth + 1)
            items.append(item)
        if inner != stop:
            raise WireValueError("sequence payload length mismatch")
        return tuple(items), stop
    if tag != _T_MAP:
        return _scalar(buf, tag, start, stop), stop

    spans = _map_spans(buf, start, stop, data_end, depth)
    kind_span = spans.get(_KIND)
    if kind_span is None:
        raise WireValueError("mapping without __kind__ tag")
    kind, _ = _plain(buf, kind_span[0], data_end, depth + 1)
    value = _packed_tagged(buf, spans, str(kind), data_end, depth)
    # Every entry of the map is decoded: a malformed value hiding under
    # an ignored key must still reject.
    for key, (value_pos, _) in spans.items():
        if key != _KIND and key not in _CONSUMED_KEYS.get(str(kind), ()):
            _plain(buf, value_pos, data_end, depth + 1)
    return value, stop


#: Keys each ``__kind__`` dispatch actually decodes (everything else is
#: validated canonically and then ignored, matching :func:`unpack`).
_CONSUMED_KEYS: dict[str, tuple[str, ...]] = {
    "+inf": (),
    "-inf": (),
    "seq": ("items",),
    "map": ("items",),
    "dn": ("rdns",),
    "dscp": ("value",),
    "pubkey": ("scheme", "material"),
    "certificate": (
        "serial", "issuer", "subject", "public_key", "not_before",
        "not_after", "extensions", "signature", "signature_scheme",
    ),
    "assertion": (
        "issuer", "subject", "attributes", "signature",
        "signature_scheme", "valid_from", "valid_until",
    ),
    "res_spec": (
        "source_host", "destination_host", "source_domain",
        "destination_domain", "rate_mbps", "start", "end",
        "service_class", "burst_bits", "cost_ceiling",
        "linked_reservations", "attributes",
    ),
    "envelope": ("payload", "signer", "signature", "scheme"),
}


def _packed_tagged(
    buf: memoryview,
    spans: dict[str, tuple[int, int]],
    kind: str,
    data_end: int,
    depth: int,
) -> Any:
    def plain(key: str) -> Any:
        return _plain(
            buf, _require(spans, key, kind)[0], data_end, depth + 1
        )[0]

    def packed(key: str) -> Any:
        return _packed(
            buf, _require(spans, key, kind)[0], data_end, depth + 1
        )[0]

    def pairs(key: str) -> tuple[tuple[Any, Any], ...]:
        return _packed_pairs(
            buf, _require(spans, key, kind)[0], data_end, depth + 1
        )

    if kind == "+inf":
        return float("inf")
    if kind == "-inf":
        return float("-inf")
    if kind == "seq":
        pos, _ = _require(spans, "items", kind)
        return _packed_seq(buf, pos, data_end, depth + 1)
    if kind == "map":
        pos, _ = _require(spans, "items", kind)
        tag, istart, istop = _frame(buf, pos, data_end)
        if tag != _T_MAP:
            # unpack() calls .items() on whatever decoded; only a plain
            # mapping survives that, so any other frame type rejects.
            raise WireTagError("map wire items is not a mapping")
        if depth + 1 > _MAX_DEPTH:
            raise WireDepthError("encoded nesting exceeds maximum depth 200")
        items = _map_spans(buf, istart, istop, data_end, depth + 1)
        return {
            k: _packed(buf, vpos, data_end, depth + 2)[0]
            for k, (vpos, _) in items.items()
        }
    if kind == "dn":
        rdns = plain("rdns")
        try:
            # The DN validator calls str methods on both halves of each
            # RDN; a crafted non-string half must reject typed.
            return DistinguishedName(tuple((a, v) for a, v in rdns))
        except (TypeError, ValueError, AttributeError) as exc:
            raise WireValueError(str(exc)) from exc
    if kind == "dscp":
        try:
            return DSCP(plain("value"))
        except (TypeError, ValueError) as exc:
            raise WireValueError(str(exc)) from exc
    if kind == "pubkey":
        raw = plain("material")
        material: list[Any] = []
        try:
            for t, v in raw:
                material.append(int(v) if t == "int" else v)
        except (TypeError, ValueError) as exc:
            raise WireValueError(str(exc)) from exc
        return PublicKey(plain("scheme"), tuple(material))
    if kind == "certificate":
        return Certificate(
            serial=plain("serial"),
            issuer=packed("issuer"),
            subject=packed("subject"),
            public_key=packed("public_key"),
            not_before=plain("not_before"),
            not_after=plain("not_after"),
            extensions=pairs("extensions"),
            signature=plain("signature"),
            signature_scheme=plain("signature_scheme"),
        )
    if kind == "assertion":
        return SignedAssertion(
            issuer=packed("issuer"),
            subject=packed("subject"),
            attributes=pairs("attributes"),
            signature=plain("signature"),
            signature_scheme=plain("signature_scheme"),
            valid_from=plain("valid_from"),
            valid_until=packed("valid_until"),
        )
    if kind == "res_spec":
        try:
            # One typed rejection for every crafted field the builders
            # or the request validator (which orders rate/start/end)
            # would otherwise fail on with a builtin error.
            return ReservationRequest(
                source_host=plain("source_host"),
                destination_host=plain("destination_host"),
                source_domain=plain("source_domain"),
                destination_domain=plain("destination_domain"),
                rate_mbps=plain("rate_mbps"),
                start=plain("start"),
                end=plain("end"),
                service_class=DSCP(plain("service_class")),
                burst_bits=plain("burst_bits"),
                cost_ceiling=packed("cost_ceiling"),
                linked_reservations=tuple(
                    (k, v) for k, v in plain("linked_reservations")
                ),
                attributes=pairs("attributes"),
            )
        except (TypeError, ValueError) as exc:
            raise WireValueError(str(exc)) from exc
    if kind == "envelope":
        return SignedEnvelope(
            payload=pairs("payload"),
            signer=packed("signer"),
            signature=plain("signature"),
            scheme=plain("scheme"),
        )
    raise WireValueError(f"unknown __kind__ tag {kind!r}")


def _packed_seq(
    buf: memoryview, pos: int, data_end: int, depth: int
) -> tuple[Any, ...]:
    """The ``seq`` kind's items: fused when the frame is a sequence,
    legacy-iterated otherwise (``unpack`` tolerates any iterable)."""
    if depth > _MAX_DEPTH:
        raise WireDepthError("encoded nesting exceeds maximum depth 200")
    tag, start, stop = _frame(buf, pos, data_end)
    if tag != _T_SEQ:
        container, _ = _plain(buf, pos, data_end, depth)
        try:
            return tuple(unpack(v) for v in container)
        except (TypeError, ValueError) as exc:
            raise WireValueError(str(exc)) from exc
    items: list[Any] = []
    inner = start
    while inner < stop:
        item, inner = _packed(buf, inner, data_end, depth + 1)
        items.append(item)
    if inner != stop:
        raise WireValueError("sequence payload length mismatch")
    return tuple(items)


class WireView:
    """A zero-copy, lazily materialized view over one wire message.

    ``parse`` validates only the outer frame; ``kind``/``peek`` skip
    across inner frames to answer single-field questions without
    decoding; ``materialize`` runs the fused single-pass decode (the
    one ingress uses) and caches the result.  Behaviour is byte-for-byte
    equivalent to the reference :func:`from_wire`; every decode failure
    is a :class:`WireCodecError` (an :class:`~repro.errors.EncodingError`),
    every validator failure some other :class:`~repro.errors.ReproError`.
    """

    __slots__ = (
        "_buf", "_tag", "_start", "_stop", "_value", "_decoded",
        "_kind", "_kind_known", "_field_spans",
    )

    def __init__(
        self, buf: memoryview, tag: int, start: int, stop: int
    ) -> None:
        self._buf = buf
        self._tag = tag
        self._start = start
        self._stop = stop
        self._value: Any = None
        self._decoded = False
        self._kind: "str | None" = None
        self._kind_known = False
        self._field_spans: "dict[str, int] | None" = None

    @classmethod
    def parse(cls, data: "bytes | bytearray | memoryview") -> "WireView":
        """Frame-validate *data* (outer tag, length, no trailing bytes)
        and return a view.  No payload bytes are copied or decoded."""
        buf = memoryview(data)
        if buf.ndim != 1 or buf.itemsize != 1:
            raise WireTagError("wire buffer must be a flat byte buffer")
        tag, start, stop = _frame(buf, 0, len(buf))
        # Trailing bytes are rejected by materialize(), *after* the
        # decode.
        return cls(buf, tag, start, stop)

    def wire_size(self) -> int:
        """Bytes this message occupies on the wire."""
        return len(self._buf)

    def __len__(self) -> int:
        return len(self._buf)

    def kind(self) -> "str | None":
        """The ``__kind__`` tag of a packed object (``"envelope"`` for
        protocol messages) — found by skipping frames, not by decoding
        the message.  Total: returns ``None`` for scalars, sequences and
        anything malformed; :meth:`materialize` is the authority on
        rejects.  Memoized: the buffer is immutable."""
        if self._kind_known:
            return self._kind
        value = self._kind_uncached()
        self._kind = value
        self._kind_known = True
        return value

    def _kind_uncached(self) -> "str | None":
        if self._tag != _T_MAP:
            return None
        buf = self._buf
        data_end = len(buf)
        inner = self._start
        try:
            while inner < self._stop:
                key, inner = _plain(buf, inner, data_end, 1)
                if not isinstance(key, str):
                    return None
                tag, vstart, vstop = _frame(buf, inner, data_end)
                if key == _KIND:
                    if tag != _T_STR:
                        return None
                    value = _scalar(buf, tag, vstart, vstop)
                    return value if isinstance(value, str) else None
                if key > _KIND:
                    # Keys are sorted on a canonical wire; no tag follows.
                    return None
                inner = vstop
        except WireCodecError:
            return None
        return None

    def peek(self, field: str, default: Any = None) -> Any:
        """The scalar payload field *field* of an envelope message,
        extracted by skipping frames (no materialization, no copies of
        anything but the returned scalar).  Total like :meth:`kind`:
        returns *default* when the message is not an envelope, the field
        is absent or non-scalar, or the buffer is malformed.

        The field->offset walk is memoized (one frame-skipping pass over
        the payload, first occurrence wins — identical to the linear
        scan it replaces, including on malformed buffers: pairs after a
        framing error are simply absent, exactly the pairs the scan
        could never have reached)."""
        position = self._payload_field_spans().get(field)
        if position is None:
            return default
        buf = self._buf
        try:
            vtag, vstart, vstop = _frame(buf, position, len(buf))
            if vtag in (_T_SEQ, _T_MAP):
                return default
            return _scalar(buf, vtag, vstart, vstop)
        except WireCodecError:
            return default

    def _payload_field_spans(self) -> "dict[str, int]":
        """First occurrence of each payload field -> value offset."""
        if self._field_spans is not None:
            return self._field_spans
        spans: "dict[str, int]" = {}
        if self.kind() == "envelope":
            buf = self._buf
            data_end = len(buf)
            try:
                outer = _map_spans(
                    buf, self._start, self._stop, data_end, 0
                )
                payload_span = outer.get("payload")
                if payload_span is not None:
                    tag, start, stop = _frame(
                        buf, payload_span[0], data_end
                    )
                    if tag == _T_SEQ:
                        inner = start
                        while inner < stop:
                            _, _, item_end = _frame(buf, inner, data_end)
                            pair = _pair_spans(
                                buf, inner, item_end, data_end
                            )
                            inner = item_end
                            if pair is None:
                                continue
                            key_pos, value_pos = pair
                            key, _ = _plain(buf, key_pos, data_end, 3)
                            if isinstance(key, str):
                                spans.setdefault(key, value_pos)
            except WireCodecError:
                pass
        self._field_spans = spans
        return spans

    def materialize(self) -> Any:
        """Decode the full message into protocol objects (one fused
        pass, cached)."""
        if not self._decoded:
            data_end = len(self._buf)
            value, end = _packed(self._buf, 0, data_end, 0)
            if end != data_end:
                raise WireValueError(
                    f"{data_end - end} trailing bytes after value"
                )
            self._value = value
            self._decoded = True
        return self._value
