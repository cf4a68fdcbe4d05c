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
the byte layer — and it is asserted by the test suite.  The production
decoder (:class:`WireView`) accepts exactly what :func:`to_wire` writes:
one byte string per message.
"""

from __future__ import annotations

import struct
from typing import Any, Callable, Iterator

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

#: The wire schema of the protocol object kinds: ``kind -> (class,
#: {field: encoding})``, fields in constructor order.  A field is the
#: attribute's name and its key in the tagged map; its encoding says how
#: the value is written (:data:`_WRITE`) and read back (:data:`_READ`).
#: :func:`pack` and the production decoder both loop over this table, so
#: they cannot disagree about a field; the reference :func:`unpack`
#: spells the lists out a second time on purpose.
_SCHEMA: dict[str, tuple[type, dict[str, str]]] = {
    "dn": (DistinguishedName, {"rdns": "tuples"}),
    "certificate": (Certificate, {
        "serial": "plain", "issuer": "packed", "subject": "packed",
        "public_key": "packed",
        "not_before": "plain", "not_after": "plain",
        "extensions": "pairs",
        "signature": "plain", "signature_scheme": "plain",
    }),
    "assertion": (SignedAssertion, {
        "issuer": "packed", "subject": "packed",
        "attributes": "pairs",
        "signature": "plain", "signature_scheme": "plain",
        "valid_from": "plain", "valid_until": "packed",
    }),
    "res_spec": (ReservationRequest, {
        "source_host": "plain", "destination_host": "plain",
        "source_domain": "plain", "destination_domain": "plain",
        "rate_mbps": "plain", "start": "plain", "end": "plain",
        "service_class": "dscp", "burst_bits": "plain",
        "cost_ceiling": "packed",
        "linked_reservations": "tuples",
        "attributes": "pairs",
    }),
    "envelope": (SignedEnvelope, {
        "payload": "pairs", "signer": "packed",
        "signature": "plain", "scheme": "plain",
    }),
}


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
    for kind, (cls, fields) in _SCHEMA.items():
        if isinstance(value, cls):
            packed = {_KIND: kind}
            for name, how in fields.items():
                packed[name] = _WRITE[how](getattr(value, name))
            return packed
    raise EncodingError(f"cannot pack values of type {type(value).__name__}")


#: How :func:`pack` writes a schema field of each encoding.
_WRITE: dict[str, Callable[[Any], Any]] = {
    "plain": lambda value: value,
    "packed": pack,
    "pairs": lambda value: [[k, pack(v)] for k, v in value],
    "dscp": int,
    "tuples": lambda value: [list(p) for p in value],
}


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

    The permissive reference decoder: the codec property, fuzz and
    golden-vector suites hold :class:`WireView` inside its accept-set,
    with equal values.  Nothing in ``src/`` calls it
    (``tests/analysis/test_import_boundaries.py``).
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
# canonical depth bound.  It accepts exactly what :func:`to_wire`
# writes, which is what lets the replay guard key on the bytes as they
# arrived: the shape checks below refuse the cheap re-spellings early,
# and ``materialize`` re-encodes what it decoded and refuses any buffer
# that differs, so the encoder is the specification.  The permissive
# :func:`from_wire` is the tests' independent reference: whatever this
# decoder accepts, it accepts with an equal value.

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
    if tag in (_T_TRUE, _T_FALSE):
        if stop != start:
            raise WireValueError("boolean payload must be empty")
        return tag == _T_TRUE
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


def _pair_spans(
    buf: memoryview, pos: int, end: int, data_end: int
) -> "tuple[int, int] | None":
    """Positions of the two elements of a ``[key, value]`` pair frame, or
    ``None`` when the frame is not a two-item sequence."""
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


def _elements(
    buf: memoryview, pos: int, data_end: int, depth: int
) -> Iterator[tuple[int, int]]:
    """``(start, end)`` of each element of the sequence frame at *pos*
    (what :func:`pack` writes for a list of items or of pairs; any other
    frame is refused), without decoding the elements."""
    if depth > _MAX_DEPTH:
        raise WireDepthError("encoded nesting exceeds maximum depth 200")
    tag, inner, stop = _frame(buf, pos, data_end)
    if tag != _T_SEQ:
        raise WireTagError("expected a sequence frame")
    while inner < stop:
        _, _, item_end = _frame(buf, inner, data_end)
        yield inner, item_end
        inner = item_end
    if inner != stop:
        raise WireValueError("sequence payload length mismatch")


def _packed_pairs(
    buf: memoryview, pos: int, data_end: int, depth: int
) -> tuple[tuple[Any, Any], ...]:
    """Decode a ``[[key, packed-value], ...]`` field into key/value pairs
    (the shape :func:`pack` uses for payloads, extensions, attributes):
    a sequence of two-item sequences, one fused pass, zero copies."""
    out: list[tuple[Any, Any]] = []
    for item, item_end in _elements(buf, pos, data_end, depth):
        spans = _pair_spans(buf, item, item_end, data_end)
        if spans is None:
            raise WireValueError("pair is not a two-item sequence")
        key, _ = _plain(buf, spans[0], data_end, depth + 2)
        value, _ = _packed(buf, spans[1], data_end, depth + 2)
        out.append((key, value))
    return tuple(out)


def _dscp_at(buf: memoryview, pos: int, data_end: int, depth: int) -> DSCP:
    try:
        return DSCP(_plain(buf, pos, data_end, depth)[0])
    except (TypeError, ValueError) as exc:
        raise WireValueError(str(exc)) from exc


def _tuples_at(
    buf: memoryview, pos: int, data_end: int, depth: int
) -> tuple[tuple[Any, Any], ...]:
    try:
        return tuple((k, v) for k, v in _plain(buf, pos, data_end, depth)[0])
    except (TypeError, ValueError) as exc:
        raise WireValueError(str(exc)) from exc


#: How the fused decoder reads a schema field of each encoding, given
#: ``(buf, pos, data_end, depth)``: :data:`_WRITE`'s inverse, entry for
#: entry.
_READ: dict[str, Callable[..., Any]] = {
    "plain": lambda *at: _plain(*at)[0],
    "packed": lambda *at: _packed(*at)[0],
    "pairs": _packed_pairs,
    "dscp": _dscp_at,
    "tuples": _tuples_at,
}


def _packed(
    buf: memoryview, pos: int, data_end: int, depth: int
) -> tuple[Any, int]:
    """One fused decode+unpack step: the value :func:`pack` wrote at
    *pos* — a scalar frame or a ``__kind__``-tagged map.  A bare
    sequence is never a packed value."""
    if depth > _MAX_DEPTH:
        raise WireDepthError("encoded nesting exceeds maximum depth 200")
    tag, start, stop = _frame(buf, pos, data_end)
    if tag == _T_SEQ:
        raise WireTagError("bare sequence where a packed value belongs")
    if tag != _T_MAP:
        return _scalar(buf, tag, start, stop), stop

    spans = _map_spans(buf, start, stop, data_end, depth)
    kind_span = spans.pop(_KIND, None)
    if kind_span is None:
        raise WireValueError("mapping without __kind__ tag")
    kind, _ = _plain(buf, kind_span[0], data_end, depth + 1)
    if not isinstance(kind, str):
        raise WireValueError("__kind__ tag is not a string")
    return _packed_tagged(buf, spans, kind, data_end, depth + 1), stop


def _packed_tagged(
    buf: memoryview,
    spans: dict[str, tuple[int, int]],
    kind: str,
    data_end: int,
    depth: int,
) -> Any:
    """Build the value of a *kind*-tagged map from the *spans* of its
    other entries, which sit at *depth*."""

    def only(*keys: str) -> list[int]:
        """Where the values of *keys* start — which must be exactly the
        keys the map has: one missing or one extra is not what
        :func:`pack` writes."""
        if spans.keys() != set(keys):
            raise WireValueError(
                f"{kind} wire value must have exactly the keys "
                f"{sorted(keys)}, not {sorted(spans)}"
            )
        return [spans[key][0] for key in keys]

    if kind in _SCHEMA:
        cls, fields = _SCHEMA[kind]
        only(*fields)
        values = {
            name: _READ[how](buf, spans[name][0], data_end, depth)
            for name, how in fields.items()
        }
        try:
            # One typed rejection for every crafted field a validator
            # would otherwise fail on with a builtin error: the request's
            # orders rate/start/end, the DN's calls str methods on both
            # halves of each RDN.
            return cls(**values)
        except (TypeError, ValueError, AttributeError) as exc:
            raise WireValueError(str(exc)) from exc
    if kind in ("+inf", "-inf"):
        only()
        return float(kind)
    if kind == "seq":
        (items,) = only("items")
        return tuple(
            _packed(buf, item, data_end, depth + 1)[0]
            for item, _ in _elements(buf, items, data_end, depth)
        )
    if kind == "map":
        (items,) = only("items")
        tag, start, stop = _frame(buf, items, data_end)
        if tag != _T_MAP:
            raise WireTagError("map wire items is not a mapping")
        if depth > _MAX_DEPTH:
            raise WireDepthError("encoded nesting exceeds maximum depth 200")
        return {
            k: _packed(buf, vpos, data_end, depth + 1)[0]
            for k, (vpos, _) in _map_spans(
                buf, start, stop, data_end, depth
            ).items()
        }
    if kind == "dscp":
        (value,) = only("value")
        return _dscp_at(buf, value, data_end, depth)
    if kind == "pubkey":
        scheme, raw = only("scheme", "material")
        material: list[Any] = []
        try:
            for t, v in _plain(buf, raw, data_end, depth)[0]:
                material.append(int(v) if t == "int" else v)
        except (TypeError, ValueError) as exc:
            raise WireValueError(str(exc)) from exc
        return PublicKey(
            _plain(buf, scheme, data_end, depth)[0], tuple(material)
        )
    raise WireValueError(f"unknown __kind__ tag {kind!r}")


class WireView:
    """A zero-copy, lazily materialized view over one wire message.

    ``parse`` validates only the outer frame; ``kind``/``peek`` skip
    across inner frames to answer single-field questions without
    decoding; ``materialize`` runs the fused single-pass decode (the
    one ingress uses) and caches the result.  It accepts exactly what
    :func:`to_wire` writes, and what it accepts the reference
    :func:`from_wire` decodes to an equal value; every decode failure
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
        pass, cached).  The partial inverse of :func:`to_wire`: a buffer
        is accepted only if it is, byte for byte, what the encoder
        writes for the value it decodes to."""
        if not self._decoded:
            data_end = len(self._buf)
            value, end = _packed(self._buf, 0, data_end, 0)
            if end != data_end:
                raise WireValueError(
                    f"{data_end - end} trailing bytes after value"
                )
            if to_wire(value) != bytes(self._buf):
                raise WireValueError(
                    "not the encoding of the value it decodes to"
                )
            self._value = value
            self._decoded = True
        return self._value
