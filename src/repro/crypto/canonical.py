"""Canonical, deterministic byte encoding of structured values for signing.

Digital signatures in the signalling protocol cover *structured* content:
reservation specifications, nested signed envelopes, certificate fields.
Two parties must derive the identical byte string from the identical
logical value, otherwise signatures are not portable.  This module defines
a small, self-describing, deterministic encoding ("CBE" — canonical byte
encoding) with the following properties:

* **Deterministic** — mappings are encoded in sorted key order; there is
  exactly one encoding per value.
* **Injective** — distinct values never share an encoding.  Every item is
  length-prefixed and type-tagged, so concatenation ambiguities (the
  classic ``("ab","c")`` vs ``("a","bc")`` problem) cannot occur.
* **Closed** — only a fixed set of types is supported; anything else
  raises :class:`~repro.errors.EncodingError`.  In particular floats are
  encoded via their IEEE-754 hex representation so that equality of
  encodings matches equality of values.

Supported types: ``None``, ``bool``, ``int``, ``float``, ``str``,
``bytes`` (and ``bytearray``/``memoryview``), ``tuple``/``list`` (both
encode as sequences), ``dict`` with string keys, and any object exposing
``to_cbe()`` returning a supported value.  An instance of a subclass of a
supported type (an ``IntEnum`` or ``str`` enum member, a named tuple)
encodes as its base type.

**Encode once.**  :func:`encode` is the one encoder.  It writes frames
into one buffer, picking each value's handler by looking its *exact* type
up in :data:`_HANDLERS`; any other type takes :func:`_encode_other`, the
``isinstance`` checks.  A container's length is filled in after its
items, so nested items are never copied twice.  An object that exposes
``cbe_bytes()`` has its *already encoded* bytes spliced in directly.
Because the encoding is compositional (a container's encoding is the
concatenation of its items' encodings under a tagged length prefix),
this is byte-identical to encoding ``to_cbe()``.  The immutable protocol
values — names, public keys, certificates, assertions, signed envelopes
— memoise their bytes with :func:`memoised`.  So a value is encoded
once, when it is first needed, and every certificate, envelope and
message that carries it splices those bytes.  A memo belongs to one
object and is derived from its own fields; the only other way one is
set is :func:`set_memo`, by the signer that has just built the signed
object's bytes.  A signer builds two mappings that share their values —
the signed portion and the whole object — so it encodes the values once
(:func:`encode_values`) and each mapping splices them as
:class:`Encoded`.  There is no cache keyed by content and no
process-wide table.

The encoding is *not* meant to be a wire format for interoperability with
other software — it is the reproduction's stand-in for DER.
"""

from __future__ import annotations

import functools
import hashlib
import math
import struct
from typing import Any, Callable, Mapping, TypeVar

from repro.errors import EncodingError

__all__ = [
    "encode", "decode", "digest", "fingerprint", "memoised", "set_memo",
    "Encoded", "encode_values",
]

_S = TypeVar("_S")
_R = TypeVar("_R")

# One-byte type tags.  Kept stable forever: signatures depend on them.
_TAG_NONE = b"N"
_TAG_TRUE = b"T"
_TAG_FALSE = b"F"
_TAG_INT = b"I"
_TAG_FLOAT = b"D"
_TAG_STR = b"S"
_TAG_BYTES = b"B"
_TAG_SEQ = b"L"
_TAG_MAP = b"M"


#: A frame header: the type tag, then the payload length (big-endian).
_head = struct.Struct(">cI").pack
#: Fills in a container's length once its items are written.
_pack_length = struct.Struct(">I").pack_into


def _encode_int(value: int, buf: bytearray, depth: int) -> None:
    # Sign-magnitude decimal keeps arbitrary precision and determinism.
    try:
        digits = str(value).encode("ascii")
    except ValueError as exc:  # beyond sys.get_int_max_str_digits()
        raise EncodingError(
            "integer is too large to encode in decimal"
        ) from exc
    buf += _head(_TAG_INT, len(digits))
    buf += digits


def _encode_float(value: float, buf: bytearray, depth: int) -> None:
    if not math.isfinite(value):
        raise EncodingError("non-finite floats are not encodable")
    text = value.hex().encode("ascii")
    buf += _head(_TAG_FLOAT, len(text))
    buf += text


def _encode_str(value: str, buf: bytearray, depth: int) -> None:
    try:
        data = value.encode()
    except UnicodeEncodeError as exc:  # a lone surrogate
        raise EncodingError("string is not valid unicode") from exc
    buf += _head(_TAG_STR, len(data))
    buf += data


def _encode_bytes(value: bytes, buf: bytearray, depth: int) -> None:
    buf += _head(_TAG_BYTES, len(value))
    buf += value


def _too_deep() -> EncodingError:
    return EncodingError("value nesting exceeds maximum depth 200")


def _encode_seq(value: tuple[Any, ...] | list[Any], buf: bytearray, depth: int) -> None:
    if value and depth >= 200:
        raise _too_deep()
    at = len(buf)
    buf += _head(_TAG_SEQ, 0)
    depth += 1
    handler = _HANDLERS.get
    for item in value:
        handler(type(item), _encode_other)(item, buf, depth)
    _pack_length(buf, at + 1, len(buf) - at - 5)


def _encode_map(value: dict[Any, Any], buf: bytearray, depth: int) -> None:
    try:
        keys = sorted(value)
    except TypeError as exc:  # mixed / non-string keys
        raise EncodingError("mapping keys must be strings") from exc
    at = len(buf)
    buf += _head(_TAG_MAP, 0)
    depth += 1
    handler = _HANDLERS.get
    for key in keys:
        if not isinstance(key, str):
            raise EncodingError(
                f"mapping keys must be strings, got {type(key).__name__}"
            )
        if depth > 200:
            raise _too_deep()
        # The key inline, as _encode_str would write it: this loop is
        # the encoder's hottest.
        try:
            data = key.encode()
        except UnicodeEncodeError as exc:
            raise EncodingError("string is not valid unicode") from exc
        buf += _head(_TAG_STR, len(data))
        buf += data
        item = value[key]
        handler(type(item), _encode_other)(item, buf, depth)
    _pack_length(buf, at + 1, len(buf) - at - 5)


#: The supported types; an instance of a subclass of one is encoded as one.
_SUPPORTED = (int, float, str, bytes, bytearray, memoryview, tuple, list, dict)


def _encode_other(value: Any, buf: bytearray, depth: int) -> None:
    """Every type without an exact entry in :data:`_HANDLERS`: subclasses
    of the supported types (``IntEnum``, ``str`` enums, ``bytearray``,
    ``memoryview``, named tuples, ...), then protocol objects."""
    if not isinstance(value, _SUPPORTED):
        if hasattr(value, "cbe_bytes"):
            # An immutable object that memoises its encoding: splice it.
            buf += value.cbe_bytes()
        elif hasattr(value, "to_cbe"):
            plain = value.to_cbe()
            if depth >= 200:
                raise _too_deep()
            _HANDLERS.get(type(plain), _encode_other)(plain, buf, depth + 1)
        else:
            raise EncodingError(f"type {type(value).__name__} is not encodable")
    elif isinstance(value, int):
        _encode_int(value, buf, depth)
    elif isinstance(value, float):
        _encode_float(value, buf, depth)
    elif isinstance(value, str):
        _encode_str(value, buf, depth)
    elif isinstance(value, (tuple, list)):
        _encode_seq(value, buf, depth)
    elif isinstance(value, dict):
        _encode_map(value, buf, depth)
    else:
        _encode_bytes(bytes(value), buf, depth)


class Encoded:
    """One value's canonical bytes, already written: :func:`encode`
    splices them unchanged wherever the value stands."""

    __slots__ = ("data",)

    def __init__(self, data: bytes) -> None:
        self.data = data


def _encode_encoded(value: Encoded, buf: bytearray, depth: int) -> None:
    buf += value.data


def _encode_none(value: None, buf: bytearray, depth: int) -> None:
    buf += _head(_TAG_NONE, 0)


def _encode_bool(value: bool, buf: bytearray, depth: int) -> None:
    buf += _head(_TAG_TRUE if value else _TAG_FALSE, 0)


#: The handler for each supported type, looked up by the value's *exact*
#: type; anything else goes through :func:`_encode_other`.
_HANDLERS: dict[type[Any], Callable[[Any, bytearray, int], None]] = {
    type(None): _encode_none,
    bool: _encode_bool,
    int: _encode_int,
    float: _encode_float,
    str: _encode_str,
    bytes: _encode_bytes,
    tuple: _encode_seq,
    list: _encode_seq,
    dict: _encode_map,
    Encoded: _encode_encoded,
}


def encode(value: Any) -> bytes:
    """Return the canonical byte encoding of *value*.

    Raises :class:`~repro.errors.EncodingError` for unsupported types,
    non-finite floats, integers beyond the interpreter's decimal limit,
    strings that are not valid unicode, non-string mapping keys, or
    excessive nesting.
    """
    buf = bytearray()
    _HANDLERS.get(type(value), _encode_other)(value, buf, 0)
    return bytes(buf)


def encode_values(mapping: Mapping[str, Any], depth: int) -> dict[str, Any]:
    """*mapping* with each value encoded once, as :func:`encode` writes it
    *depth* containers deep: an :class:`Encoded`, or the value itself when
    it memoises its own bytes.  Mappings built from the result encode
    byte-identically to the same mappings built from *mapping*."""
    out: dict[str, Any] = {}
    for key, value in mapping.items():
        if hasattr(value, "cbe_bytes"):
            out[key] = value
            continue
        buf = bytearray()
        _HANDLERS.get(type(value), _encode_other)(value, buf, depth)
        out[key] = Encoded(bytes(buf))
    return out


def memoised(method: Callable[[_S], _R]) -> Callable[[_S], _R]:
    """Memoise a no-argument method of an immutable object.

    The value is kept in the object's own ``__dict__``, so it is derived
    from that object's fields and dies with it; ``dataclasses.replace``
    builds a new object that computes its own.  :func:`set_memo` is the
    one other way a memo is set.
    """
    slot = f"_{method.__name__}_memo"

    @functools.wraps(method)
    def read(self: _S) -> _R:
        try:
            value: _R = self.__dict__[slot]
        except KeyError:
            value = self.__dict__[slot] = method(self)
        return value

    return read


def set_memo(target: object, name: str, value: Any) -> None:
    """Give *target* *value* as the memo of its method *name*.

    Used only where signing makes *target*: the signer has just encoded
    the signed portion and the whole object from *target*'s own fields,
    so *value* is what the method would compute.
    """
    target.__dict__[f"_{name}_memo"] = value


def _decode_at(data: bytes, pos: int, depth: int) -> tuple[Any, int]:
    if depth > 200:
        raise EncodingError("encoded nesting exceeds maximum depth 200")
    if pos + 5 > len(data):
        raise EncodingError("truncated encoding (missing tag/length)")
    tag = data[pos:pos + 1]
    (length,) = struct.unpack(">I", data[pos + 1:pos + 5])
    start = pos + 5
    end = start + length
    if end > len(data):
        raise EncodingError("truncated encoding (payload shorter than length)")
    payload = data[start:end]
    if tag == _TAG_NONE:
        if length:
            raise EncodingError("None payload must be empty")
        return None, end
    if tag in (_TAG_TRUE, _TAG_FALSE):
        if length:
            raise EncodingError("boolean payload must be empty")
        return tag == _TAG_TRUE, end
    if tag == _TAG_INT:
        try:
            value = int(payload.decode("ascii"))
        except (UnicodeDecodeError, ValueError) as exc:
            raise EncodingError("malformed integer payload") from exc
        # Strict canonical form: exactly the digits encode() would emit
        # (rejects leading zeros, "+1", whitespace, "-0", ...).
        if str(value).encode("ascii") != payload:
            raise EncodingError("non-canonical integer payload")
        return value, end
    if tag == _TAG_FLOAT:
        try:
            value = float.fromhex(payload.decode("ascii"))
        except (UnicodeDecodeError, ValueError, OverflowError) as exc:
            raise EncodingError("malformed float payload") from exc
        if value != value or value in (float("inf"), float("-inf")):
            raise EncodingError("non-finite float payload")
        if value.hex().encode("ascii") != payload:
            raise EncodingError("non-canonical float payload")
        return value, end
    if tag == _TAG_STR:
        try:
            return payload.decode("utf-8"), end
        except UnicodeDecodeError as exc:
            raise EncodingError("malformed utf-8 string payload") from exc
    if tag == _TAG_BYTES:
        return payload, end
    if tag == _TAG_SEQ:
        items = []
        inner = start
        while inner < end:
            item, inner = _decode_at(data, inner, depth + 1)
            items.append(item)
        if inner != end:
            raise EncodingError("sequence payload length mismatch")
        return items, end
    if tag == _TAG_MAP:
        mapping: dict[str, Any] = {}
        inner = start
        previous_key: str | None = None
        while inner < end:
            key, inner = _decode_at(data, inner, depth + 1)
            if not isinstance(key, str):
                raise EncodingError("mapping key is not a string")
            # Strict canonical form: encode() emits keys in sorted order
            # exactly once, so out-of-order or duplicate keys cannot be
            # the output of encode() and must be rejected (otherwise two
            # distinct byte strings could decode to the same value —
            # the injectivity the signatures rely on, in reverse).
            if previous_key is not None and key <= previous_key:
                raise EncodingError(
                    "non-canonical mapping (duplicate or unsorted keys)"
                )
            previous_key = key
            value, inner = _decode_at(data, inner, depth + 1)
            mapping[key] = value
        if inner != end:
            raise EncodingError("mapping payload length mismatch")
        return mapping, end
    raise EncodingError(f"unknown type tag {tag!r}")


def decode(data: bytes) -> Any:
    """Parse a canonical byte encoding back into plain Python values.

    The inverse of :func:`encode` up to container normalisation:
    sequences come back as lists.  Raises
    :class:`~repro.errors.EncodingError` on malformed input (bad tags,
    truncation, trailing bytes).
    """
    value, end = _decode_at(bytes(data), 0, 0)
    if end != len(data):
        raise EncodingError(f"{len(data) - end} trailing bytes after value")
    return value


def digest(value: Any) -> bytes:
    """Return the SHA-256 digest of the canonical encoding of *value*."""
    return hashlib.sha256(encode(value)).digest()


def fingerprint(value: Any, length: int = 16) -> str:
    """Return a short hex fingerprint of *value* (for handles, logging)."""
    return digest(value).hex()[:length]
