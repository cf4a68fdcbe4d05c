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
``bytes``, ``tuple``/``list`` (both encode as sequences), ``dict`` with
string keys, and any object exposing ``to_cbe()`` returning a supported
value (the hook used by certificates and envelopes).

Performance: objects may additionally expose ``cbe_bytes()`` returning
their *already encoded* canonical bytes; the encoder splices those in
directly.  Because the encoding is compositional (a container's encoding
is the concatenation of its items' encodings under a tagged length
prefix), this is semantically identical to re-encoding ``to_cbe()`` —
immutable protocol objects (certificates, signed envelopes) memoize
their bytes this way, which is what keeps deeply nested RAR verification
linear instead of quadratic.

The encoding is *not* meant to be a wire format for interoperability with
other software — it is the reproduction's stand-in for DER.
"""

from __future__ import annotations

import hashlib
import struct
from typing import Any

from repro.errors import EncodingError

__all__ = ["encode", "decode", "digest", "fingerprint"]

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


def _emit(parts: list[bytes], tag: bytes, payload: bytes) -> None:
    parts.append(tag)
    parts.append(struct.pack(">I", len(payload)))
    parts.append(payload)


def _encode_into(value: Any, parts: list[bytes], depth: int) -> None:
    if depth > 200:
        raise EncodingError("value nesting exceeds maximum depth 200")
    if value is None:
        _emit(parts, _TAG_NONE, b"")
    elif value is True:
        _emit(parts, _TAG_TRUE, b"")
    elif value is False:
        _emit(parts, _TAG_FALSE, b"")
    elif isinstance(value, int):
        # Sign-magnitude decimal keeps arbitrary precision and determinism.
        _emit(parts, _TAG_INT, str(value).encode("ascii"))
    elif isinstance(value, float):
        if value != value or value in (float("inf"), float("-inf")):
            raise EncodingError("non-finite floats are not encodable")
        _emit(parts, _TAG_FLOAT, value.hex().encode("ascii"))
    elif isinstance(value, str):
        _emit(parts, _TAG_STR, value.encode("utf-8"))
    elif isinstance(value, (bytes, bytearray, memoryview)):
        _emit(parts, _TAG_BYTES, bytes(value))
    elif isinstance(value, (tuple, list)):
        inner: list[bytes] = []
        for item in value:
            _encode_into(item, inner, depth + 1)
        _emit(parts, _TAG_SEQ, b"".join(inner))
    elif isinstance(value, dict):
        inner = []
        try:
            keys = sorted(value.keys())
        except TypeError as exc:  # mixed / non-string keys
            raise EncodingError("mapping keys must be strings") from exc
        for key in keys:
            if not isinstance(key, str):
                raise EncodingError(
                    f"mapping keys must be strings, got {type(key).__name__}"
                )
            _encode_into(key, inner, depth + 1)
            _encode_into(value[key], inner, depth + 1)
        _emit(parts, _TAG_MAP, b"".join(inner))
    elif hasattr(value, "cbe_bytes"):
        # Pre-encoded immutable object: splice its cached bytes in.
        parts.append(value.cbe_bytes())
    elif hasattr(value, "to_cbe"):
        _encode_into(value.to_cbe(), parts, depth + 1)
    else:
        raise EncodingError(f"type {type(value).__name__} is not encodable")


def encode(value: Any) -> bytes:
    """Return the canonical byte encoding of *value*.

    Raises :class:`~repro.errors.EncodingError` for unsupported types,
    non-finite floats, non-string mapping keys, or excessive nesting.
    """
    parts: list[bytes] = []
    _encode_into(value, parts, 0)
    return b"".join(parts)


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
