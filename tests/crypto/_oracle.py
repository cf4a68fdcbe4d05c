"""Reference implementations the production crypto code is tested against.

* :func:`textbook_sign` — the textbook RSA private-key operation, one
  ``pow(h, d, n)`` over the full modulus, kept as the reference
  ``RSAScheme.sign``'s CRT form is tested against.  ``d`` is rebuilt from
  the key's primes exactly as key generation derives it; the digest is
  recomputed here, not borrowed.
* :func:`reference_encode` — the recursive ``isinstance``-chain canonical
  encoder that ``repro.crypto.canonical.encode`` replaced, unchanged.
  The production encoder must write the same bytes and raise the same
  :class:`~repro.errors.EncodingError` for every value this one handles.
"""

import hashlib
import struct
from typing import Any

from repro.crypto.keys import PrivateKey
from repro.errors import EncodingError


def textbook_sign(private: PrivateKey, message: bytes) -> bytes:
    """``int(SHA-256(message)) mod n`` raised to ``d`` modulo ``n``."""
    n, e, p, q = private.material[:4]
    d = pow(e, -1, (p - 1) * (q - 1))
    h = int.from_bytes(hashlib.sha256(message).digest(), "big") % n
    return pow(h, d, n).to_bytes((n.bit_length() + 7) // 8, "big")


def _emit(parts: list[bytes], tag: bytes, payload: bytes) -> None:
    parts.append(tag)
    parts.append(struct.pack(">I", len(payload)))
    parts.append(payload)


def _encode_into(value: Any, parts: list[bytes], depth: int) -> None:
    if depth > 200:
        raise EncodingError("value nesting exceeds maximum depth 200")
    if value is None:
        _emit(parts, b"N", b"")
    elif value is True:
        _emit(parts, b"T", b"")
    elif value is False:
        _emit(parts, b"F", b"")
    elif isinstance(value, int):
        # Sign-magnitude decimal keeps arbitrary precision and determinism.
        _emit(parts, b"I", str(value).encode("ascii"))
    elif isinstance(value, float):
        if value != value or value in (float("inf"), float("-inf")):
            raise EncodingError("non-finite floats are not encodable")
        _emit(parts, b"D", value.hex().encode("ascii"))
    elif isinstance(value, str):
        _emit(parts, b"S", value.encode("utf-8"))
    elif isinstance(value, (bytes, bytearray, memoryview)):
        _emit(parts, b"B", bytes(value))
    elif isinstance(value, (tuple, list)):
        inner: list[bytes] = []
        for item in value:
            _encode_into(item, inner, depth + 1)
        _emit(parts, b"L", b"".join(inner))
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
        _emit(parts, b"M", b"".join(inner))
    elif hasattr(value, "cbe_bytes"):
        # Pre-encoded immutable object: splice its cached bytes in.
        parts.append(value.cbe_bytes())
    elif hasattr(value, "to_cbe"):
        _encode_into(value.to_cbe(), parts, depth + 1)
    else:
        raise EncodingError(f"type {type(value).__name__} is not encodable")


def reference_encode(value: Any) -> bytes:
    """The canonical byte encoding of *value*, by the recursive walk."""
    parts: list[bytes] = []
    _encode_into(value, parts, 0)
    return b"".join(parts)
