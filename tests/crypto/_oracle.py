"""The textbook RSA private-key operation — one ``pow(h, d, n)`` over the
full modulus — kept as the reference ``RSAScheme.sign``'s CRT form is
tested against.  ``d`` is rebuilt from the key's primes exactly as key
generation derives it; the digest is recomputed here, not borrowed."""

import hashlib

from repro.crypto.keys import PrivateKey


def textbook_sign(private: PrivateKey, message: bytes) -> bytes:
    """``int(SHA-256(message)) mod n`` raised to ``d`` modulo ``n``."""
    n, e, p, q = private.material[:4]
    d = pow(e, -1, (p - 1) * (q - 1))
    h = int.from_bytes(hashlib.sha256(message).digest(), "big") % n
    return pow(h, d, n).to_bytes((n.bit_length() + 7) // 8, "big")
