"""Key pairs and signature schemes.

The signalling protocol of the paper rests on one primitive: a party signs
a structured value with its private key, and any holder of the matching
public key can verify the signature.  This module provides two
interchangeable implementations behind the :class:`SignatureScheme`
protocol:

* :class:`RSAScheme` — genuine textbook RSA with Miller–Rabin key
  generation and hash-then-sign (``sig = H(m)^d mod n``, computed modulo
  each prime and recombined by the CRT).  Keys default to 1024 bits,
  adequate for a simulation substrate and fast enough to generate in
  bulk.  This is the reproduction's stand-in for the OpenSSL
  RSA keys the 2001 deployment would have used.  The key arithmetic is
  written here; only the modular exponentiation runs in OpenSSL
  (:func:`_modexp`, constant-time ``BN_mod_exp_mont_consttime`` from
  the ``libcrypto`` that :mod:`hashlib` already links).  On a 2-core
  x86-64 host with OpenSSL 3, one exponentiation modulo a 512-bit prime
  takes ≈0.1 ms there against ≈0.9 ms in Python's ``pow``, so a
  1024-bit sign costs ≈0.25 ms, a verify ≈0.06 ms and a key pair
  ≈10 ms.
* :class:`SimulatedScheme` — a *non-cryptographic* scheme for large-scale
  benchmarks.  Signing hashes the private seed with the message; the
  public key carries the seed so verification can recompute the hash.
  It preserves the two properties the protocol logic depends on — any
  message or key mismatch is detected, and only the correct key pair
  produces accepting signatures inside an honest simulation — but offers
  **no security against an adversary who inspects public keys**.  Its use
  is flagged via :attr:`SignatureScheme.secure`.

All randomness is drawn from an injected :class:`random.Random`, making
key generation reproducible; no global RNG state is touched.
"""

from __future__ import annotations

import _hashlib
import ctypes
import hashlib
import random
from dataclasses import dataclass, field
from typing import Any, NamedTuple, Protocol, runtime_checkable

from repro.crypto import canonical
from repro.errors import CryptoError

__all__ = [
    "PublicKey",
    "PrivateKey",
    "KeyPair",
    "SignatureScheme",
    "RSA_PUBLIC_EXPONENT",
    "RSA_MAX_MODULUS_BITS",
    "RSAScheme",
    "SimulatedScheme",
    "get_scheme",
    "register_scheme",
]


@dataclass(frozen=True)
class PublicKey:
    """A public key: a scheme name plus scheme-specific material."""

    scheme: str
    material: tuple
    #: Short identifier derived from the key material; used for logging
    #: and for matching certificates to keys.
    key_id: str = field(init=False)

    def __post_init__(self) -> None:
        blob = repr((self.scheme, self.material)).encode()
        object.__setattr__(self, "key_id", hashlib.sha256(blob).hexdigest()[:16])

    def to_cbe(self) -> Any:
        return {"scheme": self.scheme, "material": [str(m) for m in self.material]}

    @canonical.memoised
    def cbe_bytes(self) -> bytes:
        """Canonical bytes of :meth:`to_cbe`, encoded once per key and
        spliced into every certificate that binds it."""
        return canonical.encode(self.to_cbe())

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"PublicKey({self.scheme}, id={self.key_id})"


@dataclass(frozen=True)
class PrivateKey:
    """A private key.  Never placed inside messages or certificates."""

    scheme: str
    material: tuple

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"PrivateKey({self.scheme}, <secret>)"


@dataclass(frozen=True)
class KeyPair:
    """A matched (private, public) pair produced by a scheme's keygen."""

    private: PrivateKey
    public: PublicKey

    @property
    def scheme(self) -> str:
        return self.public.scheme


@runtime_checkable
class SignatureScheme(Protocol):
    """Interface all signature schemes implement."""

    #: Registry name of the scheme ("rsa", "simulated").
    name: str
    #: True when the scheme offers actual cryptographic security.
    secure: bool

    def generate(self, rng: random.Random) -> KeyPair:  # pragma: no cover
        """Generate a fresh key pair using *rng* as the entropy source."""
        ...

    def sign(self, private: PrivateKey, message: bytes) -> bytes:  # pragma: no cover
        """Return a signature over *message*."""
        ...

    def verify(self, public: PublicKey, message: bytes, signature: bytes) -> bool:  # pragma: no cover
        """Return True iff *signature* is valid for *message* under *public*.

        Key material arrives from peers: anything that is not well-formed
        for the scheme answers False, never an exception."""
        ...


# ---------------------------------------------------------------------------
# RSA
# ---------------------------------------------------------------------------

def _open_libcrypto() -> ctypes.CDLL:
    """OpenSSL's BIGNUM calls, reached through the ``_hashlib`` extension
    that every CPython with ``hashlib`` loads: ``dlsym`` on its handle
    also searches the ``libcrypto`` it links, so no library is looked
    up by name and no package is added."""
    lib = ctypes.CDLL(_hashlib.__file__)
    ptr = ctypes.c_void_p
    for name, restype, argtypes in (
        ("BN_CTX_new", ptr, []),
        ("BN_CTX_free", None, [ptr]),
        ("BN_bin2bn", ptr, [ctypes.c_char_p, ctypes.c_int, ptr]),
        ("BN_bn2binpad", ctypes.c_int, [ptr, ctypes.c_char_p, ctypes.c_int]),
        ("BN_clear_free", None, [ptr]),
        ("BN_mod_exp_mont_consttime", ctypes.c_int, [ptr] * 6),
        ("ERR_clear_error", None, []),
    ):
        func = getattr(lib, name)
        func.restype = restype
        func.argtypes = argtypes
    return lib


_LIBCRYPTO = _open_libcrypto()


def _modexp(base: int, exponent: int, modulus: int) -> int:
    """``base^exponent mod modulus`` for non-negative *base* and
    *exponent* and an odd *modulus* > 1, by OpenSSL's constant-time
    Montgomery exponentiation — every modular exponentiation in this
    module, secret or public, takes this one path.

    Each call owns its ``BN_CTX`` and its BIGNUMs and clears them
    (``BN_clear_free``) before it returns, whatever happened.  A refusal
    by the library (an even modulus, an allocation failure) raises
    :class:`CryptoError` naming no operand.
    """
    lib = _LIBCRYPTO
    size = (modulus.bit_length() + 7) // 8
    nums: list[int | None] = []  # result, base, exponent, modulus
    ctx = lib.BN_CTX_new()
    try:
        for value in (0, base, exponent, modulus):
            raw = value.to_bytes((value.bit_length() + 7) // 8, "big")
            nums.append(lib.BN_bin2bn(raw, len(raw), None))
        out = ctypes.create_string_buffer(size)
        if (ctx is None or None in nums
                or lib.BN_mod_exp_mont_consttime(*nums, ctx, None) != 1
                or lib.BN_bn2binpad(nums[0], out, size) != size):
            lib.ERR_clear_error()  # hashlib must not read it as its own
            raise CryptoError("modular exponentiation refused by libcrypto")
        return int.from_bytes(out.raw, "big")
    finally:
        for num in nums:
            lib.BN_clear_free(num)
        lib.BN_CTX_free(ctx)


_SMALL_PRIMES = [
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67,
    71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113, 127, 131, 137, 139, 149,
    151, 157, 163, 167, 173, 179, 181, 191, 193, 197, 199, 211, 223, 227, 229,
]


def _is_probable_prime(n: int, rng: random.Random, rounds: int = 24) -> bool:
    """Miller–Rabin primality test with *rounds* random bases."""
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for _ in range(rounds):
        a = rng.randrange(2, n - 1)
        x = _modexp(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = (x * x) % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _random_prime(bits: int, rng: random.Random) -> int:
    """Return a random probable prime of exactly *bits* bits."""
    while True:
        candidate = rng.getrandbits(bits) | (1 << (bits - 1)) | 1
        if _is_probable_prime(candidate, rng):
            return candidate


#: The one RSA public exponent: every key this module generates uses
#: it, and a verifier accepts no other.
RSA_PUBLIC_EXPONENT = 65537
#: The widest modulus a verifier accepts.  Key material arrives from
#: peers, and the cost of a verify grows with the modulus' width.
RSA_MAX_MODULUS_BITS = 4096


class _RSAPrivate(NamedTuple):
    """An RSA private key in CRT form: ``d`` itself is not kept."""

    n: int
    e: int
    p: int
    q: int
    dp: int  # d mod (p - 1)
    dq: int  # d mod (q - 1)
    qinv: int  # q^-1 mod p


class RSAScheme:
    """Textbook RSA with hash-then-sign.

    The signature is ``int(SHA-256(message))^d mod n``, computed by the
    Chinese remainder theorem: one half-size exponentiation modulo each
    prime, recombined with Garner's formula — the same integer at about a
    third of the cost.  Before it is returned the signature is checked
    with the public exponent, so a faulted half can never leak a factor
    of ``n``.  Verification recomputes the digest and checks
    ``sig^e mod n`` against it.  Every exponentiation, the Miller–Rabin
    witnesses of key generation included, is :func:`_modexp`.  No
    padding is applied; for the threat model of a protocol simulation
    (tamper evidence, key binding) this is sufficient and keeps the
    implementation transparent.
    """

    name = "rsa"
    secure = True

    def __init__(self, bits: int = 1024) -> None:
        if bits < 256:
            raise CryptoError("RSA modulus must be at least 256 bits")
        self.bits = bits

    def generate(self, rng: random.Random) -> KeyPair:
        half = self.bits // 2
        e = RSA_PUBLIC_EXPONENT
        while True:
            p = _random_prime(half, rng)
            q = _random_prime(self.bits - half, rng)
            if p == q:
                continue
            n = p * q
            phi = (p - 1) * (q - 1)
            if phi % e == 0:
                continue
            try:
                d = pow(e, -1, phi)
            except ValueError:
                continue
            public = PublicKey(self.name, (n, e))
            private = PrivateKey(self.name, _RSAPrivate(
                n, e, p, q, d % (p - 1), d % (q - 1), pow(q, -1, p),
            ))
            return KeyPair(private, public)

    @staticmethod
    def _digest_int(message: bytes, n: int) -> int:
        return int.from_bytes(hashlib.sha256(message).digest(), "big") % n

    def sign(self, private: PrivateKey, message: bytes) -> bytes:
        if private.scheme != self.name:
            raise CryptoError(f"key scheme {private.scheme!r} != {self.name!r}")
        try:
            n, e, p, q, dp, dq, qinv = _RSAPrivate(*private.material)
        except TypeError:
            raise CryptoError(
                "RSA private key material must be (n, e, p, q, dp, dq, qinv)"
            ) from None
        h = self._digest_int(message, n)
        m1 = _modexp(h, dp, p)
        m2 = _modexp(h, dq, q)
        sig = m2 + q * ((qinv * (m1 - m2)) % p)
        if _modexp(sig, e, n) != h:
            raise CryptoError("RSA signature failed its own check (faulty key)")
        return sig.to_bytes((n.bit_length() + 7) // 8, "big")

    def verify(self, public: PublicKey, message: bytes, signature: bytes) -> bool:
        if public.scheme != self.name:
            return False
        # Two ints: an odd 1 < n of at most RSA_MAX_MODULUS_BITS (what
        # the kernel accepts, at a bounded cost) and the one public
        # exponent, or nothing verifies.
        try:
            n, e = public.material
        except (TypeError, ValueError):
            return False
        if type(n) is not int or type(e) is not int:
            return False
        if (n <= 1 or n % 2 == 0 or n.bit_length() > RSA_MAX_MODULUS_BITS
                or e != RSA_PUBLIC_EXPONENT):
            return False
        try:
            sig = int.from_bytes(signature, "big")
        except (TypeError, ValueError):
            return False
        if not 0 < sig < n:
            return False
        return _modexp(sig, e, n) == self._digest_int(message, n)


# ---------------------------------------------------------------------------
# Simulated scheme
# ---------------------------------------------------------------------------

class SimulatedScheme:
    """Fast hash-based stand-in for a signature scheme.

    ``private = seed``; ``public = (seed,)`` (the seed is embedded so the
    verifier can recompute); ``sign(m) = SHA-256(seed || m)``.  Integrity
    and key-binding hold for honest participants; confidentiality of the
    signing ability does **not** (``secure = False``).  Intended only for
    benchmarks that would otherwise be dominated by RSA arithmetic.
    """

    name = "simulated"
    secure = False

    def generate(self, rng: random.Random) -> KeyPair:
        seed = rng.getrandbits(128).to_bytes(16, "big").hex()
        public = PublicKey(self.name, (seed,))
        private = PrivateKey(self.name, (seed,))
        return KeyPair(private, public)

    @staticmethod
    def _mac(seed: str, message: bytes) -> bytes:
        return hashlib.sha256(seed.encode("ascii") + b"|" + message).digest()

    def sign(self, private: PrivateKey, message: bytes) -> bytes:
        if private.scheme != self.name:
            raise CryptoError(f"key scheme {private.scheme!r} != {self.name!r}")
        return self._mac(private.material[0], message)

    def verify(self, public: PublicKey, message: bytes, signature: bytes) -> bool:
        if public.scheme != self.name:
            return False
        try:
            (seed,) = public.material
        except (TypeError, ValueError):
            return False
        if not isinstance(seed, str) or not seed.isascii():
            return False
        return self._mac(seed, message) == signature


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

_SCHEMES: dict[str, SignatureScheme] = {}


def register_scheme(scheme: SignatureScheme) -> None:
    """Register *scheme* so keys can find their implementation by name."""
    _SCHEMES[scheme.name] = scheme


def get_scheme(name: str) -> SignatureScheme:
    """Return the registered scheme called *name*.

    Raises :class:`~repro.errors.CryptoError` for unknown names.
    """
    try:
        return _SCHEMES[name]
    except KeyError:
        raise CryptoError(f"unknown signature scheme {name!r}") from None


register_scheme(RSAScheme())
register_scheme(SimulatedScheme())
