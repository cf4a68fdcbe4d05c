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
  written here; only the modular exponentiation runs in OpenSSL, in the
  ``libcrypto`` that :mod:`hashlib` already links (:class:`_Modulus`).
  A key is put into OpenSSL's form once, the first time it signs or
  verifies; private exponents then run constant-time
  (``BN_mod_exp_mont_consttime``) and the public one variable-time
  (``BN_mod_exp_mont``), as in OpenSSL's own RSA.  On a 2-core x86-64
  host with OpenSSL 3, a 1024-bit sign costs ≈0.12 ms, a verify
  ≈0.012 ms and a key pair ≈9 ms.
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
import hashlib
import random
import weakref
from dataclasses import dataclass, field
from typing import Any, Callable, NamedTuple, Protocol, TypeVar, runtime_checkable

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

#: OpenSSL's ``BN_FLG_CONSTTIME``: a BIGNUM that carries it takes the
#: constant-time path in every call that reads it, ``BN_MONT_CTX_set``
#: included.
_BN_FLG_CONSTTIME = 0x04

#: OpenSSL's BIGNUM calls, opened by :func:`_libcrypto` on first RSA use
#: so that simulated-key runs never load ``ctypes``.
_LIBCRYPTO: Any = None


def _libcrypto() -> Any:
    """The BIGNUM calls, reached through the ``_hashlib`` extension that
    every CPython with ``hashlib`` loads: ``dlsym`` on its handle also
    searches the ``libcrypto`` it links, so no library is looked up by
    name and no package is added."""
    global _LIBCRYPTO
    if _LIBCRYPTO is None:
        import ctypes

        lib = ctypes.CDLL(_hashlib.__file__)
        ptr = ctypes.c_void_p
        for name, restype, argtypes in (
            ("BN_CTX_new", ptr, []),
            ("BN_CTX_free", None, [ptr]),
            ("BN_new", ptr, []),
            ("BN_bin2bn", ptr, [ctypes.c_char_p, ctypes.c_int, ptr]),
            ("BN_bn2binpad", ctypes.c_int, [ptr, ctypes.c_char_p, ctypes.c_int]),
            ("BN_set_flags", None, [ptr, ctypes.c_int]),
            ("BN_clear_free", None, [ptr]),
            ("BN_MONT_CTX_new", ptr, []),
            ("BN_MONT_CTX_set", ctypes.c_int, [ptr, ptr, ptr]),
            ("BN_MONT_CTX_free", None, [ptr]),
            ("BN_mod_exp_mont", ctypes.c_int, [ptr] * 6),
            ("BN_mod_exp_mont_consttime", ctypes.c_int, [ptr] * 6),
            ("ERR_clear_error", None, []),
        ):
            func = getattr(lib, name)
            func.restype = restype
            func.argtypes = argtypes
        _LIBCRYPTO = lib
    return _LIBCRYPTO


def _refused(lib: Any) -> CryptoError:
    lib.ERR_clear_error()  # hashlib must not read it as its own
    return CryptoError("modular exponentiation refused by libcrypto")


def _release(lib: Any, nums: tuple[int | None, ...], mont: int | None) -> None:
    for num in nums:
        lib.BN_clear_free(num)
    lib.BN_MONT_CTX_free(mont)


class _Modulus:
    """An odd modulus > 1 and one exponent in OpenSSL's form, prepared
    once: two BIGNUMs and the modulus' ``BN_MONT_CTX``.  Each
    :meth:`pow` converts only its base and its result.

    :meth:`secret` prepares a private operation (a CRT half, a
    Miller–Rabin witness): both BIGNUMs carry ``BN_FLG_CONSTTIME``
    before the Montgomery context is set, and :meth:`pow` runs
    ``BN_mod_exp_mont_consttime``.  :meth:`public` prepares ``e`` modulo
    ``n``, whose :meth:`pow` runs the variable-time ``BN_mod_exp_mont``
    — what OpenSSL's own RSA public path does.

    The C memory belongs to this one object: a finalizer clears and
    frees it when the object dies.  A deep copy is the object itself,
    and it cannot be pickled.  A modulus the library cannot take (even, or at
    most 1) raises :class:`CryptoError` naming no operand.
    """

    __slots__ = ("_size", "_buffer", "_exp", "_mod", "_exponent", "_mont",
                 "finalizer", "__weakref__")

    def __init__(self, modulus: int, exponent: int, *, consttime: bool) -> None:
        if modulus <= 1 or not modulus & 1:
            raise CryptoError("modular exponentiation needs an odd modulus > 1")
        lib = _libcrypto()
        import ctypes  # loaded by _libcrypto

        self._size = (modulus.bit_length() + 7) // 8
        self._buffer = ctypes.c_char * self._size
        self._exp = (lib.BN_mod_exp_mont_consttime if consttime
                     else lib.BN_mod_exp_mont)
        nums: list[int | None] = []
        for value in (modulus, exponent):
            raw = value.to_bytes((value.bit_length() + 7) // 8, "big")
            nums.append(lib.BN_bin2bn(raw, len(raw), None))
        self._mod, self._exponent = nums
        self._mont = lib.BN_MONT_CTX_new()
        self.finalizer = weakref.finalize(
            self, _release, lib, (self._mod, self._exponent), self._mont
        )
        if None in nums or self._mont is None:
            raise _refused(lib)
        if consttime:
            for num in nums:
                lib.BN_set_flags(num, _BN_FLG_CONSTTIME)
        ctx = lib.BN_CTX_new()
        try:
            if ctx is None or lib.BN_MONT_CTX_set(self._mont, self._mod, ctx) != 1:
                raise _refused(lib)
        finally:
            lib.BN_CTX_free(ctx)

    @classmethod
    def secret(cls, modulus: int, exponent: int) -> "_Modulus":
        return cls(modulus, exponent, consttime=True)

    @classmethod
    def public(cls, modulus: int, exponent: int) -> "_Modulus":
        return cls(modulus, exponent, consttime=False)

    def pow(self, base: int) -> int:
        """``base^exponent mod modulus`` for a non-negative *base*; each
        call owns its ``BN_CTX`` and two BIGNUMs and clears them before
        it returns, whatever happened."""
        lib = _LIBCRYPTO
        size = self._size
        raw = base.to_bytes((base.bit_length() + 7) // 8, "big")
        ctx = lib.BN_CTX_new()
        num = lib.BN_bin2bn(raw, len(raw), None)
        result = lib.BN_new()
        try:
            out = self._buffer()
            if (ctx is None or num is None or result is None
                    or self._exp(result, num, self._exponent, self._mod,
                                 ctx, self._mont) != 1
                    or lib.BN_bn2binpad(result, out, size) != size):
                raise _refused(lib)
            return int.from_bytes(out.raw, "big")
        finally:
            lib.BN_clear_free(num)
            lib.BN_clear_free(result)
            lib.BN_CTX_free(ctx)

    def __deepcopy__(self, memo: dict[int, Any]) -> "_Modulus":
        return self

    def __reduce__(self) -> Any:
        raise TypeError("a prepared modulus lives in libcrypto; it cannot be pickled")


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
    witness = _Modulus.secret(n, d)
    for _ in range(rounds):
        a = rng.randrange(2, n - 1)
        x = witness.pow(a)
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
    witnesses of key generation included, is :meth:`_Modulus.pow`.  No
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
        key, half_p, half_q, check = _prepared(private, _prepare_private)
        h = self._digest_int(message, key.n)
        m1 = half_p.pow(h)
        m2 = half_q.pow(h)
        sig = m2 + key.q * ((key.qinv * (m1 - m2)) % key.p)
        if check.pow(sig) != h:
            raise CryptoError("RSA signature failed its own check (faulty key)")
        return sig.to_bytes((key.n.bit_length() + 7) // 8, "big")

    def verify(self, public: PublicKey, message: bytes, signature: bytes) -> bool:
        if public.scheme != self.name:
            return False
        # Two ints: an odd 1 < n of at most RSA_MAX_MODULUS_BITS (what
        # the kernel accepts, at a bounded cost) and the one public
        # exponent, or nothing verifies — and nothing is prepared.
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
        modulus = _prepared(public, _prepare_public)
        return modulus.pow(sig) == self._digest_int(message, n)


class _PreparedPrivate(NamedTuple):
    """An RSA private key in OpenSSL's form: each CRT half's prime with
    its exponent, and ``e`` modulo ``n`` for the self-check."""

    key: _RSAPrivate
    half_p: _Modulus
    half_q: _Modulus
    check: _Modulus


def _prepare_private(material: tuple) -> _PreparedPrivate:
    try:
        key = _RSAPrivate(*material)
    except TypeError:
        raise CryptoError(
            "RSA private key material must be (n, e, p, q, dp, dq, qinv)"
        ) from None
    return _PreparedPrivate(
        key,
        _Modulus.secret(key.p, key.dp),
        _Modulus.secret(key.q, key.dq),
        _Modulus.public(key.n, key.e),
    )


def _prepare_public(material: tuple) -> _Modulus:
    n, e = material
    return _Modulus.public(n, e)


#: The ``__dict__`` slot that holds a key's prepared form.
_PREPARED = "_libcrypto_prepared"
_P = TypeVar("_P")


def _prepared(key: PublicKey | PrivateKey, prepare: Callable[[tuple], _P]) -> _P:
    """*key*'s material in OpenSSL's form, made by *prepare* the first
    time the key signs or verifies and kept in the key's own
    ``__dict__``, as :func:`canonical.memoised` keeps bytes: it dies
    with the key, ``copy.copy`` shares it, and ``dataclasses.replace``
    builds a key that prepares its own."""
    try:
        state: _P = key.__dict__[_PREPARED]
    except KeyError:
        state = key.__dict__[_PREPARED] = prepare(key.material)
    return state


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
