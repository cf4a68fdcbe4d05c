"""Reference implementations the production crypto code is tested against.

* :func:`textbook_sign` — the textbook RSA private-key operation, one
  ``pow(h, d, n)`` over the full modulus, kept as the reference
  ``RSAScheme.sign``'s CRT form is tested against.  ``d`` is rebuilt from
  the key's primes exactly as key generation derives it; the digest is
  recomputed here, not borrowed.
* :func:`wide_exponent_key` — a valid RSA key pair on a pooled key's
  primes whose public exponent is almost as wide as the modulus: the
  hostile key material a verifier must refuse although its signatures
  are correct.
* :func:`reference_encode` — the recursive ``isinstance``-chain canonical
  encoder that ``repro.crypto.canonical.encode`` replaced, unchanged.
  The production encoder must write the same bytes and raise the same
  :class:`~repro.errors.EncodingError` for every value this one handles.
* :func:`split_capability_chains` and :func:`verify_delegation_chain` —
  the two passes a hop ran over a flat capability-certificate list until
  ``repro.crypto.capability.verify_capability_chains`` fused them: the
  partition (which verified each link's signature to attach it) and then
  the §6.5 walk of each chain (which verified every signature again),
  unchanged but for the audit notes.  :func:`checked_chains` runs the
  two: the fused walk must find the same chains, accept the same ones
  with equal results and reject the others.
"""

import hashlib
import math
import struct
from typing import Any, Sequence

from repro.crypto.capability import (
    DelegationResult,
    capability_set,
    check_possession,
    is_capability_certificate,
    restriction_set,
)
from repro.crypto.keys import KeyPair, PrivateKey, PublicKey
from repro.crypto.x509 import Certificate
from repro.errors import DelegationError, EncodingError


def textbook_sign(private: PrivateKey, message: bytes) -> bytes:
    """``int(SHA-256(message)) mod n`` raised to ``d`` modulo ``n``."""
    n, e, p, q = private.material[:4]
    d = pow(e, -1, (p - 1) * (q - 1))
    h = int.from_bytes(hashlib.sha256(message).digest(), "big") % n
    return pow(h, d, n).to_bytes((n.bit_length() + 7) // 8, "big")


def wide_exponent_key(private: PrivateKey) -> KeyPair:
    """The RSA key pair on *private*'s primes with the smallest odd
    public exponent of the modulus' width less four bits that is prime
    to ``(p - 1)(q - 1)``, in the CRT form ``RSAScheme.sign`` takes."""
    material = private.material
    n, p, q = material.n, material.p, material.q
    phi = (p - 1) * (q - 1)
    e = (1 << (n.bit_length() - 5)) | 1
    while math.gcd(e, phi) != 1:
        e += 2
    d = pow(e, -1, phi)
    wide = material._replace(e=e, dp=d % (p - 1), dq=d % (q - 1))
    return KeyPair(PrivateKey("rsa", wide), PublicKey("rsa", (n, e)))


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


def split_capability_chains(
    certs: Sequence[Certificate],
) -> list[tuple[Certificate, ...]]:
    """Partition a flat capability-certificate list into delegation chains.

    Each certificate attaches to the chain whose current tip it chains
    from — issuer DN matches the tip's subject *and* the signature
    verifies under the tip's (proxy) public key.  Certificates that chain
    from nothing seen so far start new chains (the CAS-issued roots).
    """
    chains: list[list[Certificate]] = []
    for cert in certs:
        attached = False
        for chain in chains:
            tip = chain[-1]
            if (
                cert.issuer == tip.subject
                and capability_set(cert) <= capability_set(tip)
                and cert.verify_signature(tip.public_key)
            ):
                chain.append(cert)
                attached = True
                break
        if not attached:
            chains.append([cert])
    return [tuple(chain) for chain in chains]


def verify_delegation_chain(
    chain,
    *,
    trusted_issuers,
    at_time=0.0,
    possession_nonce=None,
    possession_prover=None,
    revocation_checker=None,
) -> DelegationResult:
    """§6.5 checks 1–6 over one chain, root first; every link's signature
    is verified.  Raises :class:`~repro.errors.DelegationError`."""
    if not chain:
        raise DelegationError("empty delegation chain")

    if revocation_checker is not None:
        for idx, cert in enumerate(chain):
            if revocation_checker(cert):
                raise DelegationError(
                    f"chain element {idx} ({cert.subject}, serial "
                    f"{cert.serial}) has been revoked"
                )

    root = chain[0]
    if not is_capability_certificate(root):
        raise DelegationError("root certificate lacks the capability flag")
    issuer_key = trusted_issuers.get(root.issuer)
    if issuer_key is None:
        raise DelegationError(f"capability issuer {root.issuer} is not trusted")
    if not root.verify_signature(issuer_key):
        raise DelegationError(
            f"root capability signature does not verify under issuer {root.issuer}"
        )

    caps = capability_set(root)
    restrictions = restriction_set(root)
    holders = [root.subject]

    prev = root
    for idx, cert in enumerate(chain[1:], start=1):
        if not is_capability_certificate(cert):
            raise DelegationError(f"chain element {idx} lacks the capability flag")
        if not cert.valid_at(at_time):
            raise DelegationError(
                f"chain element {idx} ({cert.subject}) not valid at t={at_time}"
            )
        if cert.issuer != prev.subject:
            raise DelegationError(
                f"chain element {idx} names issuer {cert.issuer}, expected the "
                f"previous subject {prev.subject}"
            )
        if not cert.verify_signature(prev.public_key):
            raise DelegationError(
                f"delegation to {cert.subject} was not signed with the proxy key "
                f"of {prev.subject}"
            )
        child_caps = capability_set(cert)
        if not child_caps <= caps:
            raise DelegationError(
                f"delegation to {cert.subject} widens capabilities: "
                f"{sorted(child_caps - caps)}"
            )
        if not child_caps:
            raise DelegationError(f"delegation to {cert.subject} carries no capabilities")
        child_restrictions = restriction_set(cert)
        if not restrictions <= child_restrictions:
            raise DelegationError(
                f"delegation to {cert.subject} drops restrictions: "
                f"{sorted(restrictions - child_restrictions)}"
            )
        caps = child_caps
        restrictions = child_restrictions
        holders.append(cert.subject)
        prev = cert

    if not root.valid_at(at_time):
        raise DelegationError(f"root capability not valid at t={at_time}")

    if possession_nonce is not None:
        if possession_prover is None:
            raise DelegationError("possession nonce supplied without a prover")
        proof = possession_prover(possession_nonce)
        if not check_possession(chain[-1], possession_nonce, proof):
            raise DelegationError(
                f"final holder failed proof of possession for {chain[-1].subject}"
            )

    return DelegationResult(
        capabilities=frozenset(caps),
        restrictions=frozenset(restrictions),
        holders=tuple(holders),
        issuer=root.issuer,
    )


def checked_chains(certs, **verify_kwargs):
    """``[(chain, result, reason)]``: the partition, then each chain's
    verdict — its result, or ``None`` and the reason
    :func:`verify_delegation_chain` rejected it."""
    out = []
    for chain in split_capability_chains(certs):
        try:
            out.append((chain, verify_delegation_chain(chain, **verify_kwargs), ""))
        except DelegationError as exc:
            out.append((chain, None, str(exc)))
    return out
