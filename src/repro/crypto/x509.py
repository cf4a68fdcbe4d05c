"""X.509-style certificates and certificate authorities.

This is the reproduction's stand-in for the ITU X.509v3 PKI the paper
assumes.  A :class:`Certificate` binds a subject DN to a public key, is
signed by an issuer, and can carry arbitrary v3-style extensions (used by
:mod:`repro.crypto.capability` for capability certificates and by the
Akenti-style engine for attribute certificates).

Timestamps are plain floats on the simulation clock (seconds); the library
never reads the wall clock, keeping every scenario deterministic.

A certificate is encoded once.  :func:`sign_certificate` encodes every
field once, builds the to-be-signed bytes and then the whole
certificate's bytes from them, and gives the signed certificate both as
memos: every later ``verify_signature`` reads the first, and the
envelopes that carry the certificate splice the second.  The issuer and
subject names and the public key stay objects, whose own memoised bytes
are spliced.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field, replace
from hashlib import sha256 as hashlib_sha256
from typing import Any, Callable, Iterable, Mapping, Sequence

from repro.crypto import canonical
from repro.obs import decisions
from repro.crypto.dn import DN, DistinguishedName
from repro.crypto.keys import KeyPair, PrivateKey, PublicKey, get_scheme
from repro.errors import (
    CertificateError,
    CertificateExpiredError,
    CertificateRevokedError,
    SignatureError,
    UntrustedIssuerError,
)

__all__ = [
    "Certificate",
    "CertificateAuthority",
    "verify_chain",
    "EXT_BASIC_CONSTRAINTS_CA",
]

#: Extension key marking a certificate as a CA certificate.
EXT_BASIC_CONSTRAINTS_CA = "basic_constraints_ca"

#: Default validity window (ten simulated years), generous on purpose:
#: expiry semantics are tested explicitly, not tripped over accidentally.
DEFAULT_VALIDITY = 10 * 365 * 24 * 3600.0


@dataclass(frozen=True)
class Certificate:
    """An X.509v3-style certificate.

    ``extensions`` values must be canonically encodable (see
    :mod:`repro.crypto.canonical`); tuples are preferred over lists for
    hashability of the dataclass.
    """

    serial: int
    issuer: DistinguishedName
    subject: DistinguishedName
    public_key: PublicKey
    not_before: float
    not_after: float
    extensions: tuple[tuple[str, Any], ...]
    signature: bytes
    signature_scheme: str

    # -- structure -----------------------------------------------------------

    def tbs(self) -> dict[str, Any]:
        """The to-be-signed portion as a canonical mapping.  The names and
        the key stay objects: the encoder splices their memoised bytes."""
        return {
            "serial": self.serial,
            "issuer": self.issuer,
            "subject": self.subject,
            "public_key": self.public_key,
            "not_before": self.not_before,
            "not_after": self.not_after,
            "extensions": dict(self.extensions),
        }

    @canonical.memoised
    def tbs_bytes(self) -> bytes:
        """Canonical bytes of the to-be-signed portion: set when the
        certificate is signed (:func:`sign_certificate`) and re-verified
        from the memo at every hop."""
        return canonical.encode(self.tbs())

    def to_cbe(self) -> dict[str, Any]:
        data = self.tbs()
        data["signature"] = self.signature
        data["signature_scheme"] = self.signature_scheme
        return data

    @canonical.memoised
    def cbe_bytes(self) -> bytes:
        """Canonical bytes of the full certificate (memoised; spliced into
        enclosing encodings by :mod:`repro.crypto.canonical`)."""
        return canonical.encode(self.to_cbe())

    # -- accessors -----------------------------------------------------------

    def extension(self, key: str, default: Any = None) -> Any:
        for k, v in self.extensions:
            if k == key:
                return v
        return default

    @property
    def is_ca(self) -> bool:
        return bool(self.extension(EXT_BASIC_CONSTRAINTS_CA, False))

    @property
    def fingerprint(self) -> str:
        return self._fingerprint()

    @canonical.memoised
    def _fingerprint(self) -> str:
        return hashlib_sha256(self.cbe_bytes()).hexdigest()[:16]

    def valid_at(self, when: float) -> bool:
        return self.not_before <= when <= self.not_after

    # -- verification ---------------------------------------------------------

    def verify_signature(self, issuer_public: PublicKey) -> bool:
        """True iff this certificate's signature verifies under *issuer_public*."""
        scheme = get_scheme(self.signature_scheme)
        return scheme.verify(issuer_public, self.tbs_bytes(), self.signature)

    def check_validity(self, when: float) -> None:
        """Raise :class:`CertificateExpiredError` unless valid at *when*."""
        if not self.valid_at(when):
            raise CertificateExpiredError(
                f"certificate {self.subject} (serial {self.serial}) not valid "
                f"at t={when} (window [{self.not_before}, {self.not_after}])"
            )

    def with_tampered_subject(self, subject: DistinguishedName) -> "Certificate":
        """Return a copy with a different subject but the *old* signature.

        Test helper: the result must always fail verification.
        """
        return replace(self, subject=subject)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Certificate(subject={self.subject}, issuer={self.issuer}, "
            f"serial={self.serial})"
        )


def _freeze_extensions(extensions: Mapping[str, Any] | None) -> tuple[tuple[str, Any], ...]:
    if not extensions:
        return ()
    return tuple(sorted(extensions.items()))


def sign_certificate(
    *,
    serial: int,
    issuer: DistinguishedName,
    subject: DistinguishedName,
    public_key: PublicKey,
    signing_key: PrivateKey,
    not_before: float = 0.0,
    not_after: float = DEFAULT_VALIDITY,
    extensions: Mapping[str, Any] | None = None,
) -> Certificate:
    """Build and sign a certificate (low-level; prefer a CA's ``issue``).

    Every field is encoded once; the to-be-signed bytes and then the
    whole certificate's bytes are built from them, and the signed
    certificate holds both as memos."""
    if not_after <= not_before:
        raise CertificateError("not_after must exceed not_before")
    unsigned = Certificate(
        serial=serial,
        issuer=issuer,
        subject=subject,
        public_key=public_key,
        not_before=not_before,
        not_after=not_after,
        extensions=_freeze_extensions(extensions),
        signature=b"",
        signature_scheme=signing_key.scheme,
    )
    # The fields sit one mapping deep.
    values = canonical.encode_values(unsigned.tbs(), depth=1)
    tbs = canonical.encode(values)
    signature = get_scheme(signing_key.scheme).sign(signing_key, tbs)
    signed = replace(unsigned, signature=signature)
    canonical.set_memo(signed, "tbs_bytes", tbs)
    canonical.set_memo(signed, "cbe_bytes", canonical.encode({
        **values,
        "signature": signature,
        "signature_scheme": signing_key.scheme,
    }))
    return signed


class CertificateAuthority:
    """A certificate authority with its own key pair and revocation list.

    Each administrative domain in the testbed runs one; SLAs between
    peered domains exchange the CA certificates that anchor the mutual
    TLS-style authentication of the inter-BB channels.
    """

    def __init__(
        self,
        name: DistinguishedName | str,
        *,
        rng: random.Random | None = None,
        scheme: str = "rsa",
        keypair: KeyPair | None = None,
    ) -> None:
        self.name = DN.parse(name) if isinstance(name, str) else name
        self._rng = rng if rng is not None else random.Random(0xCA)
        self._scheme = get_scheme(scheme)
        self.keypair = keypair if keypair is not None else self._scheme.generate(self._rng)
        self._serials = itertools.count(1)
        self._revoked: set[int] = set()
        self._issued: dict[int, Certificate] = {}
        self.certificate = sign_certificate(
            serial=next(self._serials),
            issuer=self.name,
            subject=self.name,
            public_key=self.keypair.public,
            signing_key=self.keypair.private,
            extensions={EXT_BASIC_CONSTRAINTS_CA: True},
        )
        self._issued[self.certificate.serial] = self.certificate

    # -- issuing ---------------------------------------------------------------

    def issue(
        self,
        subject: DistinguishedName | str,
        public_key: PublicKey,
        *,
        not_before: float = 0.0,
        not_after: float | None = None,
        extensions: Mapping[str, Any] | None = None,
        is_ca: bool = False,
    ) -> Certificate:
        """Issue a certificate for *subject* binding *public_key*."""
        subject_dn = DN.parse(subject) if isinstance(subject, str) else subject
        exts = dict(extensions or {})
        if is_ca:
            exts[EXT_BASIC_CONSTRAINTS_CA] = True
        cert = sign_certificate(
            serial=next(self._serials),
            issuer=self.name,
            subject=subject_dn,
            public_key=public_key,
            signing_key=self.keypair.private,
            not_before=not_before,
            not_after=DEFAULT_VALIDITY if not_after is None else not_after,
            extensions=exts,
        )
        self._issued[cert.serial] = cert
        return cert

    def issue_keypair(
        self,
        subject: DistinguishedName | str,
        *,
        rng: random.Random | None = None,
        **kwargs: Any,
    ) -> tuple[KeyPair, Certificate]:
        """Generate a key pair and issue a certificate for it in one step."""
        keypair = self._scheme.generate(rng if rng is not None else self._rng)
        cert = self.issue(subject, keypair.public, **kwargs)
        return keypair, cert

    # -- revocation --------------------------------------------------------------

    def revoke(self, serial: int) -> None:
        if serial not in self._issued:
            raise CertificateError(f"serial {serial} was not issued by {self.name}")
        self._revoked.add(serial)
        cert = self._issued[serial]
        decisions.record_revocation(
            fingerprint=cert.fingerprint,
            subject=str(cert.subject),
            authority=str(self.name),
        )

    def is_revoked(self, cert: Certificate) -> bool:
        return cert.issuer == self.name and cert.serial in self._revoked

    @property
    def crl(self) -> frozenset[int]:
        """The current revocation list (serials)."""
        return frozenset(self._revoked)


RevocationChecker = Callable[[Certificate], bool]


def verify_chain(
    chain: Sequence[Certificate],
    trust_anchors: Iterable[Certificate],
    *,
    at_time: float = 0.0,
    revocation_checker: RevocationChecker | None = None,
    max_length: int = 8,
) -> Certificate:
    """Verify a leaf-first certificate chain against *trust_anchors*.

    ``chain[0]`` is the end-entity certificate; each subsequent element
    must be the issuer of its predecessor.  The final certificate must
    either *be* a trust anchor or be directly signed by one.  Returns the
    verified leaf certificate.

    Raises the most specific :class:`~repro.errors.CertificateError`
    subclass describing the failure.
    """
    if not chain:
        raise CertificateError("empty certificate chain")
    if len(chain) > max_length:
        raise CertificateError(
            f"chain length {len(chain)} exceeds maximum {max_length}"
        )
    anchors = {cert.fingerprint: cert for cert in trust_anchors}
    anchor_by_dn: dict[DistinguishedName, list[Certificate]] = {}
    for cert in anchors.values():
        anchor_by_dn.setdefault(cert.subject, []).append(cert)

    for i, cert in enumerate(chain):
        cert.check_validity(at_time)
        if revocation_checker is not None and revocation_checker(cert):
            raise CertificateRevokedError(
                f"certificate {cert.subject} (serial {cert.serial}) is revoked"
            )
        if i > 0 and not cert.is_ca:
            raise CertificateError(
                f"intermediate certificate {cert.subject} lacks the CA bit"
            )
        if i + 1 < len(chain):
            issuer_cert = chain[i + 1]
            if issuer_cert.subject != cert.issuer:
                raise CertificateError(
                    f"chain break: {cert.subject} names issuer {cert.issuer}, "
                    f"next element is {issuer_cert.subject}"
                )
            if not cert.verify_signature(issuer_cert.public_key):
                raise SignatureError(
                    f"signature on {cert.subject} does not verify under "
                    f"{issuer_cert.subject}"
                )

    last = chain[-1]
    if last.fingerprint in anchors:
        return chain[0]
    # Otherwise the last element must be signed by some trust anchor.
    for anchor in anchor_by_dn.get(last.issuer, []):
        if last.verify_signature(anchor.public_key):
            return chain[0]
    raise UntrustedIssuerError(
        f"chain terminates at {last.subject} (issuer {last.issuer}), which is "
        f"neither a trust anchor nor signed by one"
    )
