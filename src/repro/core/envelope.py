"""Signed envelopes: the ``sign_pkey(...)`` primitive of the paper's §6.4.

"A complete request therefore is comprised of a collection of
information, each signed by the entity that added it.  The signatures
both assert the authenticity of the information and allows for the
tracking the path taken by a request as it moves from BB to BB."

A :class:`SignedEnvelope` is a mapping payload plus the signer's DN and a
signature over the canonical encoding of both.  Payload values may be any
canonically encodable object — including *nested envelopes*, which is how
``RAR_B = sign_BBB({RAR_A, cert_A, DN_BBC, ...})`` is built (its signature
covers ``RAR_A``'s digest link, :data:`LINK_DIGEST_FIELD`).

The library passes Python objects rather than bytes between simulated
parties; the canonical encoding (DESIGN.md: our stand-in for DER) is what
signatures and links cover, so any tampering with any nested field
invalidates the enclosing layer exactly as it would on the wire.

Each layer is encoded once.  :func:`seal` encodes every payload value
once, builds the body it signs and the whole envelope from those bytes,
and gives the signed envelope both as memos.  The payload's names,
certificates, assertions and inner envelopes stay objects, so their
memoised bytes are spliced rather than rebuilt, and a later hop verifies
and forwards a layer without encoding it again.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace
from typing import Any, Mapping

from repro.crypto import canonical
from repro.crypto.dn import DistinguishedName
from repro.crypto.keys import PrivateKey, PublicKey, get_scheme
from repro.errors import TamperedMessageError

__all__ = [
    "SignedEnvelope",
    "seal",
    "chain_link_digest",
    "LINKED_FIELD",
    "LINK_DIGEST_FIELD",
]

#: The nested-message payload field (``messages.F_INNER`` re-exports it).
LINKED_FIELD = "inner_rar"
#: Append-only chain link: the SHA-256 of the inner envelope's canonical
#: bytes.  Every BB layer of a RAR carries it, and the *signature*
#: covers the digest instead of the inner envelope itself (which stays
#: in the payload for the wire and for provenance walks) — so a
#: forwarding hop signs O(own fields) bytes, yet any tampering below
#: still breaks the chain: the inner layer's bytes no longer hash to the
#: signed link.  ``messages.unwrap_rar_layers`` enforces this before any
#: signature is checked, and refuses a RAR layer without the link.
LINK_DIGEST_FIELD = "inner_digest"


def chain_link_digest(inner: "SignedEnvelope") -> bytes:
    """The append-chain commitment to *inner*: SHA-256 of its canonical
    bytes."""
    return hashlib.sha256(inner.cbe_bytes()).digest()


@dataclass(frozen=True)
class SignedEnvelope:
    """An immutable signed collection of named fields."""

    payload: tuple[tuple[str, Any], ...]
    signer: DistinguishedName
    signature: bytes
    scheme: str

    # -- payload access ---------------------------------------------------------

    def __getitem__(self, key: str) -> Any:
        for k, v in self.payload:
            if k == key:
                return v
        raise KeyError(key)

    def get(self, key: str, default: Any = None) -> Any:
        for k, v in self.payload:
            if k == key:
                return v
        return default

    def keys(self) -> tuple[str, ...]:
        return tuple(k for k, _ in self.payload)

    # -- encoding ------------------------------------------------------------------

    def body_cbe(self) -> dict[str, Any]:
        """The signed portion (payload + signer identity).

        In an append-only chain layer (payload carries
        :data:`LINK_DIGEST_FIELD`) the inner envelope is *excluded* from
        the signed bytes — the signature covers its digest link instead,
        so signing/verifying one layer costs O(that layer), not
        O(whole chain).  The link is itself signed: an attacker can
        neither add nor strip it without breaking this layer's
        signature.

        Payload values and the signer stay objects: the encoder splices
        the memoised bytes of every name, key, certificate, assertion and
        inner envelope, so no layer re-encodes what an earlier hop did.
        """
        return _body(dict(self.payload), self.signer, self.get(LINK_DIGEST_FIELD))

    def to_cbe(self) -> dict[str, Any]:
        """The full envelope, inner message included (an append-chain
        layer leaves only its *signed* bytes without it)."""
        return {
            "payload": dict(self.payload),
            "signer": self.signer,
            "signature": self.signature,
            "scheme": self.scheme,
        }

    @canonical.memoised
    def body_bytes(self) -> bytes:
        """Canonical bytes of the signed portion: set when the envelope
        is sealed (:func:`seal`) and verified from the memo at every
        later hop."""
        return canonical.encode(self.body_cbe())

    @canonical.memoised
    def cbe_bytes(self) -> bytes:
        """Canonical bytes of the full envelope (set when sealed, else
        memoised; spliced directly into enclosing encodings by
        :mod:`repro.crypto.canonical`)."""
        return canonical.encode(self.to_cbe())

    def wire_size(self) -> int:
        """Bytes this envelope would occupy on the wire."""
        return len(self.cbe_bytes())

    # -- verification ----------------------------------------------------------------

    def verify(self, public_key: PublicKey) -> bool:
        """True iff the signature verifies under *public_key*."""
        scheme = get_scheme(self.scheme)
        return scheme.verify(public_key, self.body_bytes(), self.signature)

    def require_valid(self, public_key: PublicKey) -> None:
        if not self.verify(public_key):
            raise TamperedMessageError(
                f"envelope signed by {self.signer} failed verification"
            )

    # -- test helpers -----------------------------------------------------------------

    def with_tampered_field(self, key: str, value: Any) -> "SignedEnvelope":
        """A copy with one payload field replaced but the old signature kept
        (must always fail verification)."""
        payload = tuple(
            (k, value if k == key else v) for k, v in self.payload
        )
        if key not in self.keys():
            payload = payload + ((key, value),)
        return replace(self, payload=payload)


def _body(
    fields: Mapping[str, Any], signer: Any, link_digest: Any
) -> dict[str, Any]:
    """The signed portion of an envelope with payload *fields*: all of
    them but, in an append-only chain layer (*link_digest* is not
    ``None``), the inner envelope, whose digest link is signed instead.
    The branch is keyed on the link, not on the message type: every RAR
    layer above the user's carries one, while an approval carries none
    and signs the inner approval it endorses directly."""
    linked = LINKED_FIELD if link_digest is not None else None
    return {
        "payload": {k: v for k, v in fields.items() if k != linked},
        "signer": signer,
    }


def seal(
    payload: Mapping[str, Any],
    *,
    signer: DistinguishedName,
    key: PrivateKey,
) -> SignedEnvelope:
    """Sign *payload* as *signer*: the paper's ``sign_pkey(attributes)``.

    Every payload value is encoded once.  The signed body and then the
    whole envelope are built from those bytes, and the signed envelope
    holds both as memos.
    """
    items = tuple(sorted(payload.items()))
    # Payload values sit two mappings deep: envelope, then payload.
    values = canonical.encode_values(dict(items), depth=2)
    body = canonical.encode(_body(values, signer, payload.get(LINK_DIGEST_FIELD)))
    signature = get_scheme(key.scheme).sign(key, body)
    signed = SignedEnvelope(
        payload=items, signer=signer, signature=signature, scheme=key.scheme,
    )
    canonical.set_memo(signed, "body_bytes", body)
    canonical.set_memo(signed, "cbe_bytes", canonical.encode({
        "payload": values,
        "signer": signer,
        "signature": signature,
        "scheme": key.scheme,
    }))
    return signed
