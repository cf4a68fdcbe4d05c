"""Policy attributes and signed assertions.

The paper requires the propagation protocol to "handle simple
attribute-value pairs which might be signed by the assigning entity as
well as capability certificates".  This module provides the signed
attribute-value half: a :class:`SignedAssertion` binds a set of
attribute-value pairs to a subject, signed by the asserting entity (a
group server, a source-domain BB adding traffic-engineering hints, the
user herself).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Mapping

from repro.crypto import canonical
from repro.crypto.dn import DistinguishedName
from repro.crypto.keys import PrivateKey, PublicKey, get_scheme
from repro.errors import PolicyError

__all__ = ["SignedAssertion", "make_assertion"]


@dataclass(frozen=True)
class SignedAssertion:
    """Attribute-value pairs about *subject*, signed by *issuer*.

    Examples: a group server asserting ``{"group": "ATLAS experiment"}``,
    a BB asserting ``{"excess_traffic_treatment": "downgrade"}`` for
    downstream traffic engineering.
    """

    issuer: DistinguishedName
    subject: DistinguishedName
    attributes: tuple[tuple[str, Any], ...]
    signature: bytes
    signature_scheme: str
    valid_from: float = 0.0
    valid_until: float = float("inf")

    def payload(self) -> dict:
        return {
            "issuer": self.issuer,
            "subject": self.subject,
            "attributes": dict(self.attributes),
            "valid_from": self.valid_from,
            # inf is not canonically encodable; use a sentinel string.
            "valid_until": "never" if self.valid_until == float("inf") else self.valid_until,
        }

    def to_cbe(self) -> dict:
        data = self.payload()
        data["signature"] = self.signature
        data["signature_scheme"] = self.signature_scheme
        return data

    @canonical.memoised
    def cbe_bytes(self) -> bytes:
        """Canonical bytes, memoised (the assertion is immutable and is
        carried inside every envelope layer after it; the canonical
        encoder splices these bytes directly)."""
        return canonical.encode(self.to_cbe())

    def verify(self, issuer_public: PublicKey, *, at_time: float = 0.0) -> bool:
        """True iff the signature verifies and the assertion is in validity."""
        if not (self.valid_from <= at_time <= self.valid_until):
            return False
        scheme = get_scheme(self.signature_scheme)
        return scheme.verify(
            issuer_public, canonical.encode(self.payload()), self.signature
        )

    def get(self, name: str, default: Any = None) -> Any:
        for k, v in self.attributes:
            if k == name:
                return v
        return default

    def with_tampered_attribute(self, name: str, value: Any) -> "SignedAssertion":
        """Test helper: change an attribute but keep the old signature."""
        attrs = tuple((k, value if k == name else v) for k, v in self.attributes)
        return replace(self, attributes=attrs)


def make_assertion(
    *,
    issuer: DistinguishedName,
    issuer_key: PrivateKey,
    subject: DistinguishedName,
    attributes: Mapping[str, Any],
    valid_from: float = 0.0,
    valid_until: float = float("inf"),
) -> SignedAssertion:
    """Create and sign an assertion."""
    if not attributes:
        raise PolicyError("an assertion needs at least one attribute")
    unsigned = SignedAssertion(
        issuer=issuer,
        subject=subject,
        attributes=tuple(sorted(attributes.items())),
        signature=b"",
        signature_scheme=issuer_key.scheme,
        valid_from=valid_from,
        valid_until=valid_until,
    )
    scheme = get_scheme(issuer_key.scheme)
    signature = scheme.sign(issuer_key, canonical.encode(unsigned.payload()))
    return replace(unsigned, signature=signature)
