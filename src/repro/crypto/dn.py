"""Distinguished names (DNs).

The protocol identifies every principal — users, bandwidth brokers,
certificate authorities, community authorization servers — by an X.500
style distinguished name such as ``/O=Grid/OU=DomainA/CN=BB-A``.  The
paper's message notation (``DN_BBA``, ``DN_U``) refers to these values.

A :class:`DistinguishedName` is an ordered tuple of ``(attribute, value)``
pairs.  Comparison is case-insensitive in attribute types (``cn`` == ``CN``)
and case-sensitive in values, matching common X.500 practice closely
enough for a simulation.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import total_ordering

from repro.crypto import canonical
from repro.errors import CryptoError

__all__ = ["DistinguishedName", "DN"]

_VALID_ATTRS = {"C", "O", "OU", "CN", "L", "ST", "DC", "UID", "EMAIL"}


@total_ordering
@dataclass(frozen=True)
class DistinguishedName:
    """An ordered X.500-style distinguished name.

    Construct from pairs, or parse the slash form with :meth:`parse`::

        DN.parse("/O=Grid/OU=DomainA/CN=BB-A")
        DistinguishedName((("O", "Grid"), ("OU", "DomainA"), ("CN", "BB-A")))
    """

    rdns: tuple[tuple[str, str], ...]

    def __post_init__(self) -> None:
        if not self.rdns:
            raise CryptoError("a distinguished name needs at least one RDN")
        normalized = []
        for pair in self.rdns:
            if len(pair) != 2:
                raise CryptoError(f"malformed RDN {pair!r}")
            attr, value = pair
            attr_up = attr.upper()
            if attr_up not in _VALID_ATTRS:
                raise CryptoError(f"unknown DN attribute type {attr!r}")
            if not value or "/" in value or "=" in value:
                raise CryptoError(f"invalid DN attribute value {value!r}")
            normalized.append((attr_up, value))
        object.__setattr__(self, "rdns", tuple(normalized))

    # -- construction -------------------------------------------------------

    @classmethod
    def parse(cls, text: str) -> "DistinguishedName":
        """Parse ``/ATTR=value/ATTR=value`` syntax.

        Raises :class:`~repro.errors.CryptoError` on malformed input.
        """
        if not text.startswith("/"):
            raise CryptoError(f"DN must start with '/': {text!r}")
        parts = [p for p in text.split("/") if p]
        if not parts:
            raise CryptoError("empty DN")
        rdns = []
        for part in parts:
            if "=" not in part:
                raise CryptoError(f"RDN {part!r} lacks '='")
            attr, _, value = part.partition("=")
            rdns.append((attr.strip(), value.strip()))
        return cls(tuple(rdns))

    @classmethod
    def make(cls, organization: str, unit: str | None = None,
             common_name: str | None = None) -> "DistinguishedName":
        """Convenience constructor for the common O/OU/CN shape."""
        rdns: list[tuple[str, str]] = [("O", organization)]
        if unit is not None:
            rdns.append(("OU", unit))
        if common_name is not None:
            rdns.append(("CN", common_name))
        return cls(tuple(rdns))

    # -- accessors -----------------------------------------------------------

    def get(self, attr: str) -> str | None:
        """Return the first value of *attr* (case-insensitive), or None."""
        attr_up = attr.upper()
        for a, v in self.rdns:
            if a == attr_up:
                return v
        return None

    @property
    def common_name(self) -> str | None:
        return self.get("CN")

    @property
    def organization(self) -> str | None:
        return self.get("O")

    def with_cn(self, common_name: str) -> "DistinguishedName":
        """Return a copy whose CN is replaced (or appended) with *common_name*.

        Used when the paper derives capability-certificate subjects from a
        user DN "potentially modified to indicate that this is a capability
        certificate".
        """
        rdns = [(a, v) for a, v in self.rdns if a != "CN"]
        rdns.append(("CN", common_name))
        return DistinguishedName(tuple(rdns))

    def is_descendant_of(self, ancestor: "DistinguishedName") -> bool:
        """True when *ancestor*'s RDN sequence is a strict prefix of ours."""
        if len(ancestor.rdns) >= len(self.rdns):
            return False
        return self.rdns[: len(ancestor.rdns)] == ancestor.rdns

    # -- encoding / formatting ----------------------------------------------

    def to_cbe(self) -> list[list[str]]:
        return [list(pair) for pair in self.rdns]

    @canonical.memoised
    def cbe_bytes(self) -> bytes:
        """Canonical bytes of :meth:`to_cbe`, encoded once per name and
        spliced into every certificate and envelope that carries it."""
        return canonical.encode(self.to_cbe())

    def __str__(self) -> str:
        return "".join(f"/{a}={v}" for a, v in self.rdns)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"DN({str(self)!r})"

    def __lt__(self, other: object) -> bool:
        if not isinstance(other, DistinguishedName):
            return NotImplemented
        return self.rdns < other.rdns


#: Short alias used pervasively in the codebase and the paper's notation.
DN = DistinguishedName
