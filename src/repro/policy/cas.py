"""Community Authorization Server (CAS).

The Globus CAS was "being developed" when the paper was written; the
signalling protocol assumes one exists to issue capability certificates
at "grid-login" (paper §6.5, Figure 7).  This is a working implementation
against :mod:`repro.crypto.capability`: a community maintains per-user
capability grants and, on login, issues a capability certificate with a
fresh proxy key pair.
"""

from __future__ import annotations

import itertools
import random
from typing import Iterable

from repro.crypto.capability import (
    ProxyCredential,
    capability_set,
    is_capability_certificate,
    issue_capability,
)
from repro.crypto.dn import DN, DistinguishedName
from repro.crypto.keys import KeyPair, PublicKey, get_scheme
from repro.crypto.x509 import Certificate
from repro.errors import PolicyError
from repro.obs import decisions

__all__ = ["CommunityAuthorizationServer"]


class CommunityAuthorizationServer:
    """Issues community capability certificates (e.g. for "ESnet")."""

    def __init__(
        self,
        community: str,
        *,
        name: DistinguishedName | str | None = None,
        rng: random.Random | None = None,
        scheme: str = "rsa",
        keypair: KeyPair | None = None,
    ) -> None:
        self.community = community
        if name is None:
            name = DN.make("Grid", community, "CAS")
        self.name = DN.parse(name) if isinstance(name, str) else name
        self._rng = rng if rng is not None else random.Random(0xCA5)
        self._scheme_name = scheme
        if keypair is None:
            keypair = get_scheme(scheme).generate(self._rng)
        self.keypair = keypair
        self._grants: dict[DistinguishedName, set[str]] = {}
        self._serials = itertools.count(1)
        self.logins = 0
        #: Capability certificates issued at grid-login, by serial.
        self._issued: dict[int, Certificate] = {}
        #: Serials whose capability (and every delegation of it — a
        #: delegation keeps its parent's serial) has been withdrawn.
        self._revoked_serials: set[int] = set()

    @property
    def public_key(self) -> PublicKey:
        return self.keypair.public

    # -- administration -------------------------------------------------------------

    def grant(self, user: DistinguishedName, capabilities: Iterable[str]) -> None:
        """Record that *user* holds these community capabilities."""
        caps = {self._qualify(c) for c in capabilities}
        self._grants.setdefault(user, set()).update(caps)

    def revoke_user(self, user: DistinguishedName) -> None:
        self._grants.pop(user, None)

    def revoke_credential(self, certificate: Certificate) -> None:
        """Withdraw an issued capability certificate (and, because a
        delegation inherits its parent's serial, every delegation made
        from it)."""
        if certificate.serial not in self._issued:
            raise PolicyError(
                f"serial {certificate.serial} was not issued by "
                f"community {self.community!r}"
            )
        self._revoked_serials.add(certificate.serial)
        decisions.record_revocation(
            fingerprint=certificate.fingerprint,
            subject=str(certificate.subject),
            authority=f"CAS:{self.community}",
        )

    def is_revoked(self, cert: Certificate) -> bool:
        """Revocation oracle for this community's capability chains.

        Matches any capability certificate carrying a revoked serial
        whose capability strings all belong to this community (chains
        keep the root serial, so one revocation covers the cascade)."""
        if cert.serial not in self._revoked_serials:
            return False
        if not is_capability_certificate(cert):
            return False
        caps = capability_set(cert)
        prefix = f"{self.community}:"
        return bool(caps) and all(c.startswith(prefix) for c in caps)

    def capabilities_of(self, user: DistinguishedName) -> frozenset[str]:
        return frozenset(self._grants.get(user, set()))

    def _qualify(self, capability: str) -> str:
        """Prefix bare capability names with the community."""
        if ":" in capability:
            return capability
        return f"{self.community}:{capability}"

    # -- grid-login --------------------------------------------------------------------

    def grid_login(
        self,
        user: DistinguishedName,
        *,
        at_time: float = 0.0,
        validity_s: float = 12 * 3600.0,
    ) -> ProxyCredential:
        """Issue *user* a capability certificate with a fresh proxy key.

        The returned credential is what the user's agent holds after
        logging in to the grid: the certificate can be shown to anyone;
        the private proxy key enables delegation.
        """
        caps = self._grants.get(user)
        if not caps:
            raise PolicyError(
                f"{user} holds no capabilities in community {self.community!r}"
            )
        self.logins += 1
        credential = self._issue(user, sorted(caps), at_time, validity_s)
        self._issued[credential.certificate.serial] = credential.certificate
        return credential

    def _issue(
        self,
        user: DistinguishedName,
        caps: list[str],
        at_time: float,
        validity_s: float,
    ) -> ProxyCredential:
        return issue_capability(
            issuer=self.name,
            issuer_signing_key=self.keypair.private,
            subject=user,
            capabilities=sorted(caps),
            serial=next(self._serials),
            rng=self._rng,
            scheme=self._scheme_name,
            not_before=at_time,
            not_after=at_time + validity_s,
        )
