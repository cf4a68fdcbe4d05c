"""User agents: the entity that signs and submits reservation requests.

"A user (or agent acting on their behalf) signals a reservation request
to the BB in the user's administrative network domain" (§6.1).  The agent
holds the user's identity key pair and certificate, the proxy credentials
obtained from CAS grid-logins, and any signed group assertions collected
from group servers.
"""

from __future__ import annotations

import random
import zlib

from repro.crypto.capability import ProxyCredential, delegate
from repro.crypto.dn import DN, DistinguishedName
from repro.crypto.keys import KeyPair, PublicKey, get_scheme
from repro.crypto.truststore import TrustStore
from repro.crypto.x509 import Certificate
from repro.errors import SignallingError
from repro.policy.attributes import SignedAssertion
from repro.policy.cas import CommunityAuthorizationServer

__all__ = ["UserAgent"]


class UserAgent:
    """A user's signing agent."""

    def __init__(
        self,
        dn: DistinguishedName | str,
        domain: str,
        *,
        keypair: KeyPair | None = None,
        certificate: Certificate | None = None,
        truststore: TrustStore | None = None,
        scheme: str = "rsa",
    ) -> None:
        self.dn = DN.parse(dn) if isinstance(dn, str) else dn
        self.domain = domain
        if keypair is None:
            keypair = get_scheme(scheme).generate(
                # crc32, not hash(): str hashing is salted per process (REP108).
                random.Random(zlib.crc32(str(dn).encode()))
            )
        self.keypair = keypair
        self.certificate = certificate
        self.truststore = truststore if truststore is not None else TrustStore()
        #: Proxy credentials from CAS logins, by community name.
        self.credentials: dict[str, ProxyCredential] = {}
        #: Signed group assertions collected from group servers.
        self.assertions: list[SignedAssertion] = []

    @property
    def name(self) -> str:
        return self.dn.common_name or str(self.dn)

    # -- credential acquisition ----------------------------------------------------

    def grid_login(
        self, cas: CommunityAuthorizationServer, *, at_time: float = 0.0,
        validity_s: float = 12 * 3600.0,
    ) -> ProxyCredential:
        """Log in to a community: obtain and store a capability credential."""
        credential = cas.grid_login(self.dn, at_time=at_time, validity_s=validity_s)
        self.credentials[cas.community] = credential
        return credential

    def collect_assertion(self, assertion: SignedAssertion) -> None:
        if assertion.subject != self.dn:
            raise SignallingError(
                f"assertion about {assertion.subject} does not concern {self.dn}"
            )
        self.assertions.append(assertion)

    # -- delegation -----------------------------------------------------------------

    def delegate_capabilities_to(
        self,
        subject: DistinguishedName,
        subject_public_key: PublicKey,
        *,
        restrictions: tuple[str, ...] = (),
    ) -> tuple[Certificate, ...]:
        """Delegate every held credential to *subject* (the source-domain BB).

        Returns, per credential, the original CAS-issued certificate
        followed by the user's delegation certificate — the
        ``Capability_Cert'_CAS, Capability_Cert'_U`` pair of the paper's
        RAR_U notation, for all communities at once.
        """
        certs: list[Certificate] = []
        for credential in self.credentials.values():
            delegated = delegate(
                credential,
                delegate_subject=subject,
                delegate_public_key=subject_public_key,
                extra_restrictions=restrictions,
            )
            certs.append(credential.certificate)
            certs.append(delegated)
        return tuple(certs)
