"""A STARS-style reservation coordinator (the paper's second baseline).

"The STARS system adopts a variant of this approach, in which a separate
source domain entity — the reservation coordinator (RC) — performs the
end-to-end reservation.  This strategy alleviates the problems noted
above, in two respects: first, in many situations it may be feasible for
the RC to be 'trusted' to make all necessary reservations; second, all
bandwidth-brokers need not be aware of all end-users.  However, we still
require a direct trust relationship between all intermediate and possible
end-domains." (§3)

The coordinator authenticates the user itself, then contacts every BB
over its *own* trust relationships, asserting the user's identity.  BBs
that trust the RC accept the asserted identity; BBs with no channel to
the RC still fail — the residual flaw the hop-by-hop protocol removes.
It is Approach 1's fan-out (:class:`~repro.core.sourcedomain.FanOut`)
with a contractual contact: no ``RAR_U``, no verification, an admission
on the asserted identity.
"""

from __future__ import annotations

from repro.bb.policyserver import VerifiedInfo
from repro.bb.reservations import ReservationRequest
from repro.core.agent import UserAgent
from repro.core.hopbyhop import (
    PROCESSING_DELAY_S, HopByHopProtocol, _Attempt, _Hop, _outage, _Refused,
)
from repro.core.sourcedomain import FanOut, SourceDomainOutcome
from repro.crypto.dn import DistinguishedName
from repro.crypto.keys import KeyPair
from repro.crypto.truststore import TrustStore
from repro.crypto.x509 import Certificate
from repro.errors import RetryExhaustedError
from repro.obs.events import ReasonCode
from repro.policy.attributes import make_assertion

__all__ = ["ReservationCoordinator"]


class ReservationCoordinator(FanOut):
    """A trusted source-domain entity reserving on users' behalf."""

    def __init__(
        self, domain: str, protocol: HopByHopProtocol, *,
        dn: DistinguishedName, keypair: KeyPair, certificate: Certificate,
        truststore: TrustStore,
    ) -> None:
        super().__init__(protocol)
        self.domain = domain
        self.dn = dn
        self.keypair = keypair
        self.certificate = certificate
        self.truststore = truststore

    def enroll_user(self, user: UserAgent) -> None:
        """Authenticate a local user (out of band): the channel their
        requests arrive on, which makes the RC assert their identity to
        remote BBs."""
        self.protocol.channels.connect(user, self, at_time=self.protocol.clock())

    def reserve(
        self, user: UserAgent, request: ReservationRequest, *,
        concurrent: bool = True,
    ) -> SourceDomainOutcome:
        """Reserve end-to-end on the user's behalf.

        The user's request and the RC's answer cross the channel the
        enrollment opened.  The RC signs an identity assertion ("this
        request is made for user U") with its own key; BBs that trust
        the RC accept the asserted user for policy purposes without
        knowing U themselves.
        """
        att, outcome = self._start(user, request)
        try:
            if not self.protocol.channels.has(user.dn, self.dn):
                raise _Refused(
                    self.domain, f"user {user.dn} not enrolled with RC",
                    ReasonCode.TRUST_FAILURE,
                )
            channel = self.protocol.channels.between(user.dn, self.dn)
            self._send(att, channel, user.dn, request, self.domain,
                       what="request to the RC")
            outcome.latency_s += PROCESSING_DELAY_S
            assertion = make_assertion(
                issuer=self.dn, issuer_key=self.keypair.private, subject=user.dn,
                attributes={"authenticated_by": str(self.dn)},
            )

            def contractual(att: _Attempt, hop: _Hop, received: object) -> str:
                # The BB trusts the RC by contract: it admits on the
                # asserted identity, with no RAR to verify.
                try:
                    admit = self.protocol._call_with_retries(
                        lambda: hop.bb.admit(
                            request, VerifiedInfo(user=user.dn),
                            at_time=att.at_time, upstream=hop.upstream,
                            downstream=hop.downstream,
                        ),
                        att, what=f"admission at {hop.domain}", target=hop.domain,
                    )
                except RetryExhaustedError as exc:
                    # Still down after the retries: nobody signs a denial.
                    raise _Refused(hop.domain, str(exc), _outage(exc)) from exc
                handle = admit.reservation.handle
                if not admit.granted:
                    # The broker's admission pipeline recorded its denial.
                    raise _Refused(hop.domain, admit.reason, None, signer=hop.bb)
                att.granted.append((hop.bb, handle))
                self.protocol._charge(att, hop, request, handle)
                return handle

            self._fan_out(
                att, outcome, self, lambda channel, bb: assertion, contractual,
                concurrent=concurrent,
            )
            self._send(att, channel, self.dn, tuple(h for _, h in att.granted),
                       self.domain, what="answer to the user")
        except _Refused as refusal:
            self._refuse(att, outcome, refusal)
        return self._settle(att, outcome, rollback=True)
