"""Approach 1: source-domain-based signalling (the paper's baseline).

"Alice, or an agent working on her behalf, can contact each BB
individually.  A positive response from every BB indicates that Alice has
an end-to-end reservation.  However, there are two serious flaws with
this methodology.  First, it is difficult to scale since each BB must
know about (and be able to authenticate) Alice [...].  Furthermore, if
another user, Bob, makes an incomplete reservation, either maliciously or
accidentally, he can interfere with Alice's reservation." (§3)

This module implements that baseline faithfully, flaws included:

* the agent needs a direct trust relationship (an open channel) with
  *every* BB on the path — reservation fails with ``no trust
  relationship`` where the paper's hop-by-hop approach would proceed;
* ``skip_domains`` reproduces the Figure 4 misreservation: nothing in the
  protocol forces the agent to contact every domain;
* ``concurrent=True`` models the paper's §3 observation that
  "source-domain-based signalling may be faster than hop-by-hop based
  signalling, because the reservations for each domain can be made in
  parallel": latency is the *maximum* instead of the *sum* of per-domain
  round trips.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping, Sequence

from repro.bb.broker import BandwidthBroker
from repro.bb.reservations import ReservationRequest
from repro.core.agent import UserAgent
from repro.core.channel import ChannelRegistry
from repro.core.messages import make_user_rar
from repro.core.trust import verify_rar
from repro.errors import HandshakeError, SignallingError, TrustError, TamperedMessageError
from repro.policy.attributes import SignedAssertion

__all__ = ["SourceDomainOutcome", "EndToEndAgent"]


@dataclass
class SourceDomainOutcome:
    """Result of a source-domain-based (Approach 1) reservation attempt."""

    granted: bool
    #: True only when every domain on the path holds a reservation — a
    #: malicious/accidental caller may be 'granted' on a subset (Figure 4).
    complete: bool
    handles: dict[str, str] = field(default_factory=dict)
    failures: dict[str, str] = field(default_factory=dict)
    skipped: tuple[str, ...] = ()
    latency_s: float = 0.0
    messages: int = 0
    bytes: int = 0
    path: tuple[str, ...] = ()


class EndToEndAgent:
    """The GARA end-to-end reservation library: contacts every BB itself."""

    def __init__(
        self,
        brokers: Mapping[str, BandwidthBroker],
        channels: ChannelRegistry,
        domain_path: Callable[[str, str], list[str]],
        *,
        processing_delay_s: float = 0.001,
        clock: Callable[[], float] = lambda: 0.0,
    ) -> None:
        self.brokers = dict(brokers)
        self.channels = channels
        self.domain_path = domain_path
        self.processing_delay_s = processing_delay_s
        self.clock = clock

    def _contact(
        self,
        user: UserAgent,
        bb: BandwidthBroker,
        request: ReservationRequest,
        *,
        upstream: str | None,
        downstream: str | None,
        assertions: Sequence[SignedAssertion],
        at_time: float,
    ) -> tuple[bool, str, float, int, int]:
        """One direct user→BB exchange.  Returns (granted, handle-or-reason,
        round-trip latency, messages, bytes)."""
        try:
            channel = self.channels.connect(user, bb, at_time=at_time)
        except HandshakeError as exc:
            # The scaling flaw: this BB has no trust relationship with the
            # user, so it cannot even authenticate the request.
            return False, f"no trust relationship: {exc}", 0.0, 0, 0

        capability_certs = user.delegate_capabilities_to(
            bb.dn, channel.peer_certificate(user.dn).public_key
        )
        rar = make_user_rar(
            request=request,
            source_bb=bb.dn,
            capability_certs=capability_certs,
            assertions=tuple(assertions) + tuple(user.assertions),
            user=user.dn,
            user_key=user.keypair.private,
        )
        rar = channel.transmit(user.dn, rar)
        nbytes = rar.wire_size()
        try:
            verified = verify_rar(
                rar,
                verifier=bb.dn,
                peer_certificate=channel.peer_certificate(bb.dn),
                truststore=bb.truststore,
                at_time=at_time,
            )
        except (TrustError, TamperedMessageError, SignallingError) as exc:
            return False, f"verification failed: {exc}", 2 * channel.latency_s, 2, nbytes

        info = bb.policy_server.verify_credentials(
            user=verified.user,
            assertions=verified.assertions,
            capability_certs=verified.capability_chain,
            at_time=at_time,
        )
        outcome = bb.admit(
            verified.request, info, at_time=at_time,
            upstream=upstream, downstream=downstream,
        )
        # Reply message (grant or denial) crosses the channel back.
        channel.transmit(bb.dn, outcome.reservation.handle)
        rtt = 2 * channel.latency_s + self.processing_delay_s
        if outcome.granted:
            return True, outcome.reservation.handle, rtt, 2, nbytes
        return False, outcome.reason, rtt, 2, nbytes

    def reserve(
        self,
        user: UserAgent,
        request: ReservationRequest,
        *,
        assertions: Sequence[SignedAssertion] = (),
        concurrent: bool = False,
        skip_domains: Iterable[str] = (),
        rollback_on_failure: bool = True,
    ) -> SourceDomainOutcome:
        """Contact every BB on the path (except ``skip_domains``) directly."""
        at_time = self.clock()
        path = self.domain_path(request.source_domain, request.destination_domain)
        skipped = tuple(d for d in path if d in set(skip_domains))
        outcome = SourceDomainOutcome(
            granted=False, complete=False, path=tuple(path), skipped=skipped
        )
        latencies: list[float] = []

        for index, domain in enumerate(path):
            if domain in skipped:
                continue
            bb = self.brokers.get(domain)
            if bb is None:
                outcome.failures[domain] = "no bandwidth broker"
                continue
            upstream = path[index - 1] if index > 0 else None
            downstream = (
                path[index + 1] if index + 1 < len(path) else None
            )
            granted, result, rtt, msgs, nbytes = self._contact(
                user, bb, request,
                upstream=upstream, downstream=downstream,
                assertions=assertions, at_time=at_time,
            )
            latencies.append(rtt)
            outcome.messages += msgs
            outcome.bytes += nbytes
            if granted:
                outcome.handles[domain] = result
            else:
                outcome.failures[domain] = result
                if not concurrent:
                    # A sequential agent stops at the first failure.
                    break

        outcome.latency_s = (
            max(latencies, default=0.0) if concurrent else sum(latencies)
        )
        contacted = [d for d in path if d not in skipped]
        outcome.granted = bool(outcome.handles) and not outcome.failures
        outcome.complete = (
            outcome.granted and all(d in outcome.handles for d in path)
        )
        if outcome.failures and rollback_on_failure:
            self.release(outcome)
        return outcome

    # -- lifecycle --------------------------------------------------------------------

    def claim(self, outcome: SourceDomainOutcome) -> None:
        """Claim whatever reservations the agent holds.

        Deliberately does *not* require ``complete`` — the data plane
        cannot tell (that is the Figure 4 attack surface).
        """
        for domain, handle in outcome.handles.items():
            self.brokers[domain].claim(handle)

    def release(self, outcome: SourceDomainOutcome) -> None:
        for domain, handle in list(outcome.handles.items()):
            self.brokers[domain].cancel(handle)
            del outcome.handles[domain]
