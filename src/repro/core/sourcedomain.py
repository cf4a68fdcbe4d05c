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

Each BB the agent contacts runs the hop engine's own per-domain step on
the user's ``RAR_U`` (gate → decode → verify → credentials → path
assertions → admit → charge) on a hop whose peer is the user.  Delivery,
refusals and rollback are the engine's too: every refusal is a ledger
record with a reason code, every rollback release is ``unwound``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Sequence

from repro.bb.broker import BandwidthBroker
from repro.bb.reservations import ReservationRequest
from repro.core.agent import UserAgent
from repro.core.channel import SecureChannel
from repro.core.hopbyhop import (
    _DELIVERY_FAILURES,
    PROCESSING_DELAY_S,
    HopByHopProtocol,
    SignallingOutcome,
    _Attempt,
    _Hop,
    _Refused,
)
from repro.core.messages import make_user_rar
from repro.crypto.dn import DistinguishedName
from repro.errors import HandshakeError
from repro.obs.events import ReasonCode
from repro.policy.attributes import SignedAssertion

__all__ = ["SourceDomainOutcome", "EndToEndAgent"]


@dataclass
class SourceDomainOutcome(SignallingOutcome):
    """Result of a source-domain reservation attempt (Approach 1 or the
    STARS coordinator); ``handles`` holds the reservations kept."""

    #: True only when every domain on the path holds a reservation — a
    #: malicious/accidental caller may be 'granted' on a subset (Figure 4).
    complete: bool = False
    failures: dict[str, str] = field(default_factory=dict)
    skipped: tuple[str, ...] = ()


class FanOut:
    """The driver both baselines share: the path walk, ``skip_domains``,
    one contact per domain — sequentially, stopping at the first
    refusal, or concurrently, taking the slowest contact's latency —
    and the rollback.  One :class:`_Attempt` spans the whole fan-out, so
    its admissions and its path cost are the reservation's."""

    def __init__(self, protocol: HopByHopProtocol) -> None:
        self.protocol = protocol

    def _start(
        self, user: UserAgent, request: ReservationRequest,
        skip_domains: Iterable[str] = (),
    ) -> tuple[_Attempt, SourceDomainOutcome]:
        path = self.protocol.domain_path(
            request.source_domain, request.destination_domain
        )
        skip = set(skip_domains)
        outcome = SourceDomainOutcome(
            granted=False, path=tuple(path),
            skipped=tuple(d for d in path if d in skip),
        )
        return _Attempt(str(user.dn), self.protocol.clock(), outcome,
                        rate_mbps=request.rate_mbps), outcome

    def _fan_out(
        self, att: _Attempt, outcome: SourceDomainOutcome, sender: Any,
        message: Callable[[SecureChannel, BandwidthBroker], object],
        decide: Callable[[_Attempt, _Hop, object], str], *, concurrent: bool,
    ) -> None:
        """Contact every BB on the path but the skipped ones: open the
        channel, deliver what *message* builds, let *decide* run the BB's
        step (a handle, or :class:`_Refused`), carry the handle back."""
        protocol, path = self.protocol, outcome.path
        start, legs = outcome.latency_s, []
        for index, domain in enumerate(path):
            if domain in outcome.skipped:
                continue
            try:
                bb = protocol.brokers.get(domain)
                if bb is None:
                    raise _Refused(domain, "no bandwidth broker",
                                   ReasonCode.BROKER_UNREACHABLE)
                try:
                    channel = protocol.channels.connect(
                        sender, bb, at_time=att.at_time
                    )
                except HandshakeError as exc:
                    # The scaling flaw: this BB has no trust relationship
                    # with the sender, so it cannot even authenticate it.
                    raise _Refused(domain, f"no trust relationship: {exc}",
                                   ReasonCode.TRUST_FAILURE) from exc
                sent = message(channel, bb)
                hop = _Hop(
                    domain, bb, path[index - 1] if index > 0 else None,
                    path[index + 1] if index + 1 < len(path) else None,
                    peer=att.user, peer_kind="user",
                    peer_certificate=channel.peer_certificate(bb.dn),
                    resend=(channel, sender.dn, sent),
                )
                received = self._send(att, channel, sender.dn, sent, domain,
                                      what=f"request to {domain}")
                outcome.latency_s += PROCESSING_DELAY_S
                att.walked = [(hop, channel)]
                handle = decide(att, hop, received)
                self._send(att, channel, bb.dn, handle, domain,
                           what=f"reply from {domain}")
            except _Refused as refusal:
                self._refuse(att, outcome, refusal)
                if not concurrent:
                    # A sequential agent stops at the first refusal.
                    break
            if concurrent:
                # Every contact starts at once; the slowest one counts.
                legs.append(outcome.latency_s - start)
                outcome.latency_s = start
        if concurrent:
            outcome.latency_s = start + max(legs, default=0.0)

    def _send(
        self, att: _Attempt, channel: SecureChannel, sender: DistinguishedName,
        message: object, domain: str, *, what: str,
    ) -> object:
        """One delivery through the engine (per-hop timeout, retries,
        breaker, latency); a spent budget refuses at *domain*."""
        try:
            return self.protocol._deliver(
                att, channel, sender, message, deadline=att.deadline, what=what,
            )
        except _DELIVERY_FAILURES as exc:
            raise _Refused(domain, str(exc), exc) from exc

    def _refuse(
        self, att: _Attempt, outcome: SourceDomainOutcome, refusal: _Refused,
    ) -> None:
        """Record through the engine's denial writer; reply if signed."""
        outcome.failures[refusal.domain] = refusal.reason
        denial = self.protocol._deny(att, refusal)
        if denial is not None:
            self.protocol._reply(att, denial)

    def _settle(
        self, att: _Attempt, outcome: SourceDomainOutcome, rollback: bool,
    ) -> SourceDomainOutcome:
        outcome.handles = {bb.domain: handle for bb, handle in att.granted}
        outcome.granted = bool(outcome.handles) and not outcome.failures
        outcome.complete = outcome.granted and len(outcome.handles) == len(outcome.path)
        if outcome.failures and rollback:
            self.protocol._release_granted(
                att, "denied by " + ", ".join(outcome.failures)
            )
            outcome.handles = {}
        return outcome

    # -- lifecycle --------------------------------------------------------------------

    def claim(self, outcome: SourceDomainOutcome) -> None:
        """Claim whatever the outcome holds, deliberately *not* only when
        ``complete``: the data plane cannot tell (Figure 4)."""
        for domain, handle in outcome.handles.items():
            self.protocol.brokers[domain].claim(handle)

    def release(self, outcome: SourceDomainOutcome) -> None:
        for domain, handle in list(outcome.handles.items()):
            self.protocol.brokers[domain].cancel(handle)
            del outcome.handles[domain]


class EndToEndAgent(FanOut):
    """The GARA end-to-end reservation library: contacts every BB itself."""

    def reserve(
        self, user: UserAgent, request: ReservationRequest, *,
        assertions: Sequence[SignedAssertion] = (), concurrent: bool = False,
        skip_domains: Iterable[str] = (), rollback_on_failure: bool = True,
    ) -> SourceDomainOutcome:
        """Send every BB on the path (except ``skip_domains``) a ``RAR_U``
        of its own, delegating the user's capabilities to that BB."""
        att, outcome = self._start(user, request, skip_domains)
        carried = tuple(assertions) + tuple(user.assertions)

        def rar(channel: SecureChannel, bb: BandwidthBroker) -> object:
            return make_user_rar(
                request=request, source_bb=bb.dn,
                capability_certs=user.delegate_capabilities_to(
                    bb.dn, channel.peer_certificate(user.dn).public_key
                ),
                assertions=carried, user=user.dn, user_key=user.keypair.private,
            )

        self._fan_out(att, outcome, user, rar, self._step, concurrent=concurrent)
        return self._settle(att, outcome, rollback_on_failure)

    def _step(self, att: _Attempt, hop: _Hop, received: object) -> str:
        """The hop engine's per-domain step, with nothing to forward."""
        protocol = self.protocol
        admit, _ = protocol._decide(att, hop, protocol._receive(att, hop, received))
        return admit.reservation.handle
