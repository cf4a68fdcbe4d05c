"""Tunnels: aggregate reservations with end-domain-only flow signalling.

"Support for tunnels allows an entity to request an aggregate end-to-end
reservation.  Users authorized to use this tunnel can then request
portions of this aggregate bandwidth by contacting just the two end
domains — the intermediate domains do not need to be contacted as long
[as] the total bandwidth remains less than the size of the tunnel." (§1)

Establishment rides on the hop-by-hop protocol; what makes the *direct*
source↔destination signalling channel possible afterwards is the identity
information the protocol propagates: the destination BB traced the path
and holds the source BB's certificate from the introduction chain
("because of this direct connection, it must be possible for the
end-domain to derive the identity of the source domain's BB", §6.4).

Scalability claim (benchmark C2): N flows over a k-domain path cost
``N * 2k`` messages per-flow but only ``2k + 4N`` with a tunnel.
"""

from __future__ import annotations

import itertools
import logging
import math
from dataclasses import dataclass, field

from repro.bb.admission import CapacitySchedule
from repro.bb.reservations import ReservationRequest
from repro.core.agent import UserAgent
from repro.core.channel import ChannelRegistry, SecureChannel
from repro.core.hopbyhop import (
    PROCESSING_DELAY_S,
    HopByHopProtocol,
    SignallingOutcome,
)
from repro.crypto.dn import DistinguishedName
from repro.errors import CapacityExceededError, ChannelError, TunnelError
from repro.obs import decisions
from repro.obs import events as obs_events
from repro.obs import spans as obs_spans
from repro.obs.events import ReasonCode

__all__ = ["Tunnel", "FlowAllocation", "TunnelService"]

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class FlowAllocation:
    """A slice of a tunnel granted to one flow."""

    allocation_id: str
    tunnel_id: str
    owner: DistinguishedName
    rate_mbps: float
    start: float
    end: float
    #: ``"tunnel"`` for a slice of the aggregate; ``"per-flow"`` when the
    #: direct end-domain signalling failed and the flow fell back to an
    #: ordinary hop-by-hop reservation (graceful degradation).
    via: str = "tunnel"
    #: The slice's booking in :attr:`Tunnel.schedule`; ``None`` for a
    #: per-flow fallback, which holds no tunnel capacity.
    booking_id: int | None = None


@dataclass
class Tunnel:
    """An established aggregate reservation between two end domains."""

    tunnel_id: str
    source_domain: str
    destination_domain: str
    capacity_mbps: float
    start: float
    end: float
    owner: DistinguishedName
    #: Per-domain reservation handles of the underlying aggregate.
    handles: dict[str, str] = field(default_factory=dict)
    #: DNs authorized to request slices (owner always is).
    authorized: set[DistinguishedName] = field(default_factory=set)
    allocations: dict[str, FlowAllocation] = field(default_factory=dict)
    #: The direct end-to-end signalling channel (source BB <-> dest BB).
    direct_channel: SecureChannel | None = None
    #: The aggregate's capacity over time: one booking per ``"tunnel"``
    #: slice.  Fallback (per-flow) allocations hold their own hop-by-hop
    #: reservations and book nothing here.
    schedule: CapacitySchedule = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.schedule = CapacitySchedule(self.tunnel_id, self.capacity_mbps)

    def allocated_mbps(self, start: float, end: float) -> float:
        """Peak allocation over [start, end)."""
        return self.schedule.peak_load(start, end)

    def headroom(self, start: float, end: float) -> float:
        return self.schedule.available(start, end)

    def may_allocate(self, who: DistinguishedName) -> bool:
        return who == self.owner or who in self.authorized


class TunnelService:
    """Tunnel establishment and intra-tunnel flow allocation."""

    def __init__(
        self, protocol: HopByHopProtocol, channels: ChannelRegistry
    ) -> None:
        self.protocol = protocol
        self.channels = channels
        self._tunnels: dict[str, Tunnel] = {}
        self._ids = itertools.count(1)
        self._alloc_ids = itertools.count(1)
        #: Hop-by-hop outcomes backing fallback (per-flow) allocations,
        #: keyed by allocation id — released with the allocation.
        self._fallbacks: dict[str, SignallingOutcome] = {}

    def get(self, tunnel_id: str) -> Tunnel:
        try:
            return self._tunnels[tunnel_id]
        except KeyError:
            raise TunnelError(f"unknown tunnel {tunnel_id!r}") from None

    # -- establishment ---------------------------------------------------------------

    def establish(
        self,
        user: UserAgent,
        request: ReservationRequest,
    ) -> tuple[Tunnel | None, SignallingOutcome]:
        """Reserve the aggregate hop-by-hop and, on success, open the direct
        source↔destination channel using the traced identity information."""
        tagged = request.with_attributes(tunnel=True)
        outcome = self.protocol.reserve(user, tagged)
        if not outcome.granted:
            logger.info(
                "tunnel %s->%s denied: %s",
                request.source_domain, request.destination_domain,
                outcome.denial_reason,
            )
            return None, outcome
        source_bb = self.protocol.brokers[request.source_domain]
        dest_bb = self.protocol.brokers[request.destination_domain]

        # The destination traced the path; the source BB's certificate is
        # among the introduced certificates (or, for adjacent domains, is
        # already the SLA peer certificate).
        direct: SecureChannel
        if self.channels.has(source_bb.dn, dest_bb.dn):
            direct = self.channels.between(source_bb.dn, dest_bb.dn)
        else:
            assert outcome.verified is not None
            introduced = {c.subject: c for c in outcome.verified.introduced}
            source_cert = introduced.get(source_bb.dn)
            if source_cert is None:
                raise TunnelError(
                    "destination could not derive the source BB identity from "
                    "the signalling path"
                )
            dest_bb.truststore.add_introduced_peer(source_cert)
            source_bb.truststore.add_introduced_peer(dest_bb.certificate)
            direct = self.channels.connect(source_bb, dest_bb)

        tunnel = Tunnel(
            tunnel_id=f"TUN-{next(self._ids):04d}",
            source_domain=request.source_domain,
            destination_domain=request.destination_domain,
            capacity_mbps=request.rate_mbps,
            start=request.start,
            end=request.end,
            owner=user.dn,
            handles=dict(outcome.handles),
            direct_channel=direct,
        )
        self._tunnels[tunnel.tunnel_id] = tunnel
        logger.info(
            "established %s: %.1f Mb/s %s->%s",
            tunnel.tunnel_id, tunnel.capacity_mbps,
            tunnel.source_domain, tunnel.destination_domain,
        )
        return tunnel, outcome

    def authorize(self, tunnel_id: str, who: DistinguishedName) -> None:
        self.get(tunnel_id).authorized.add(who)

    # -- intra-tunnel flows -------------------------------------------------------------

    def allocate_flow(
        self,
        tunnel_id: str,
        user: UserAgent,
        rate_mbps: float,
        *,
        start: float | None = None,
        end: float | None = None,
    ) -> tuple[FlowAllocation, float, int]:
        """Allocate a slice by contacting ONLY the two end domains.

        Returns ``(allocation, signalling_latency_s, messages)``.  Raises
        :class:`~repro.errors.TunnelError` on authorization, window, or
        headroom failure.
        """
        try:
            allocation, latency, messages = self._allocate_flow(
                tunnel_id, user, rate_mbps, start=start, end=end
            )
        except TunnelError as exc:
            logger.info("flow allocation on %s rejected: %s", tunnel_id, exc)
            raise
        logger.debug(
            "allocated %s: %.1f Mb/s on %s (%d msgs)",
            allocation.allocation_id, rate_mbps, tunnel_id, messages,
        )
        return allocation, latency, messages

    def _allocate_flow(
        self,
        tunnel_id: str,
        user: UserAgent,
        rate_mbps: float,
        *,
        start: float | None = None,
        end: float | None = None,
    ) -> tuple[FlowAllocation, float, int]:
        tunnel = self.get(tunnel_id)
        start = tunnel.start if start is None else start
        end = tunnel.end if end is None else end
        if not tunnel.may_allocate(user.dn):
            raise TunnelError(f"{user.dn} is not authorized for {tunnel_id}")
        if not tunnel.start <= start < end <= tunnel.end:
            raise TunnelError(
                f"allocation window [{start}, {end}) outside tunnel window "
                f"[{tunnel.start}, {tunnel.end})"
            )
        if not (math.isfinite(rate_mbps) and rate_mbps > 0):
            raise TunnelError("allocation rate must be positive and finite")
        # Book before signalling, so a refused flow costs no message.
        try:
            booking = tunnel.schedule.book(start, end, rate_mbps)
        except CapacityExceededError:
            headroom = tunnel.headroom(start, end)
            raise TunnelError(
                f"tunnel {tunnel_id} has {max(headroom, 0.0):.3f} Mb/s headroom, "
                f"requested {rate_mbps}"
            ) from None
        # Signalling: user -> source BB, source BB -> dest BB (direct), and
        # the two replies.  Intermediate domains are never touched.
        source_bb = self.protocol.brokers[tunnel.source_domain]
        dest_bb = self.protocol.brokers[tunnel.destination_domain]
        try:
            user_channel = self.channels.connect(user, source_bb)
        except ChannelError:
            # No channel to the user, no flow (a failed handshake is not
            # an unreachable end domain, so nothing falls back).
            tunnel.schedule.release(booking.booking_id)
            raise
        direct = tunnel.direct_channel
        assert direct is not None
        messages = 0
        latency = 0.0
        legs = (
            (user_channel, user.dn, {"allocate": tunnel_id, "rate": rate_mbps}),
            (direct, source_bb.dn, {"allocate": tunnel_id, "rate": rate_mbps}),
            (direct, dest_bb.dn, {"ok": tunnel_id}),
            (user_channel, source_bb.dn, {"ok": tunnel_id}),
        )
        try:
            for channel, sender, payload in legs:
                _, extra_delay = channel.transmit_timed(sender, payload)
                messages += 1
                latency += channel.latency_s + extra_delay
        except ChannelError as exc:
            # Graceful degradation (§1): when the direct end-domain
            # exchange fails — a tunnel end-domain unreachable — the flow
            # falls back to ordinary per-flow hop-by-hop signalling
            # through the intermediate domains, which brings retries and
            # its own admission along.  The flow then holds no tunnel
            # capacity.
            tunnel.schedule.release(booking.booking_id)
            return self._fallback_per_flow(
                tunnel, user, rate_mbps, start=start, end=end,
                cause=exc, spent_latency_s=latency, spent_messages=messages,
            )
        latency += 2 * PROCESSING_DELAY_S

        allocation = FlowAllocation(
            allocation_id=f"ALC-{next(self._alloc_ids):05d}",
            tunnel_id=tunnel_id,
            owner=user.dn,
            rate_mbps=rate_mbps,
            start=start,
            end=end,
            booking_id=booking.booking_id,
        )
        tunnel.allocations[allocation.allocation_id] = allocation
        return allocation, latency, messages

    def _fallback_per_flow(
        self,
        tunnel: Tunnel,
        user: UserAgent,
        rate_mbps: float,
        *,
        start: float,
        end: float,
        cause: ChannelError,
        spent_latency_s: float,
        spent_messages: int,
    ) -> tuple[FlowAllocation, float, int]:
        """Degrade gracefully: reserve the flow hop by hop instead.

        The per-flow reservation crosses every intermediate domain (losing
        the tunnel's message savings for this flow, keeping its service),
        is tracked against the allocation id, and is released with it."""
        reason = str(cause)
        logger.warning(
            "%s: direct end-domain signalling failed (%s); falling back to "
            "per-flow hop-by-hop", tunnel.tunnel_id, reason,
        )
        request = ReservationRequest(
            source_host=f"h0.{tunnel.source_domain}",
            destination_host=f"h0.{tunnel.destination_domain}",
            source_domain=tunnel.source_domain,
            destination_domain=tunnel.destination_domain,
            rate_mbps=rate_mbps,
            start=start,
            end=end,
        )
        # The degradation gets a correlation ID and a span of its own: the
        # FALLBACK event carries the ID, and the span links to the
        # per-flow reservation's trace once that has run.
        with obs_events.correlation_scope(obs_spans.mint_correlation_id()):
            obs_spans.open_span(
                "tunnel_fallback", tunnel=tunnel.tunnel_id, cause=reason,
            )
            decisions.record(
                "fallback", domain=tunnel.source_domain, user=str(user.dn),
                reason=reason,
                reason_code=ReasonCode.TUNNEL_DIRECT_FAILED,
                rate_mbps=rate_mbps,
                tunnel=tunnel.tunnel_id, target=tunnel.tunnel_id,
            )
            outcome = self.protocol.reserve(user, request)
            if not outcome.granted:
                obs_spans.close_span(
                    "error", error=outcome.denial_reason,
                    link=outcome.correlation_id,
                )
                raise TunnelError(
                    f"tunnel {tunnel.tunnel_id} direct signalling failed "
                    f"({reason}) and the per-flow fallback was denied by "
                    f"{outcome.denial_domain}: {outcome.denial_reason}"
                ) from cause
            obs_spans.close_span(link=outcome.correlation_id)
        allocation = FlowAllocation(
            allocation_id=f"ALC-{next(self._alloc_ids):05d}",
            tunnel_id=tunnel.tunnel_id,
            owner=user.dn,
            rate_mbps=rate_mbps,
            start=start,
            end=end,
            via="per-flow",
        )
        tunnel.allocations[allocation.allocation_id] = allocation
        self._fallbacks[allocation.allocation_id] = outcome
        return (
            allocation,
            spent_latency_s + outcome.latency_s,
            spent_messages + outcome.messages,
        )

    def release_flow(self, tunnel_id: str, allocation_id: str) -> None:
        tunnel = self.get(tunnel_id)
        allocation = tunnel.allocations.pop(allocation_id, None)
        if allocation is None:
            raise TunnelError(f"unknown allocation {allocation_id!r}")
        self._release(tunnel, allocation)
        logger.debug("released %s from %s", allocation_id, tunnel_id)

    def teardown(self, tunnel_id: str) -> None:
        """Cancel the aggregate reservation in every domain (plus any
        fallback per-flow reservations still alive)."""
        tunnel = self.get(tunnel_id)
        for allocation in tunnel.allocations.values():
            self._release(tunnel, allocation)
        for domain, handle in tunnel.handles.items():
            self.protocol.brokers[domain].cancel(handle)
        del self._tunnels[tunnel_id]

    def _release(self, tunnel: Tunnel, allocation: FlowAllocation) -> None:
        """Give back what *allocation* holds: its tunnel booking, or its
        fallback per-flow reservation."""
        if allocation.booking_id is not None:
            tunnel.schedule.release(allocation.booking_id)
        fallback = self._fallbacks.pop(allocation.allocation_id, None)
        if fallback is not None:
            self.protocol.cancel(fallback)
