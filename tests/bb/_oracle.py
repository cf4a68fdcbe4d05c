"""Brute-force references the broker's indexes are tested against.

The capacity scan ``CapacitySchedule`` used until PR 22, kept verbatim:
a list of bookings and two functions, no lock, no index.  The tunnel's
own copy of the same sweep, which ``Tunnel.allocated_mbps`` ran until
tunnels booked into a ``CapacitySchedule``, is the third.

The reservation table's full-history filters, which ``in_state``,
``active_at`` and ``sweep_expired`` ran while the table still kept every
row it had made, and ``BandwidthBroker._live_counts``' three
``in_state`` passes over them.  The table now holds live rows only, so
each takes a list the caller keeps of every row the table created,
terminal ones included.  :func:`ingress_total` is the sum
``BandwidthBroker._refresh_ingress`` provisions, over that full scan in
creation order.
"""

from repro.bb.admission import Booking
from repro.bb.reservations import ReservationState


def load_at(bookings: list[Booking], when: float) -> float:
    """Total booked rate at instant *when* (bookings are [start, end))."""
    return sum(
        b.rate_mbps
        for b in bookings
        if b.start <= when < b.end
    )


def peak_load(bookings: list[Booking], start: float, end: float) -> float:
    """Maximum total booked rate over [start, end)."""
    peak = 0.0
    # Load only changes at booking boundaries; sample each boundary
    # inside the window plus the window start.
    points = {start}
    for b in bookings:
        if b.end > start and b.start < end:
            points.add(max(b.start, start))
    for p in points:
        peak = max(peak, load_at(bookings, p))
    return peak


def tunnel_allocated(allocations, start: float, end: float) -> float:
    """Peak load of a tunnel's slices over [start, end).  Fallback
    (``via="per-flow"``) allocations hold their own hop-by-hop
    reservations and do not consume tunnel capacity."""
    return peak_load(
        [a for a in allocations if a.via == "tunnel"], start, end
    )


def in_state(rows, *states):
    return tuple(
        r for r in rows if r.state in states
    )


def active_at(rows, when):
    return tuple(
        r for r in rows if r.active_at(when)
    )


def lapsed(rows, now):
    """The rows ``sweep_expired(now)`` expires, in the order it returns
    them (it then sets each one's state to EXPIRED)."""
    return tuple(
        resv for resv in rows
        if resv.state
        in (ReservationState.GRANTED, ReservationState.ACTIVE)
        and resv.expires_at is not None
        and resv.expires_at <= now
    )


def live_counts(rows, resv):
    """Live reservations held by *resv*'s owner and arriving over its
    ingress, excluding *resv* itself."""
    user = str(resv.owner) if resv.owner else ""
    user_count = 0
    ingress_count = 0
    for state in (ReservationState.PENDING, ReservationState.GRANTED,
                  ReservationState.ACTIVE):
        for other in in_state(rows, state):
            if other.handle == resv.handle:
                continue
            if user and str(other.owner) == user:
                user_count += 1
            if resv.upstream is not None and other.upstream == resv.upstream:
                ingress_count += 1
    return user_count, ingress_count


def ingress_total(rows, upstream, service_class):
    """The ACTIVE rate arriving over *upstream* in *service_class*, added
    up in creation order."""
    total = 0.0
    for resv in in_state(rows, ReservationState.ACTIVE):
        if resv.upstream == upstream and resv.request.service_class == service_class:
            total = total + resv.request.rate_mbps
    return total
