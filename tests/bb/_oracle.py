"""The brute-force capacity scan ``CapacitySchedule`` used until PR 22,
kept verbatim as the reference its boundary index is tested against: a
list of bookings and two functions, no lock, no index.  The tunnel's
own copy of the same sweep, which ``Tunnel.allocated_mbps`` ran until
tunnels booked into a ``CapacitySchedule``, is the third."""

from repro.bb.admission import Booking


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
