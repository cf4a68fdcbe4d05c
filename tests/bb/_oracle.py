"""The brute-force capacity scan ``CapacitySchedule`` used until PR 22,
kept verbatim as the reference its boundary index is tested against: a
list of bookings and two functions, no lock, no index."""

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
