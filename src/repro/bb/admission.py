"""Advance-reservation admission control.

A bandwidth broker must answer: *can I carry R Mb/s between t₀ and t₁ in
addition to everything already admitted?*  A :class:`CapacitySchedule`
tracks bookings over time for one capacity-constrained resource (an
interdomain SLA, an intra-domain trunk); the check is a boundary sweep,
exact for piecewise-constant demand.

The schedule maintains a sorted boundary index: each booking contributes
``(start, +rate)`` and ``(end, -rate)``, ordered by time with releases
before bookings at equal instants (bookings are ``[start, end)``).
``book`` and ``release`` each cost two bisects and two list shifts;
``load_at`` is one bisect plus one C-level ``math.fsum`` over the deltas
up to the instant; ``peak_load`` is one bisect to the window, that base
load at its start, and one running-sum sweep over the *k* boundaries
inside it -- O(log n + k) Python steps where the scan it replaced was
O(n*k) (``tests/bb/_oracle.py`` keeps that scan as the test oracle).
Two rules keep the index exact.  No running total outlives a query: the
base is re-summed, exactly rounded, each time, so an emptied schedule
reads ``0.0`` and nothing drifts across book/release cycles.  And a
sorted index needs ordered keys, so non-finite times and rates are
refused before they reach it.

An :class:`AdmissionController` aggregates the schedules a broker cares
about and books all-or-nothing across them.
"""

from __future__ import annotations

import itertools
import logging
import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass

from repro.errors import AdmissionError, CapacityExceededError
from repro.obs import metrics as obs_metrics

__all__ = ["Booking", "CapacitySchedule", "AdmissionController"]

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class Booking:
    booking_id: int
    start: float
    end: float
    rate_mbps: float
    tag: str = ""


class CapacitySchedule:
    """Time-varying capacity bookkeeping for one resource."""

    def __init__(self, name: str, capacity_mbps: float):
        if capacity_mbps <= 0:
            raise AdmissionError("capacity must be positive")
        self.name = name
        self.capacity_mbps = capacity_mbps
        self._bookings: dict[int, Booking] = {}
        # The boundary index, as two parallel lists sorted by
        # (time, delta): a release (negative delta) sorts before a
        # booking at the same instant, so no running sum in
        # ``peak_load`` ever exceeds the true load at that instant.
        self._times: list[float] = []
        self._deltas: list[float] = []
        self._ids = itertools.count(1)

    # -- the boundary index ------------------------------------------------------------

    def _position(self, when: float, delta: float) -> int:
        """Leftmost slot for ``(when, delta)``."""
        return bisect_left(
            self._deltas, delta,
            bisect_left(self._times, when), bisect_right(self._times, when),
        )

    def _insert(self, when: float, delta: float) -> None:
        at = self._position(when, delta)
        self._times.insert(at, when)
        self._deltas.insert(at, delta)

    def _remove(self, when: float, delta: float) -> None:
        # Equal (when, delta) pairs are interchangeable: whichever one
        # goes, the bookings that put the others there are still counted.
        at = self._position(when, delta)
        del self._times[at]
        del self._deltas[at]

    # -- queries -------------------------------------------------------------------

    def load_at(self, when: float) -> float:
        """Total booked rate at instant *when* (bookings are [start, end))."""
        # Exactly rounded and recomputed per query: every booking that
        # has ended by *when* cancels to nothing, whatever was booked
        # and released before.
        return math.fsum(self._deltas[:bisect_right(self._times, when)])

    def peak_load(self, start: float, end: float) -> float:
        """Maximum total booked rate over [start, end)."""
        # Load only changes at booking boundaries: the load at the window
        # start, then one running sum over the boundaries strictly inside
        # the window.
        first = bisect_right(self._times, start)
        last = bisect_left(self._times, end, first)
        return max(itertools.accumulate(
            self._deltas[first:last],
            initial=math.fsum(self._deltas[:first]),
        ))

    def available(self, start: float, end: float) -> float:
        """Worst-case spare capacity over [start, end)."""
        if not (math.isfinite(start) and math.isfinite(end)):
            raise AdmissionError("interval bounds must be finite")
        if end <= start:
            raise AdmissionError("interval must have positive width")
        return self.capacity_mbps - self.peak_load(start, end)

    def utilization(self, when: float) -> float:
        return self.load_at(when) / self.capacity_mbps

    @property
    def bookings(self) -> tuple[Booking, ...]:
        return tuple(self._bookings.values())

    # -- mutation --------------------------------------------------------------------

    def book(
        self, start: float, end: float, rate_mbps: float, *, tag: str = ""
    ) -> Booking:
        """Admit a booking or raise :class:`CapacityExceededError`."""
        if not (math.isfinite(rate_mbps) and rate_mbps > 0):
            raise AdmissionError("booked rate must be positive and finite")
        registry = obs_metrics.get_registry()
        spare = self.available(start, end)
        if rate_mbps > spare + 1e-9:
            if registry is not None:
                registry.counter(
                    "booking_failures_total",
                    "Capacity bookings refused for lack of spare capacity",
                ).inc(resource=self.name)
            logger.debug(
                "%s: booking of %.1f Mb/s refused (%.3f spare)",
                self.name, rate_mbps, max(spare, 0.0),
            )
            raise CapacityExceededError(
                f"{self.name}: requested {rate_mbps} Mb/s over "
                f"[{start}, {end}) "
                f"but only {max(spare, 0.0):.3f} Mb/s available "
                f"(capacity {self.capacity_mbps})"
            )
        booking = Booking(next(self._ids), start, end, rate_mbps, tag)
        self._bookings[booking.booking_id] = booking
        self._insert(start, rate_mbps)
        self._insert(end, -rate_mbps)
        if registry is not None:
            load_now = self.load_at(start)
            registry.counter(
                "bookings_total", "Capacity bookings admitted, by resource",
            ).inc(resource=self.name)
            registry.gauge(
                "booked_load_mbps",
                "Total booked rate at the start of the latest booking",
            ).set(load_now, resource=self.name)
        return booking

    def release(self, booking_id: int) -> None:
        booking = self._bookings.pop(booking_id, None)
        if booking is None:
            raise AdmissionError(
                f"{self.name}: unknown booking {booking_id}"
            )
        self._remove(booking.start, booking.rate_mbps)
        self._remove(booking.end, -booking.rate_mbps)


class AdmissionController:
    """All-or-nothing booking across several capacity schedules."""

    def __init__(self) -> None:
        self._schedules: dict[str, CapacitySchedule] = {}

    def add_resource(self, name: str, capacity_mbps: float) -> CapacitySchedule:
        if name in self._schedules:
            raise AdmissionError(f"duplicate resource {name!r}")
        schedule = CapacitySchedule(name, capacity_mbps)
        self._schedules[name] = schedule
        return schedule

    def schedule(self, name: str) -> CapacitySchedule:
        try:
            return self._schedules[name]
        except KeyError:
            raise AdmissionError(f"unknown resource {name!r}") from None

    def resources(self) -> tuple[str, ...]:
        return tuple(self._schedules)

    def available(self, names: list[str], start: float, end: float) -> float:
        """Bottleneck spare capacity across the named resources."""
        if not names:
            raise AdmissionError("no resources named")
        return min(self.schedule(n).available(start, end) for n in names)

    def book_all(
        self,
        names: list[str],
        start: float,
        end: float,
        rate_mbps: float,
        *,
        tag: str = "",
    ) -> tuple[tuple[str, int], ...]:
        """Book *rate_mbps* on every named resource, atomically: on any
        failure, already-made bookings are rolled back and the error is
        re-raised.  Returns ``((resource, booking_id), ...)``."""
        made: list[tuple[str, int]] = []
        try:
            for name in names:
                booking = self.schedule(name).book(
                    start, end, rate_mbps, tag=tag
                )
                made.append((name, booking.booking_id))
        except AdmissionError:
            for name, bid in made:
                self.schedule(name).release(bid)
            raise
        return tuple(made)

    def release_all(self, bookings: tuple[tuple[str, int], ...]) -> None:
        for name, bid in bookings:
            self.schedule(name).release(bid)
