"""A small discrete-event simulation engine.

Everything time-dependent in the reproduction — packet transmission,
token-bucket refill, signalling-channel latency — runs on this engine.
The design follows the classic event-list pattern: a heap of
``(time, sequence, callback)`` entries, a virtual clock that jumps from
event to event, and zero wall-clock coupling so every run is
deterministic and fast (the guides' "make it work, make it reliable"
rule; the loop itself is the measured hot path and is kept allocation
light).

Example::

    sim = Simulator()
    sim.schedule(1.0, lambda: print("one second in"))
    sim.run(until=10.0)
"""

from __future__ import annotations

import heapq
import itertools
import logging
from dataclasses import dataclass, field
from typing import Callable

from repro.errors import SimulationError

__all__ = ["Simulator", "Event", "Trace"]

logger = logging.getLogger(__name__)


@dataclass(order=True)
class Event:
    """A scheduled callback.  Ordered by (time, seq) so ties preserve
    scheduling order.  Cancelled events stay in the heap but are skipped."""

    time: float
    seq: int
    action: Callable[[], None] = field(compare=False)
    cancelled: bool = field(default=False, compare=False)

    def cancel(self) -> None:
        self.cancelled = True


class Simulator:
    """Event-driven virtual-time scheduler."""

    def __init__(self, start_time: float = 0.0):
        self._now = start_time
        self._queue: list[Event] = []
        self._seq = itertools.count()
        self._running = False
        self.events_processed = 0

    @property
    def now(self) -> float:
        """Current virtual time in seconds."""
        return self._now

    # -- scheduling -----------------------------------------------------------

    def schedule(self, delay: float, action: Callable[[], None]) -> Event:
        """Run *action* after *delay* seconds of virtual time."""
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        return self.at(self._now + delay, action)

    def at(self, time: float, action: Callable[[], None]) -> Event:
        """Run *action* at absolute virtual *time*."""
        if time < self._now:
            raise SimulationError(
                f"cannot schedule at t={time}, current time is {self._now}"
            )
        event = Event(time, next(self._seq), action)
        heapq.heappush(self._queue, event)
        return event

    # -- execution --------------------------------------------------------------

    def step(self) -> bool:
        """Process the next pending event.  Returns False when idle."""
        queue = self._queue
        while queue:
            event = heapq.heappop(queue)
            if event.cancelled:
                continue
            self._now = event.time
            event.action()
            self.events_processed += 1
            return True
        return False

    def run(self, until: float | None = None, max_events: int | None = None) -> None:
        """Run until the event list drains, *until* is reached, or
        *max_events* have been processed."""
        if self._running:
            raise SimulationError("simulator is not reentrant")
        self._running = True
        events_before = self.events_processed
        try:
            processed = 0
            queue = self._queue
            while queue:
                if max_events is not None and processed >= max_events:
                    return
                event = queue[0]
                if event.cancelled:
                    heapq.heappop(queue)
                    continue
                if until is not None and event.time > until:
                    self._now = until
                    return
                heapq.heappop(queue)
                self._now = event.time
                event.action()
                self.events_processed += 1
                processed += 1
            if until is not None and until > self._now:
                self._now = until
        finally:
            self._running = False
            logger.debug(
                "run() processed %d events, %d pending, t=%.6f",
                self.events_processed - events_before, self.pending, self._now,
            )

    @property
    def pending(self) -> int:
        """Number of not-yet-cancelled events still queued."""
        return sum(1 for e in self._queue if not e.cancelled)


class Trace:
    """Append-only time series recorder: ``(time, value)`` samples.

    Used by measurement probes (throughput, queue depth, drops) and by
    the benchmark harness to regenerate figure data.
    """

    def __init__(self, name: str = ""):
        self.name = name
        self.times: list[float] = []
        self.values: list[float] = []

    def record(self, time: float, value: float) -> None:
        if self.times and time < self.times[-1]:
            raise SimulationError(
                f"trace {self.name!r}: time went backwards ({time} < {self.times[-1]})"
            )
        self.times.append(time)
        self.values.append(value)

    def __len__(self) -> int:
        return len(self.times)

    def total(self) -> float:
        return sum(self.values)

    def rate_over(self, start: float, end: float) -> float:
        """Sum of values recorded in [start, end) divided by the window."""
        if end <= start:
            raise SimulationError("rate window must have positive width")
        total = sum(v for t, v in zip(self.times, self.values) if start <= t < end)
        return total / (end - start)

    def samples(self) -> list[tuple[float, float]]:
        return list(zip(self.times, self.values))
