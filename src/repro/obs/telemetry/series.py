"""Bounded ring-buffer time series: the flight recorder's storage layer.

One :class:`TimeSeries` holds the sampled history of a single metric
series (one name + one label set) as ``(time, value)`` points in a
``deque(maxlen=capacity)`` — the ring-buffer bound that keeps a
long-running recorder's memory constant no matter how many frames it
takes.  A :class:`SeriesStore` owns many of them and is the substrate
the alert rules evaluate over.

Counters are stored **raw** (the cumulative totals the registry
reports); the *derivation* into rates is delta-aware and happens at
read time (:meth:`SeriesStore.rate`), summing only non-negative deltas
so a counter reset (a fresh testbed mid-campaign) reads as "no traffic"
rather than a large negative rate.  Storing raw samples is what makes
recordings replayable bit-for-bit: everything derived — rates, burn
rates, alert transitions, the health badge — is a pure function of the
recorded frames.

Everything here is driven by caller-supplied modelled time; lint rule
REP113 bans wall-clock and raw monotonic reads in this package.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping

from repro.errors import ObservabilityError

__all__ = [
    "SeriesKey",
    "TimeSeries",
    "SeriesStore",
    "ewma",
    "ewm_stats",
]

#: Default per-series ring-buffer capacity (frames retained).
DEFAULT_CAPACITY = 720


@dataclass(frozen=True, order=True)
class SeriesKey:
    """One series' identity: metric name + sorted label items."""

    name: str
    labels: tuple[tuple[str, str], ...] = ()

    @staticmethod
    def make(name: str, labels: Mapping[str, object] | None = None) -> "SeriesKey":
        items = tuple(
            sorted((k, str(v)) for k, v in (labels or {}).items())
        )
        return SeriesKey(name, items)

    def label(self, key: str, default: str = "") -> str:
        for k, v in self.labels:
            if k == key:
                return v
        return default

    def matches(self, name: str, where: Mapping[str, str] | None = None) -> bool:
        if self.name != name:
            return False
        if where:
            mine = dict(self.labels)
            return all(mine.get(k) == v for k, v in where.items())
        return True

    def render(self) -> str:
        if not self.labels:
            return self.name
        body = ",".join(f"{k}={v}" for k, v in self.labels)
        return f"{self.name}{{{body}}}"

    @staticmethod
    def parse(text: str) -> "SeriesKey":
        """Inverse of :meth:`render` (the ``.tsrec`` on-disk key form)."""
        if "{" not in text:
            return SeriesKey(text)
        name, _, rest = text.partition("{")
        body = rest.rstrip("}")
        labels = []
        if body:
            for item in body.split(","):
                k, _, v = item.partition("=")
                labels.append((k, v))
        return SeriesKey(name, tuple(sorted(labels)))


class TimeSeries:
    """One bounded series of ``(time, value)`` samples.

    Appends must not move time backwards (the simulated clock never
    does; a recording that did would be corrupt).
    """

    __slots__ = ("key", "kind", "_points")

    def __init__(self, key: SeriesKey, kind: str = "gauge",
                 capacity: int = DEFAULT_CAPACITY):
        if capacity < 1:
            raise ObservabilityError(
                f"series {key.render()!r}: capacity must be >= 1"
            )
        self.key = key
        #: ``"counter"`` (cumulative, rate-derivable) or ``"gauge"``.
        self.kind = kind
        self._points: deque[tuple[float, float]] = deque(maxlen=capacity)

    def append(self, t: float, value: float) -> None:
        if self._points and t < self._points[-1][0]:
            raise ObservabilityError(
                f"series {self.key.render()!r}: time went backwards "
                f"({t} < {self._points[-1][0]})"
            )
        self._points.append((t, float(value)))

    def points(self) -> tuple[tuple[float, float], ...]:
        return tuple(self._points)

    def last(self) -> tuple[float, float] | None:
        return self._points[-1] if self._points else None

    def window(self, start: float, end: float) -> tuple[tuple[float, float], ...]:
        """Points with ``start <= t <= end``."""
        return tuple(p for p in self._points if start <= p[0] <= end)

    def __len__(self) -> int:
        return len(self._points)


class SeriesStore:
    """A keyed collection of bounded time series.

    A whole *frame* (many series sampled at the same instant) is
    recorded in one call with :meth:`record_frame`.
    """

    def __init__(self, capacity: int = DEFAULT_CAPACITY):
        self.capacity = capacity
        self._series: dict[SeriesKey, TimeSeries] = {}

    # -- writing -----------------------------------------------------------------

    def _series_for(self, key: SeriesKey, kind: str) -> TimeSeries:
        series = self._series.get(key)
        if series is None:
            series = self._series[key] = TimeSeries(
                key, kind, capacity=self.capacity
            )
        return series

    def record(
        self, name: str, t: float, value: float, *,
        kind: str = "gauge", labels: Mapping[str, object] | None = None,
    ) -> None:
        key = SeriesKey.make(name, labels)
        self._series_for(key, kind).append(t, value)

    def record_frame(
        self,
        t: float,
        samples: Mapping[SeriesKey, float],
        kinds: Mapping[SeriesKey, str] | None = None,
    ) -> None:
        """Append one whole frame (all series at time *t*)."""
        kinds = kinds or {}
        for key in sorted(samples):
            self._series_for(
                key, kinds.get(key, "gauge")
            ).append(t, samples[key])

    # -- reading -----------------------------------------------------------------

    def keys(self) -> tuple[SeriesKey, ...]:
        return tuple(sorted(self._series))

    def get(self, key: SeriesKey) -> TimeSeries | None:
        return self._series.get(key)

    def series(self, name: str, labels: Mapping[str, object] | None = None
               ) -> TimeSeries | None:
        return self.get(SeriesKey.make(name, labels))

    def select(
        self, name: str, where: Mapping[str, str] | None = None
    ) -> tuple[TimeSeries, ...]:
        """Every series with metric *name* whose labels satisfy *where*."""
        return tuple(
            s for k, s in sorted(self._series.items())
            if k.matches(name, where)
        )

    def last_points(
        self, name: str | None = None,
        where: Mapping[str, str] | None = None,
    ) -> dict[SeriesKey, tuple[float, float]]:
        """Latest ``(t, value)`` per matching series."""
        out: dict[SeriesKey, tuple[float, float]] = {}
        for key, series in sorted(self._series.items()):
            if name is not None and not key.matches(name, where):
                continue
            last = series.last()
            if last is not None:
                out[key] = last
        return out

    def last_value(
        self, name: str, where: Mapping[str, str] | None = None,
        default: float = 0.0,
    ) -> float:
        """Latest sample across matching series (summed when several
        label sets match — the scrape-level aggregation)."""
        matched = self.select(name, where)
        values = [s.last()[1] for s in matched if s.last() is not None]
        return sum(values) if values else default

    def points(
        self, name: str, where: Mapping[str, str] | None = None
    ) -> tuple[tuple[float, float], ...]:
        """Time-ordered union of points across matching series."""
        out: list[tuple[float, float]] = []
        for s in self.select(name, where):
            out.extend(s.points())
        return tuple(sorted(out))

    # -- delta-aware derivations --------------------------------------------------

    @staticmethod
    def _windowed_delta(
        points: Iterable[tuple[float, float]], start: float, end: float
    ) -> tuple[float, float]:
        """``(positive_delta, covered_seconds)`` over ``[start, end]``.

        Sums only non-negative inter-sample deltas, so a counter reset
        (value dropping to zero when a fresh testbed replaces the last)
        contributes nothing instead of a negative rate.
        """
        inside = [(t, v) for t, v in points if start <= t <= end]
        if len(inside) < 2:
            return 0.0, 0.0
        delta = 0.0
        for (_, prev), (_, cur) in zip(inside, inside[1:]):
            step = cur - prev
            if step > 0:
                delta += step
        return delta, inside[-1][0] - inside[0][0]

    def delta(
        self, name: str, *, now: float, window_s: float,
        where: Mapping[str, str] | None = None,
    ) -> float:
        """Positive counter growth over the trailing window, summed over
        matching series (each series reset-corrected independently)."""
        total = 0.0
        for s in self.select(name, where):
            d, _ = self._windowed_delta(s.points(), now - window_s, now)
            total += d
        return total

    def rate(
        self, name: str, *, now: float, window_s: float,
        where: Mapping[str, str] | None = None,
    ) -> float:
        """Per-second rate of a counter over the trailing window."""
        delta = 0.0
        covered = 0.0
        for s in self.select(name, where):
            d, c = self._windowed_delta(s.points(), now - window_s, now)
            delta += d
            covered = max(covered, c)
        return delta / covered if covered > 0 else 0.0

    def ratio(
        self, numerator: str, denominators: Iterable[str], *,
        now: float, window_s: float, where: Mapping[str, str] | None = None,
    ) -> float:
        """Windowed ``Δnum / Σ Δden`` — the building block of burn
        rates (e.g. denials over all admission decisions).  An empty
        denominator window yields 0.0 (no decisions = no burn)."""
        num = self.delta(numerator, now=now, window_s=window_s, where=where)
        den = sum(
            self.delta(d, now=now, window_s=window_s, where=where)
            for d in denominators
        )
        return num / den if den > 0 else 0.0

    def __len__(self) -> int:
        return len(self._series)

    def __iter__(self) -> Iterator[TimeSeries]:
        items = sorted(self._series.items())
        return iter(tuple(s for _, s in items))


# ---------------------------------------------------------------------------
# Streaming statistics (the anomaly rules' arithmetic)
# ---------------------------------------------------------------------------


def ewma(values: Iterable[float], alpha: float) -> float:
    """Exponentially weighted moving average (newest sample weighted
    ``alpha``).  Empty input averages to 0.0."""
    if not 0.0 < alpha <= 1.0:
        raise ObservabilityError(f"ewma alpha {alpha} outside (0, 1]")
    mean = 0.0
    seeded = False
    for v in values:
        if not seeded:
            mean, seeded = float(v), True
        else:
            mean = alpha * float(v) + (1.0 - alpha) * mean
    return mean


def ewm_stats(values: Iterable[float], alpha: float) -> tuple[float, float, int]:
    """EWMA mean and standard deviation (West's incremental form) plus
    the sample count — what the z-score anomaly rule runs on."""
    if not 0.0 < alpha <= 1.0:
        raise ObservabilityError(f"ewma alpha {alpha} outside (0, 1]")
    mean = 0.0
    variance = 0.0
    count = 0
    for v in values:
        count += 1
        if count == 1:
            mean = float(v)
            continue
        diff = float(v) - mean
        incr = alpha * diff
        mean += incr
        variance = (1.0 - alpha) * (variance + diff * incr)
    return mean, math.sqrt(variance), count
