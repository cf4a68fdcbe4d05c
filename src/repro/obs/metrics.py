"""Metrics registry: counters, gauges, and fixed-bucket histograms.

The fabric's quantitative telemetry lives here.  Three instrument kinds
cover everything the reproduction needs to observe about itself:

* :class:`Counter` — monotonically increasing totals (verifications,
  admissions, messages, bytes);
* :class:`Gauge` — point-in-time values that move both ways (simulator
  queue depth, active tunnel allocations);
* :class:`Histogram` — fixed-bucket distributions (per-hop signalling
  latency, delegation-chain verification wall time).

Every instrument supports label dimensions given as keyword arguments
(``counter.inc(domain="A", granted="true")``); each distinct label set is
an independent series, Prometheus-style.

Design constraints: zero third-party dependencies, and free when
disabled — instrumented code asks :func:`get_registry`
first, and a ``None`` check is the entire disabled-path cost.

Usage::

    with use_registry() as registry:        # on for this block
        ...
        reg = get_registry()
        if reg is not None:
            reg.counter("admissions_total").inc(domain="A", granted="true")
"""

from __future__ import annotations

import time
from contextlib import AbstractContextManager
from typing import Iterator, Mapping, Sequence

from repro.errors import ObservabilityError
from repro.obs import context

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_LATENCY_BUCKETS",
    "interpolate_quantile",
    "get_registry",
    "use_registry",
]

#: Default histogram buckets, tuned for signalling latencies in seconds:
#: sub-millisecond crypto up through multi-second pathological paths.
DEFAULT_LATENCY_BUCKETS: tuple[float, ...] = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5,
    1.0, 2.5, 5.0,
)

LabelKey = tuple[tuple[str, str], ...]


def _label_key(labels: Mapping[str, object]) -> LabelKey:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


def interpolate_quantile(
    bounds: Sequence[float], counts: Sequence[int], q: float
) -> float:
    """The *q*-quantile of a bucketed distribution, by linear
    interpolation within the bucket the rank falls in (Prometheus
    ``histogram_quantile`` semantics).  *counts* are per-bucket (not
    cumulative) observation counts aligned with the finite upper
    *bounds*; observations beyond the last bound clamp to it.  An empty
    distribution estimates ``0.0``.
    """
    if not 0.0 <= q <= 1.0:
        raise ObservabilityError(f"quantile {q} outside [0, 1]")
    total = sum(counts)
    if total == 0:
        return 0.0
    rank = q * total
    running = 0.0
    lower = 0.0
    for bound, n in zip(bounds, counts):
        if running + n >= rank and n > 0:
            # Assume the bucket's observations spread uniformly.
            return lower + (bound - lower) * ((rank - running) / n)
        running += n
        lower = bound
    # The rank falls in the implicit +Inf bucket: clamp.
    return float(bounds[-1])


class _Instrument:
    """Shared plumbing: name and help text."""

    kind = "untyped"

    def __init__(self, name: str, help: str):
        self.name = name
        self.help = help


class Counter(_Instrument):
    """A monotonically increasing total, per label set."""

    kind = "counter"

    def __init__(self, name: str, help: str):
        super().__init__(name, help)
        self._series: dict[LabelKey, float] = {}

    def inc(self, amount: float = 1.0, **labels: object) -> None:
        if amount < 0:
            raise ObservabilityError(
                f"counter {self.name!r} cannot decrease (inc by {amount})"
            )
        key = _label_key(labels)
        self._series[key] = self._series.get(key, 0.0) + amount

    def value(self, **labels: object) -> float:
        return self._series.get(_label_key(labels), 0.0)

    def total(self) -> float:
        """Sum over every label set."""
        return sum(self._series.values())

    def series(self) -> dict[LabelKey, float]:
        return dict(self._series)


class Gauge(_Instrument):
    """A value that can move in both directions, per label set."""

    kind = "gauge"

    def __init__(self, name: str, help: str):
        super().__init__(name, help)
        self._series: dict[LabelKey, float] = {}

    def set(self, value: float, **labels: object) -> None:
        self._series[_label_key(labels)] = float(value)

    def inc(self, amount: float = 1.0, **labels: object) -> None:
        key = _label_key(labels)
        self._series[key] = self._series.get(key, 0.0) + amount

    def dec(self, amount: float = 1.0, **labels: object) -> None:
        self.inc(-amount, **labels)

    def value(self, **labels: object) -> float:
        return self._series.get(_label_key(labels), 0.0)

    def series(self) -> dict[LabelKey, float]:
        return dict(self._series)


class _HistogramSeries:
    __slots__ = ("bucket_counts", "sum", "count")

    def __init__(self, n_buckets: int):
        self.bucket_counts = [0] * n_buckets  # one per finite upper bound
        self.sum = 0.0
        self.count = 0


class Histogram(_Instrument):
    """Fixed-bucket distribution.  Buckets are cumulative at export time
    (Prometheus ``le`` semantics); internally each finite bound holds the
    observations that fell at or below it and above the previous bound,
    with overflow tracked by ``count`` (the implicit ``+Inf`` bucket)."""

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str,
        buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
    ):
        super().__init__(name, help)
        bounds = tuple(sorted(float(b) for b in buckets))
        if not bounds:
            raise ObservabilityError(f"histogram {self.name!r} needs at least one bucket")
        if len(set(bounds)) != len(bounds):
            raise ObservabilityError(f"histogram {self.name!r} has duplicate buckets")
        self.buckets = bounds
        self._series: dict[LabelKey, _HistogramSeries] = {}

    def observe(self, value: float, **labels: object) -> None:
        key = _label_key(labels)
        series = self._series.get(key)
        if series is None:
            series = self._series[key] = _HistogramSeries(len(self.buckets))
        series.sum += value
        series.count += 1
        for i, bound in enumerate(self.buckets):
            if value <= bound:
                series.bucket_counts[i] += 1
                break

    def cumulative_buckets(self, **labels: object) -> list[tuple[float, int]]:
        """``(upper_bound, cumulative_count)`` per finite bucket; the
        ``+Inf`` bucket equals :meth:`count`."""
        series = self._series.get(_label_key(labels))
        if series is None:
            return [(b, 0) for b in self.buckets]
        out, running = [], 0
        for bound, n in zip(self.buckets, series.bucket_counts):
            running += n
            out.append((bound, running))
        return out

    def quantile(self, q: float, **labels: object) -> float:
        """Estimate the *q*-quantile (``0 <= q <= 1``) of one series via
        :func:`interpolate_quantile`.  An absent series estimates
        ``0.0``; a quantile falling in the implicit ``+Inf`` bucket
        clamps to the largest finite bound."""
        series = self._series.get(_label_key(labels))
        counts = (
            [0] * len(self.buckets)
            if series is None
            else list(series.bucket_counts)
        )
        return interpolate_quantile(self.buckets, counts, q)

    def aggregate_quantile(self, q: float) -> float:
        """The *q*-quantile over ALL label sets of this histogram merged
        into one distribution (sound: every series shares the bucket
        bounds)."""
        summed = [0] * len(self.buckets)
        for series in self._series.values():
            for i, n in enumerate(series.bucket_counts):
                summed[i] += n
        return interpolate_quantile(self.buckets, summed, q)

    def count(self, **labels: object) -> int:
        series = self._series.get(_label_key(labels))
        return 0 if series is None else series.count

    def sum(self, **labels: object) -> float:
        series = self._series.get(_label_key(labels))
        return 0.0 if series is None else series.sum

    def time(self, **labels: object) -> _HistogramTimer:
        """Context manager observing the block's wall-clock duration
        (``time.perf_counter``) into this histogram on clean exit; a
        block that raises records nothing.  The blessed way to meter a
        code section — manual ``perf_counter()`` pairs outside the obs
        layer trip lint rule REP110."""
        return _HistogramTimer(self, labels)

    def series(self) -> dict[LabelKey, _HistogramSeries]:
        return dict(self._series)


class _HistogramTimer:
    """See :meth:`Histogram.time`."""

    __slots__ = ("_histogram", "_labels", "_t0")

    def __init__(self, histogram: Histogram, labels: Mapping[str, object]):
        self._histogram = histogram
        self._labels = dict(labels)
        self._t0 = 0.0

    def __enter__(self) -> _HistogramTimer:
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type: object, *exc: object) -> None:
        if exc_type is None:
            self._histogram.observe(
                time.perf_counter() - self._t0, **self._labels
            )


class MetricsRegistry:
    """A named collection of instruments.

    ``counter`` / ``gauge`` / ``histogram`` are get-or-create: the first
    call fixes the kind (and, for histograms, the buckets); later calls
    with the same name return the same instrument, and a kind mismatch
    raises ``ValueError`` — a misspelled registration should fail loudly,
    not silently fork a second metric.
    """

    def __init__(self) -> None:
        self._metrics: dict[str, _Instrument] = {}

    def _get_or_create(self, cls, name: str, help: str, **kwargs) -> _Instrument:
        existing = self._metrics.get(name)
        if existing is not None:
            if not isinstance(existing, cls):
                raise ObservabilityError(
                    f"metric {name!r} already registered as "
                    f"{existing.kind}, not {cls.kind}"
                )
            return existing
        instrument = cls(name, help, **kwargs)
        self._metrics[name] = instrument
        return instrument

    def counter(self, name: str, help: str = "") -> Counter:
        return self._get_or_create(Counter, name, help)

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._get_or_create(Gauge, name, help)

    def histogram(
        self,
        name: str,
        help: str = "",
        buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
    ) -> Histogram:
        return self._get_or_create(Histogram, name, help, buckets=buckets)

    def get(self, name: str) -> _Instrument | None:
        return self._metrics.get(name)

    def collect(self) -> Iterator[_Instrument]:
        """Instruments in name order (stable export output)."""
        items = sorted(self._metrics.items())
        for _, instrument in items:
            yield instrument

    def reset(self) -> None:
        self._metrics.clear()

    def __len__(self) -> int:
        return len(self._metrics)


def get_registry() -> MetricsRegistry | None:
    """The current context's registry, or ``None`` when observability is
    off.  Instrumented call sites must treat ``None`` as "record nothing"."""
    return context.current().registry


def use_registry(
    registry: MetricsRegistry | None = None,
) -> AbstractContextManager[MetricsRegistry]:
    """Context manager installing a registry for the dynamic extent of a
    ``with`` block (tests, CLI commands, benchmark fixtures)::

        with use_registry() as reg:
            ...
        # previous registry restored
    """
    return context.use(
        "registry", registry if registry is not None else MetricsRegistry()
    )
