"""The flight recorder: registry + fabric state → frames → ``.tsrec``.

A :class:`FlightRecorder` is driven on the **simulated clock** — the
harness schedules ``recorder.sample(sim.now)`` periodically — and each
call scrapes two sources into one atomic frame of the underlying
:class:`~repro.obs.telemetry.series.SeriesStore`:

* the active :class:`~repro.obs.metrics.MetricsRegistry`, generically:
  every counter/gauge label set becomes one raw series, and every
  histogram contributes ``<name>:count`` / ``<name>:sum`` counters plus
  ``p50``/``p95``/``p99`` gauges;
* registered *probes* — callables ``probe(now) -> {name: value}`` or
  ``{(name, labels): value}`` — for state the registry does not carry
  (per-domain utilization from the admission schedules, live
  reservation counts, breaker states, simulator queue, work-queue
  backlog).

Frames are optionally streamed to an append-only ``.tsrec`` file (one
JSON object per line) by :class:`RecordingWriter`; :class:`Recording`
loads one back into a store so ``repro top --replay`` and the alert
engine can re-derive **identical** transitions and badges offline — the
Hypothesis replay property in ``tests/proptest`` pins that equivalence.

``.tsrec`` line grammar (``schema: repro-tsrec/1``)::

    {"schema": "repro-tsrec/1", "meta": {...}}      # header, line 1
    {"t": 12.0, "f": {"denials_total{domain=B}": 4.0}, "k": {...}}
    {"t": 12.4, "e": {"kind": "deny", ...}}          # decision record
    {"t": 13.0, "a": {"name": "...", "state": "firing", ...}}
    {"m": {"attack_onset_s": 3.25}}                  # late metadata

``k`` maps a series key to ``counter``/``gauge`` the first time the key
appears; omitted keys default to ``gauge``.  Appending never rewrites
earlier lines, so a crashed run still leaves a loadable prefix.
"""

from __future__ import annotations

import json
import os
from typing import Any, Callable, Iterable, Mapping, TextIO

from repro.errors import ObservabilityError
from repro.obs import events as obs_events
from repro.obs import metrics as obs_metrics
from repro.obs.telemetry.series import SeriesKey, SeriesStore

__all__ = [
    "TSREC_SCHEMA",
    "Probe",
    "FlightRecorder",
    "RecordingWriter",
    "Recording",
    "testbed_probes",
]

TSREC_SCHEMA = "repro-tsrec/1"

#: Histogram quantiles sampled into ``<name>:p<q>`` gauge series.
HISTOGRAM_QUANTILES = ((0.5, "p50"), (0.95, "p95"), (0.99, "p99"))

#: A probe returns one partial frame.  Keys may be bare metric names or
#: ``(name, labels-mapping)`` pairs.
Probe = Callable[[float], Mapping[Any, float]]

#: Breaker states encoded as gauge values (render as a step function).
BREAKER_STATE_VALUES = {"closed": 0.0, "half_open": 1.0, "open": 2.0}


def _coerce_key(raw: Any) -> SeriesKey:
    if isinstance(raw, SeriesKey):
        return raw
    if isinstance(raw, str):
        return SeriesKey.make(raw)
    # ("name", labels) pairs; labels may be a tuple of (k, v) pairs,
    # since the probe's frame mapping needs hashable keys.
    name, labels = raw
    if labels is not None and not isinstance(labels, Mapping):
        labels = dict(labels)
    return SeriesKey.make(name, labels)


class FlightRecorder:
    """Samples registry + probes into a bounded store, streaming to an
    optional :class:`RecordingWriter`.

    All timestamps come from the caller (the simulated clock); the
    recorder itself never reads a clock — REP113 enforces that.
    """

    def __init__(
        self,
        store: SeriesStore | None = None,
        *,
        writer: "RecordingWriter | None" = None,
        capacity: int | None = None,
    ):
        if store is None:
            store = SeriesStore(**({"capacity": capacity} if capacity else {}))
        self.store = store
        self.writer = writer
        self._probes: list[Probe] = []
        self._known_kinds: dict[SeriesKey, str] = {}
        self.frames = 0

    def add_probe(self, probe: Probe) -> None:
        self._probes.append(probe)

    # -- sampling ----------------------------------------------------------------

    def _scrape_registry(
        self, registry: obs_metrics.MetricsRegistry,
        frame: dict[SeriesKey, float], kinds: dict[SeriesKey, str],
    ) -> None:
        for instrument in registry.collect():
            if isinstance(instrument, obs_metrics.Counter):
                for label_key, value in instrument.series().items():
                    key = SeriesKey(instrument.name, label_key)
                    frame[key] = value
                    kinds[key] = "counter"
            elif isinstance(instrument, obs_metrics.Gauge):
                for label_key, value in instrument.series().items():
                    key = SeriesKey(instrument.name, label_key)
                    frame[key] = value
                    kinds[key] = "gauge"
            elif isinstance(instrument, obs_metrics.Histogram):
                for label_key in instrument.series():
                    labels = dict(label_key)
                    base = instrument.name
                    count_key = SeriesKey(f"{base}:count", label_key)
                    frame[count_key] = float(instrument.count(**labels))
                    kinds[count_key] = "counter"
                    sum_key = SeriesKey(f"{base}:sum", label_key)
                    frame[sum_key] = float(instrument.sum(**labels))
                    kinds[sum_key] = "counter"
                    for q, suffix in HISTOGRAM_QUANTILES:
                        q_key = SeriesKey(f"{base}:{suffix}", label_key)
                        frame[q_key] = float(instrument.quantile(q, **labels))
                        kinds[q_key] = "gauge"

    def sample(
        self, now: float,
        registry: obs_metrics.MetricsRegistry | None = None,
    ) -> dict[SeriesKey, float]:
        """Take one frame at simulated time *now* and return it."""
        frame: dict[SeriesKey, float] = {}
        kinds: dict[SeriesKey, str] = {}
        registry = registry or obs_metrics.get_registry()
        if registry is not None:
            self._scrape_registry(registry, frame, kinds)
        for probe in self._probes:
            for raw, value in probe(now).items():
                key = _coerce_key(raw)
                frame[key] = float(value)
                kinds.setdefault(key, "gauge")
        self.store.record_frame(now, frame, kinds)
        if self.writer is not None:
            fresh = {
                k: v for k, v in kinds.items()
                if self._known_kinds.get(k) != v
            }
            self._known_kinds.update(fresh)
            self.writer.write_frame(now, frame, fresh)
        self.frames += 1
        return frame

    # -- pass-through event/alert/meta capture -------------------------------------

    def record_event(self, event: "obs_events.DecisionRecord") -> None:
        if self.writer is not None:
            self.writer.write_event(event)

    def record_alert(self, at_time: float, payload: Mapping[str, Any]) -> None:
        if self.writer is not None:
            self.writer.write_alert(at_time, payload)

    def record_meta(self, **meta: Any) -> None:
        if self.writer is not None:
            self.writer.write_meta(meta)


# ---------------------------------------------------------------------------
# On-disk format
# ---------------------------------------------------------------------------


class RecordingWriter:
    """Append-only ``.tsrec`` stream.  Not internally locked — the
    recorder samples on the (single-threaded) simulator loop."""

    def __init__(self, stream: TextIO, *, meta: Mapping[str, Any] | None = None):
        self._stream = stream
        self._closed = False
        self._write({"schema": TSREC_SCHEMA, "meta": dict(meta or {})})

    @classmethod
    def open(cls, path: str | os.PathLike[str], *,
             meta: Mapping[str, Any] | None = None) -> "RecordingWriter":
        writer = cls(open(path, "w", encoding="utf-8"), meta=meta)
        writer._owns_stream = True
        return writer

    _owns_stream = False

    def _write(self, obj: Mapping[str, Any]) -> None:
        if self._closed:
            raise ObservabilityError("recording writer already closed")
        self._stream.write(json.dumps(obj, sort_keys=True) + "\n")

    def write_frame(
        self, t: float, frame: Mapping[SeriesKey, float],
        fresh_kinds: Mapping[SeriesKey, str],
    ) -> None:
        line: dict[str, Any] = {
            "t": t,
            "f": {k.render(): v for k, v in sorted(frame.items())},
        }
        if fresh_kinds:
            line["k"] = {
                k.render(): kind for k, kind in sorted(fresh_kinds.items())
            }
        self._write(line)

    def write_event(self, event: "obs_events.DecisionRecord") -> None:
        self._write({"t": event.at_time, "e": event.to_dict()})

    def write_alert(self, t: float, payload: Mapping[str, Any]) -> None:
        self._write({"t": t, "a": dict(payload)})

    def write_meta(self, meta: Mapping[str, Any]) -> None:
        self._write({"m": dict(meta)})

    def close(self) -> None:
        if not self._closed:
            self._stream.flush()
            if self._owns_stream:
                self._stream.close()
            self._closed = True

    def __enter__(self) -> "RecordingWriter":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


class Recording:
    """A loaded ``.tsrec``: frames, events, alerts, and metadata.

    ``store`` holds every series exactly as recorded; :meth:`replay`
    re-plays the frames one at a time into a *fresh* store so callers
    can step the alert engine with only as much history as the live run
    had at each instant.
    """

    def __init__(self, *, meta: Mapping[str, Any] | None = None):
        self.meta: dict[str, Any] = dict(meta or {})
        self.store = SeriesStore()
        #: ``(t, frame, kinds)`` in file order.
        self.frames: list[tuple[float, dict[SeriesKey, float],
                                dict[SeriesKey, str]]] = []
        #: Raw event dicts with their timestamps.
        self.events: list[dict[str, Any]] = []
        #: Alert-transition dicts with their timestamps.
        self.alerts: list[dict[str, Any]] = []

    @classmethod
    def load(cls, path: str | os.PathLike[str]) -> "Recording":
        with open(path, "r", encoding="utf-8") as stream:
            return cls.parse(stream)

    @classmethod
    def parse(cls, lines: Iterable[str]) -> "Recording":
        recording: Recording | None = None
        kinds_seen: dict[SeriesKey, str] = {}
        for lineno, raw in enumerate(lines, start=1):
            raw = raw.strip()
            if not raw:
                continue
            try:
                obj = json.loads(raw)
            except json.JSONDecodeError as exc:
                raise ObservabilityError(
                    f"tsrec line {lineno}: invalid JSON ({exc})"
                ) from exc
            if recording is None:
                if obj.get("schema") != TSREC_SCHEMA:
                    raise ObservabilityError(
                        f"tsrec line 1: expected schema {TSREC_SCHEMA!r}, "
                        f"got {obj.get('schema')!r}"
                    )
                recording = cls(meta=obj.get("meta"))
                continue
            if "f" in obj:
                t = float(obj["t"])
                frame = {
                    SeriesKey.parse(k): float(v)
                    for k, v in obj["f"].items()
                }
                fresh = {
                    SeriesKey.parse(k): str(kind)
                    for k, kind in obj.get("k", {}).items()
                }
                kinds_seen.update(fresh)
                kinds = {
                    k: kinds_seen.get(k, "gauge") for k in frame
                }
                recording.frames.append((t, frame, kinds))
                recording.store.record_frame(t, frame, kinds)
            elif "e" in obj:
                event = dict(obj["e"])
                event.setdefault("at_time", obj.get("t"))
                recording.events.append(event)
            elif "a" in obj:
                alert = dict(obj["a"])
                alert.setdefault("at_time", obj.get("t"))
                recording.alerts.append(alert)
            elif "m" in obj:
                recording.meta.update(obj["m"])
            else:
                raise ObservabilityError(
                    f"tsrec line {lineno}: unrecognised record {obj!r}"
                )
        if recording is None:
            raise ObservabilityError("tsrec file is empty (no header line)")
        return recording

    # -- derived views -----------------------------------------------------------

    def replay(self):
        """Yield ``(t, store_so_far)`` after each frame, on a fresh
        store — the offline twin of the live sampling loop."""
        store = SeriesStore(capacity=self.store.capacity)
        for t, frame, kinds in self.frames:
            store.record_frame(t, frame, kinds)
            yield t, store

    @property
    def start(self) -> float:
        return self.frames[0][0] if self.frames else 0.0

    @property
    def end(self) -> float:
        return self.frames[-1][0] if self.frames else 0.0


# ---------------------------------------------------------------------------
# Fabric probes
# ---------------------------------------------------------------------------


def testbed_probes(testbed) -> list[Probe]:
    """Probes for the state the registry does not carry: per-domain
    resource utilization (admission schedules at *now*), live
    reservation-table sizes, per-link breaker states, and the
    simulator's queued events."""

    def utilization(now: float) -> dict:
        out = {}
        for domain, broker in sorted(testbed.brokers.items()):
            total = 0.0
            count = 0
            for name in broker.admission.resources():
                schedule = broker.admission.schedule(name)
                total += schedule.utilization(now)
                count += 1
            key = SeriesKey.make("domain_utilization", {"domain": domain})
            out[key] = total / count if count else 0.0
        return out

    def reservations(now: float) -> dict:
        return {
            SeriesKey.make("reservation_table_size", {"domain": domain}):
                float(len(broker.reservations))
            for domain, broker in sorted(testbed.brokers.items())
        }

    def breakers(now: float) -> dict:
        snapshot = testbed.hop_by_hop.breaker_snapshot()
        return {
            SeriesKey.make("breaker_state", {"link": link}):
                BREAKER_STATE_VALUES.get(state, 2.0)
            for link, state in sorted(snapshot.items())
        }

    def simulator(now: float) -> dict:
        return {"sim_pending_events": float(testbed.sim.pending)}

    return [utilization, reservations, breakers, simulator]
