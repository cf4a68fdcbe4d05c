"""Episodes, the measuring loop, and the metrics computed from them.

A *run* measures one workload for about ``--seconds`` of timed work.  It
is made of whole episodes (see :mod:`workloads`): build, warm up, a fixed
number of timed steps, drain, check.  Every episode of a run does
identical work, so a run times each op — and the set-up — several times
over, and reports the *quietest* reading of each: this host's speed flips
between two levels every few seconds (a neighbour on the core), which
only ever adds time, and the minimum over repeats of the same work is the
one reading that repeats from run to run.

With ``--trace 0`` every episode runs the workload as it is and the
end-to-end metrics come out.  With ``--trace 1`` the run rotates three
kinds of episode — observers off, observers on, and the workload's own
configuration under the layer tracer — so that one process yields the
per-layer self times, the tracing overhead (traced ÷ untraced) and the
observability overhead (on ÷ off) side by side.  End-to-end numbers never
come from a traced episode.
"""

from __future__ import annotations

import contextlib
import gc
import resource
import statistics
import time
from dataclasses import dataclass

from repro.obs import audit as obs_audit
from repro.obs import events as obs_events
from repro.obs import metrics as obs_metrics
from repro.obs import spans as obs_spans
from repro.obs.telemetry.recorder import FlightRecorder, testbed_probes

from trace import LAYERS, LayerTracer
from workloads import Inputs, Recorder, Workload

__all__ = [
    "END_TO_END", "PER_LAYER", "Episode", "Mode", "measure", "own_episodes",
    "end_to_end_metrics", "per_layer_metrics", "episode_summary", "count_summary",
]

#: name -> (unit, better).  ``BENCHMARK.json`` adds the bounds.
END_TO_END: dict[str, tuple[str, str]] = {
    "setup_s": ("s", "lower"),
    "reservations_per_cpu_s": ("1/s", "higher"),
    "reserve_p50_ms": ("ms", "lower"),
    "reserve_p95_ms": ("ms", "lower"),
    "wire_bytes_per_reservation": ("B", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}

_EXTRAS: dict[str, tuple[str, str]] = {
    "core.hopbyhop.reserve_p99_ms": ("ms", "lower"),
    "core.hopbyhop.cancel_p50_ms": ("ms", "lower"),
    "core.hopbyhop.modify_p50_ms": ("ms", "lower"),
    "core.hopbyhop.refresh_p50_ms": ("ms", "lower"),
    "core.hopbyhop.denied_p50_ms": ("ms", "lower"),
    "core.hopbyhop.ingress_reject_p50_us": ("us", "lower"),
    "core.hopbyhop.drift_ratio": ("ratio", "lower"),
    "core.channel.messages_per_reservation": ("count", "lower"),
    "core.channel.modelled_latency_ms": ("ms", "lower"),
    "crypto.keys.signs_per_reservation": ("count", "lower"),
    "crypto.keys.verifies_per_reservation": ("count", "lower"),
    "crypto.canonical.bytes_encoded_per_reservation": ("B", "lower"),
    "bb.reservations.table_rows_end": ("count", "lower"),
    "bb.admission.live_bookings_end": ("count", "lower"),
    "bb.defense.gate_rejected_share": ("ratio", "higher"),
    "bb.defense.replays_rejected_before_verify_share": ("ratio", "higher"),
    "obs.overhead_ratio": ("ratio", "lower"),
    "obs.records_per_reservation": ("count", "lower"),
    "trace.coverage_share": ("ratio", "higher"),
    "trace.overhead_ratio": ("ratio", "lower"),
    "trace.missing_targets": ("count", "lower"),
}

PER_LAYER: dict[str, tuple[str, str]] = {
    **{
        f"{layer}.{suffix}": (unit, "lower")
        for layer in LAYERS
        for suffix, unit in (
            ("self_ms_per_reservation", "ms"), ("calls_per_reservation", "count"),
        )
    },
    **_EXTRAS,
}

#: Steps between flight-recorder samples in a watched episode.
RECORDER_EVERY = 100


@dataclass(frozen=True)
class Mode:
    watched: bool
    traced: bool


@dataclass
class Episode:
    mode: Mode
    #: wall seconds of building the testbed, then of each fill booking
    #: and warm-up step
    setup_pieces_s: list[float]
    wall_s: float
    #: CPU seconds of each timed step, in input order
    step_cpu_s: list[float]
    rec: Recorder
    #: attempted/failed of warm-up and output check (not in ``rec``)
    attempted: int
    failed: int
    failures: list[str]
    table_rows: int
    standing_bookings: int
    channel_messages: int
    channel_bytes: int
    obs_records: int
    attacker: dict[str, int]
    layers: dict[str, dict[str, float]] | None = None
    root_s: float = 0.0
    signs: int = 0
    verifies: int = 0
    encoded_bytes: int = 0


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile of *values* (0 < q <= 1)."""
    ordered = sorted(values)
    return ordered[max(0, min(len(ordered) - 1, round(q * len(ordered) + 0.5) - 1))]


def run_episode(
    workload: Workload, inputs: Inputs, mode: Mode,
    tracer: LayerTracer | None = None,
) -> Episode:
    # The previous episode's testbed is garbage by now: collect it here,
    # so peak RSS is one episode's and not an accident of GC timing.
    gc.collect()
    started = time.perf_counter()
    with contextlib.ExitStack() as stack:
        registry = log = spans = ledger = flight = None
        if mode.watched:
            registry = stack.enter_context(obs_metrics.use_registry())
            log = stack.enter_context(obs_events.use_event_log())
            spans = stack.enter_context(obs_spans.use_tracer())
            ledger = stack.enter_context(obs_audit.use_ledger())
            flight = FlightRecorder()
        if mode.traced:
            assert tracer is not None
            stack.enter_context(tracer)
            tracer.reset()
        world = workload.build(inputs)
        if flight is not None:
            for probe in testbed_probes(world.testbed):
                flight.add_probe(probe)
        # Set-up is timed piece by piece (build, each fill booking, each
        # warm-up step) so that it, too, can be taken at its quietest.
        setup_pieces_s = [time.perf_counter() - started]
        warm = Recorder()
        pieces = [(workload.fill, op) for op in inputs.fill]
        pieces += [(workload.step, op) for op in inputs.ops[:workload.warmup]]
        for do, op in pieces:
            piece0 = time.perf_counter()
            do(world, op, warm)
            setup_pieces_s.append(time.perf_counter() - piece0)
        channels = world.testbed.channels
        messages0, bytes0 = channels.total_messages(), channels.total_bytes()
        rec = Recorder()
        timed_ops = inputs.ops[workload.warmup:]

        if mode.traced:
            tracer.recording = True
        step_cpu_s = []
        wall0 = time.perf_counter()
        cpu0 = time.process_time()
        for i, op in enumerate(timed_ops, 1):
            workload.step(world, op, rec)
            if flight is not None and i % RECORDER_EVERY == 0:
                flight.sample(world.testbed.sim.now, registry)
            cpu1 = time.process_time()
            step_cpu_s.append(cpu1 - cpu0)
            cpu0 = cpu1
        wall_s = time.perf_counter() - wall0
        if mode.traced:
            tracer.recording = False

        check = Recorder()
        table_rows = workload.table_rows(world)
        standing = workload.live_bookings(world)
        workload.drain(world, check)
        obs_records = 0
        if mode.watched:
            counts = {
                "ledger": len(ledger), "event log": log.emitted,
                "tracer": sum(1 for _ in spans),
            }
            obs_records = sum(counts.values())
            for what, n in counts.items():
                check.op(
                    n >= rec.reservations,
                    f"{what} holds {n} records for {rec.reservations} reservations",
                )
        attacker = world.attacker.stats.to_dict() if world.attacker else {}
        episode = Episode(
            mode, setup_pieces_s, wall_s, step_cpu_s, rec,
            attempted=warm.attempted + check.attempted,
            failed=warm.failed + check.failed,
            failures=warm.failures + check.failures,
            table_rows=table_rows, standing_bookings=standing,
            channel_messages=channels.total_messages() - messages0,
            channel_bytes=channels.total_bytes() - bytes0,
            obs_records=obs_records, attacker=attacker,
        )
        if mode.traced:
            episode.layers = tracer.layer_totals()
            episode.root_s = tracer.root_ns / 1e9
            episode.signs = tracer.target_calls(".sign")
            episode.verifies = tracer.target_calls("Scheme.verify")
            episode.encoded_bytes = sum(tracer.result_bytes)
    return episode


def measure(
    workload: Workload, inputs: Inputs, seconds: float,
    tracer: LayerTracer | None = None,
) -> list[Episode]:
    """Run whole rounds of episodes until *seconds* of timed work is done
    (at least one round).  With a *tracer* the round is the three kinds
    of episode of a ``--trace 1`` run."""
    if tracer is not None:
        modes = [
            Mode(watched=False, traced=False),
            Mode(watched=True, traced=False),
            Mode(watched=workload.watched, traced=True),
        ]
    else:
        modes = [Mode(watched=workload.watched, traced=False)]
    episodes: list[Episode] = []
    timed = 0.0
    while True:
        for mode in modes:
            episode = run_episode(workload, inputs, mode, tracer)
            episodes.append(episode)
            timed += episode.wall_s
        if timed >= seconds:
            return episodes


# -- metrics -------------------------------------------------------------------------


def own_episodes(workload: Workload, episodes: list[Episode]) -> list[Episode]:
    """The untraced episodes run in the workload's own configuration: the
    only ones end-to-end numbers come from."""
    return [
        e for e in episodes
        if not e.mode.traced and e.mode.watched == workload.watched
    ]


def quiet(episodes: list[Episode], kind: str) -> list[float]:
    """Wall seconds of each op of *kind*, in input order: the minimum
    over the episodes, which all ran the same ops."""
    return [min(times) for times in zip(*(e.rec.samples.get(kind, ()) for e in episodes))]


def _p50(episodes: list[Episode], kind: str, scale: float) -> float:
    """Median over the ops of *kind*, or 0.0 when the workload has none."""
    samples = quiet(episodes, kind)
    return percentile(samples, 0.5) * scale if samples else 0.0


def end_to_end_metrics(
    episodes: list[Episode], import_s: float,
) -> tuple[dict[str, float], dict[str, int]]:
    """The end-to-end metrics of the untraced, workload-configured
    episodes, and the counts behind them."""
    reserve = quiet(episodes, "reserve")
    cpu_s = sum(min(times) for times in zip(*(e.step_cpu_s for e in episodes)))
    values = {
        "setup_s": import_s + sum(
            min(times) for times in zip(*(e.setup_pieces_s for e in episodes))
        ),
        "reservations_per_cpu_s": episodes[0].rec.reservations / cpu_s,
        "reserve_p50_ms": percentile(reserve, 0.5) * 1e3,
        "reserve_p95_ms": percentile(reserve, 0.95) * 1e3,
        "wire_bytes_per_reservation":
            episodes[0].rec.wire_bytes / episodes[0].rec.granted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    counts = {"repeats_per_op": len(episodes), "reserve_ops": len(reserve)}
    return values, counts


def per_layer_metrics(
    workload: Workload, episodes: list[Episode], tracer: LayerTracer,
) -> dict[str, float]:
    """The per-layer metrics of a ``--trace 1`` run.  A metric that does
    not apply to the workload (no modify, no attacker) reads 0; a layer
    none of whose targets resolved reads -1 and is named in the result
    file's ``missing_targets``."""
    own = own_episodes(workload, episodes)
    off = [e for e in episodes if not e.mode.traced and not e.mode.watched]
    on = [e for e in episodes if not e.mode.traced and e.mode.watched]
    all_traced = [e for e in episodes if e.mode.traced]
    # Layer totals come from the quietest traced episode.
    traced = min(all_traced, key=lambda e: e.wall_s)

    values: dict[str, float] = {}
    reservations = traced.rec.reservations
    missing_layers = tracer.missing_layers()
    for layer in LAYERS:
        if layer in missing_layers:
            self_ms = calls = -1.0
        else:
            self_ms = traced.layers[layer]["self_s"] * 1e3 / reservations
            calls = traced.layers[layer]["calls"] / reservations
        values[f"{layer}.self_ms_per_reservation"] = self_ms
        values[f"{layer}.calls_per_reservation"] = calls

    first = own[0]
    reserve = quiet(own, "reserve")
    tenth = max(1, len(reserve) // 10)
    values["core.hopbyhop.reserve_p99_ms"] = (
        percentile(reserve, 0.99) * 1e3 if len(reserve) >= 100 else 0.0
    )
    values["core.hopbyhop.cancel_p50_ms"] = _p50(own, "cancel", 1e3)
    values["core.hopbyhop.modify_p50_ms"] = _p50(own, "modify", 1e3)
    values["core.hopbyhop.refresh_p50_ms"] = _p50(own, "refresh", 1e3)
    values["core.hopbyhop.denied_p50_ms"] = _p50(own, "denied", 1e3)
    values["core.hopbyhop.ingress_reject_p50_us"] = _p50(own, "ingress", 1e6)
    # Cancelled rows are never dropped from a ReservationTable: the last
    # tenth of an episode runs against a longer table than the first.
    values["core.hopbyhop.drift_ratio"] = (
        statistics.median(reserve[-tenth:]) / statistics.median(reserve[:tenth])
    )
    values["core.channel.messages_per_reservation"] = (
        first.channel_messages / first.rec.reservations
    )
    values["core.channel.modelled_latency_ms"] = (
        first.rec.modelled_latency_s * 1e3 / first.rec.granted
    )
    values["crypto.keys.signs_per_reservation"] = traced.signs / reservations
    values["crypto.keys.verifies_per_reservation"] = traced.verifies / reservations
    values["crypto.canonical.bytes_encoded_per_reservation"] = (
        traced.encoded_bytes / reservations
    )
    values["bb.reservations.table_rows_end"] = first.table_rows
    values["bb.admission.live_bookings_end"] = first.standing_bookings
    stats = first.attacker
    values["bb.defense.gate_rejected_share"] = (
        stats["gate_rejected"] / stats["fired"] if stats else 0.0
    )
    values["bb.defense.replays_rejected_before_verify_share"] = (
        stats["replays_rejected_before_verification"] / stats["replays_sent"]
        if stats else 0.0
    )
    values["obs.overhead_ratio"] = _p50(on, "reserve", 1.0) / _p50(off, "reserve", 1.0)
    values["obs.records_per_reservation"] = on[0].obs_records / on[0].rec.reservations
    values["trace.coverage_share"] = (
        1.0 - traced.layers["core.hopbyhop"]["self_s"] / traced.root_s
    )
    values["trace.overhead_ratio"] = (
        _p50(all_traced, "reserve", 1.0) / _p50(own, "reserve", 1.0)
    )
    values["trace.missing_targets"] = len(tracer.missing)
    return values


def episode_summary(episode: Episode) -> dict[str, float]:
    """One episode's own timings, kept in the result file so that the
    noise the run's minima removed can be seen."""
    reserve = episode.rec.samples["reserve"]
    cpu_s = sum(episode.step_cpu_s)
    return {
        "setup_s": sum(episode.setup_pieces_s),
        "wall_s": episode.wall_s,
        "cpu_s": cpu_s,
        "reservations_per_cpu_s": episode.rec.reservations / cpu_s,
        "reserve_p50_ms": percentile(reserve, 0.5) * 1e3,
        "reserve_p95_ms": percentile(reserve, 0.95) * 1e3,
    }


def count_summary(episode: Episode) -> dict[str, float]:
    """Everything an episode counted (no clock involved): must repeat
    exactly for the same inputs."""
    rec = episode.rec
    return {
        "reservations": rec.reservations, "granted": rec.granted,
        "attempted": rec.attempted, "failed": rec.failed,
        "wire_bytes": rec.wire_bytes,
        "modelled_latency_s": round(rec.modelled_latency_s, 9),
        "channel_messages": episode.channel_messages,
        "channel_bytes": episode.channel_bytes,
        "table_rows": episode.table_rows,
        "standing_bookings": episode.standing_bookings,
        **{f"samples.{k}": len(v) for k, v in sorted(rec.samples.items())},
        **{f"attacker.{k}": v for k, v in episode.attacker.items()},
    }
