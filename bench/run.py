#!/usr/bin/env python3
"""The repo benchmark: one command, five workloads, every metric by name.

``python3 bench/run.py``
    every workload, each run in its own fresh child process, results to
    ``bench/out/results.json`` (``--runs N`` seeds per workload,
    ``--traced`` adds one per-layer pass per workload).

``python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1``
    one run in this process; the last line of standard output is one JSON
    object ``{"correct", "attempted", "failed", "metrics"}`` — end-to-end
    metrics with ``--trace 0``, per-layer metrics with ``--trace 1``.
    Exits non-zero when an output check failed.

``python3 bench/run.py --self-check``
    a reduced-count pass that checks the benchmark itself.

See ``bench/README.md`` for the workloads and the metric definitions.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import pathlib
import re
import statistics
import subprocess
import sys
import time

BENCH = pathlib.Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
#: What a child must be able to import; also how ``import_s`` is timed.
IMPORT_PATH = [str(BENCH), str(ROOT / "src")]
IMPORT_SAMPLES = 3
#: ``import time:   self [us] | cumulative | imported package``
IMPORT_LINE = re.compile(r"import time:\s+(\d+) \|\s+\d+ \|\s+(\S+)")


def manifest() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def git_sha() -> str:
    """HEAD's commit, read from ``.git`` inside this checkout only (the
    benchmark never looks outside it); ``unknown`` in an exported tree."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            return (git / head[5:]).read_text().strip()
        return head
    except OSError:
        return "unknown"


def time_import() -> float:
    """Seconds a fresh interpreter spends importing everything a run
    needs: ``-X importtime`` self times, each module at the quietest of
    :data:`IMPORT_SAMPLES` readings, summed."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(IMPORT_PATH))
    quietest: dict[str, int] = {}
    for _ in range(IMPORT_SAMPLES):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import harness"],
            env=env, check=True, stderr=subprocess.PIPE, text=True, timeout=120,
        )
        for micros, module in IMPORT_LINE.findall(proc.stderr):
            quietest[module] = min(quietest.get(module, int(micros)), int(micros))
    return sum(quietest.values()) / 1e6


# -- one run, in this process -----------------------------------------------------------


def run_one(
    name: str, seed: int, seconds: float, trace: bool, import_s: float,
    scale: float = 1.0,
):
    """Measure one workload; returns ``(result, detail)`` where *result*
    is the contract's four-key object and *detail* the provenance and
    everything else worth keeping."""
    sys.path[:0] = [p for p in IMPORT_PATH if p not in sys.path]
    import harness
    from repro.obs.perf.bench import machine_fingerprint
    from trace import LayerTracer
    from workloads import make_workload

    # Denial warnings must not time stderr.
    repro_log = logging.getLogger("repro")
    repro_log.addHandler(logging.NullHandler())
    repro_log.propagate = False

    workload = make_workload(name, scale)
    inputs = workload.generate(seed)
    tracer = LayerTracer() if trace else None
    episodes = harness.measure(workload, inputs, seconds, tracer)

    own = harness.own_episodes(workload, episodes)
    end_to_end, counts = harness.end_to_end_metrics(own, import_s)
    if trace:
        values = harness.per_layer_metrics(workload, episodes, tracer)
        units = harness.PER_LAYER
    else:
        values, units = end_to_end, harness.END_TO_END
    attempted = sum(e.rec.attempted + e.attempted for e in episodes)
    failed = sum(e.rec.failed + e.failed for e in episodes)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            metric: {"value": values[metric], "unit": units[metric][0]}
            for metric in units
        },
    }
    detail = {
        "workload": name, "why": workload.why, "seed": seed,
        "seconds": seconds, "trace": int(trace), "scale": scale,
        "git_sha": git_sha(), "nproc": os.cpu_count(),
        "python": sys.version.split()[0], "machine": machine_fingerprint(),
        "op_counts": {
            "warmup_steps": workload.warmup, "timed_steps": workload.steps,
            "fill": len(inputs.fill), "episodes": len(episodes),
        },
        "sample_counts": counts,
        "import_s": import_s,
        "episodes": [harness.episode_summary(e) for e in own],
        "timed_wall_s": sum(e.wall_s for e in episodes),
        "counts_per_episode": harness.count_summary(own[0]),
        "failures": [f for e in episodes for f in e.rec.failures + e.failures][:20],
        "result": result,
    }
    if trace:
        detail["end_to_end_untraced"] = end_to_end
        detail["missing_targets"] = tracer.missing
        detail["spans"] = tracer.span_records()
    return result, detail


def print_metrics(name: str, result: dict) -> None:
    for metric, entry in result["metrics"].items():
        print(f"{name:20s} {metric:52s} {entry['value']:14.4f} {entry['unit']}")
    print(
        f"{name:20s} attempted={result['attempted']} failed={result['failed']} "
        f"correct={result['correct']}"
    )


def single(args: argparse.Namespace) -> int:
    result, detail = run_one(
        args.workload, args.seed, args.seconds, bool(args.trace), time_import(),
    )
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(detail, indent=1))
    print_metrics(args.workload, result)
    for failure in detail["failures"]:
        print(f"FAILED: {failure}", file=sys.stderr)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


# -- every workload, one child process per run ----------------------------------------------


def child(name: str, seed: int, seconds: float, trace: int) -> dict:
    """One run in a fresh interpreter, so that peak RSS, handle counters
    and the process-global singletons never leak between runs."""
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", name,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        stdout=subprocess.PIPE, text=True, timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        raise SystemExit(f"{name} seed {seed}: no result (exit {proc.returncode})")
    return json.loads((OUT / f"{name}-seed{seed}-trace{trace}.json").read_text())


def everything(args: argparse.Namespace) -> int:
    spec = manifest()
    chosen = [w["name"] for w in spec["workloads"]]
    if args.workload:
        chosen = [args.workload]
    results: dict = {"git_sha": git_sha(), "seconds": args.seconds,
                     "seeds": [args.seed + i for i in range(args.runs)],
                     "workloads": {}}
    ok = True
    for name in chosen:
        runs = [child(name, seed, args.seconds, 0) for seed in results["seeds"]]
        entry = {"runs": runs}
        if args.traced:
            entry["traced"] = child(name, args.seed, args.seconds, 1)
        results["workloads"][name] = entry
        for metric in runs[0]["result"]["metrics"]:
            values = [r["result"]["metrics"][metric]["value"] for r in runs]
            unit = runs[0]["result"]["metrics"][metric]["unit"]
            print(
                f"{name:20s} {metric:52s} {statistics.median(values):14.4f} "
                f"{unit:6s} min {min(values):.4f} max {max(values):.4f} n={len(values)}"
            )
        attempted = sum(r["result"]["attempted"] for r in runs)
        failed = sum(r["result"]["failed"] for r in runs)
        print(f"{name:20s} {'failed_share':52s} {failed / attempted:14.6f} ratio "
              f"({failed} of {attempted})")
        if args.traced:
            print_metrics(name, entry["traced"]["result"])
        ok = ok and all(r["result"]["correct"] for r in runs)
        ok = ok and (not args.traced or entry["traced"]["result"]["correct"])
    out = pathlib.Path(args.out) if args.out else OUT / "results.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(results, indent=1))
    print(f"wrote {out}")
    return 0 if ok else 1


# -- the benchmark checks itself ---------------------------------------------------------


def self_check() -> int:
    """Reduced counts, all five workloads, in this process: the output
    check passes, inputs and counts repeat for a seed and differ for
    another, the checker can fail, the tracer restores what it patched,
    and ``BENCHMARK.json`` names what the code emits."""
    sys.path[:0] = [p for p in IMPORT_PATH if p not in sys.path]
    import harness
    from trace import LayerTracer
    from workloads import WORKLOADS, make_workload

    spec = manifest()
    assert [w["name"] for w in spec["workloads"]] == [c.name for c in WORKLOADS]
    for key, emitted in (("end_to_end", harness.END_TO_END),
                         ("per_layer", harness.PER_LAYER)):
        declared = {m["name"]: (m["unit"], m["better"]) for m in spec[key]}
        assert declared == emitted, f"BENCHMARK.json {key} != harness"

    scale, seed = 0.1, 2001
    import_s = time_import()
    for cls in WORKLOADS:
        started = time.perf_counter()
        result, detail = run_one(cls.name, seed, 0.0, True, import_s, scale)
        assert result["correct"], (cls.name, detail["failures"])
        assert set(result["metrics"]) == set(harness.PER_LAYER)
        assert all(v > 0 for v in detail["end_to_end_untraced"].values()), cls.name
        assert not detail["missing_targets"], detail["missing_targets"]
        assert detail["spans"], "no raw spans kept"

        workload = make_workload(cls.name, scale)
        inputs = workload.generate(seed)
        assert inputs == workload.generate(seed), "inputs do not repeat"
        assert inputs.ops != workload.generate(seed + 1).ops, "seed ignored"
        mode = harness.Mode(watched=workload.watched, traced=False)
        again = harness.count_summary(harness.run_episode(workload, inputs, mode))
        assert again == detail["counts_per_episode"], (cls.name, again)
        print(f"self-check {cls.name}: ok ({time.perf_counter() - started:.1f} s)")

    tracer = LayerTracer()
    with tracer:
        assert tracer.leftovers(), "tracer patched nothing"
    assert not tracer.leftovers(), f"not restored: {tracer.leftovers()}"
    ghost = LayerTracer({"gone": ("repro.core.codec.no_such_function",)})
    with ghost:
        assert ghost.missing == ["repro.core.codec.no_such_function"]

    # The checker can fail: feed it a wrong expectation.
    workload = make_workload("chain8_sim", scale)
    workload.expected_messages += 1
    mode = harness.Mode(watched=False, traced=False)
    wrong = harness.run_episode(workload, workload.generate(seed), mode)
    assert wrong.rec.failed > 0, "a wrong expectation went unnoticed"
    print("self-check: ok")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=2001)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--traced", action="store_true",
                        help="all-workloads mode: add one per-layer pass each")
    parser.add_argument("--runs", type=int, default=1,
                        help="all-workloads mode: seeds per workload")
    parser.add_argument("--out", help="all-workloads mode: result file")
    parser.add_argument("--self-check", action="store_true")
    args = parser.parse_args(argv)
    if args.self_check:
        return self_check()
    if args.seconds is None:
        args.seconds = manifest()["run_seconds"]
    if args.trace is not None:
        if not args.workload:
            parser.error("--trace needs --workload")
        return single(args)
    return everything(args)


if __name__ == "__main__":
    sys.exit(main())
