#!/usr/bin/env python3
"""Compare benchmark results under the bounds fixed in ``BENCHMARK.json``.

``python3 bench/compare.py A.json B.json``
    A is the parent, B the change; both are result files written by
    ``bench/run.py`` (ideally ``--runs 10``).  One row per workload ×
    end-to-end metric:

    * ``worse`` / ``better`` — B's median differs from A's by more than
      the metric's bound;
    * ``within bound`` — it does not;
    * ``unresolved`` — the run-to-run spread of A or B (interquartile
      range ÷ median) is itself wider than the bound, so the runs cannot
      tell; unless every run of B reads better than every run of A.

``python3 bench/compare.py --pairs DIR``
    DIR holds ``parent-<k>.json`` and ``change-<k>.json`` for k = 1..n,
    measured alternately.  A gain (or loss) is claimed only with at least
    10 pairs, the change winning at least nine tenths of them (ties count
    for neither side), and the medians differing by more than the
    interquartile range of the parent's own runs.

There are no threshold flags: the bounds are the benchmark's.  Exits 1
when any row reads ``worse`` (or ``loss``).
"""

from __future__ import annotations

import json
import pathlib
import statistics
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
MIN_PAIRS = 10
WIN_SHARE = 0.9


def metric_values(results: dict, workload: str, metric: str) -> list[float]:
    return [
        run["result"]["metrics"][metric]["value"]
        for run in results["workloads"][workload]["runs"]
    ]


def iqr(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def spread(values: list[float]) -> float:
    return iqr(values) / statistics.median(values)


def worsening(a: float, b: float, better: str) -> float:
    """How much worse *b* is than *a*, as a share of *a* (negative:
    better)."""
    change = (b - a) / a
    return change if better == "lower" else -change


def verdict(a: list[float], b: list[float], better: str, bound: float) -> str:
    worse_by = worsening(statistics.median(a), statistics.median(b), better)
    if max(spread(a), spread(b)) > bound:
        all_better = (
            max(b) < min(a) if better == "lower" else min(b) > max(a)
        )
        return "better" if all_better else "unresolved"
    if worse_by > bound:
        return "worse"
    if worse_by < -bound:
        return "better"
    return "within bound"


def compare_files(spec: dict, a: dict, b: dict) -> bool:
    bad = False
    print(f"{'workload':20s} {'metric':28s} {'A median':>12s} {'B median':>12s} "
          f"{'worse by':>9s} {'spread A':>9s} {'spread B':>9s} {'bound':>6s}  verdict")
    for workload in a["workloads"]:
        if workload not in b["workloads"]:
            continue
        for metric in spec["end_to_end"]:
            name, better, bound = metric["name"], metric["better"], metric["bound"]
            va = metric_values(a, workload, name)
            vb = metric_values(b, workload, name)
            row = verdict(va, vb, better, bound)
            bad = bad or row == "worse"
            ma, mb = statistics.median(va), statistics.median(vb)
            print(
                f"{workload:20s} {name:28s} {ma:12.4f} {mb:12.4f} "
                f"{worsening(ma, mb, better):+9.2%} {spread(va):9.2%} "
                f"{spread(vb):9.2%} {bound:6.0%}  {row} (n={len(va)},{len(vb)})"
            )
    return bad


def compare_pairs(spec: dict, directory: pathlib.Path) -> bool:
    parents = sorted(directory.glob("parent-*.json"))
    changes = sorted(directory.glob("change-*.json"))
    if len(parents) != len(changes):
        raise SystemExit(f"{len(parents)} parent files but {len(changes)} change files")
    pairs = [
        (json.loads(p.read_text()), json.loads(c.read_text()))
        for p, c in zip(parents, changes)
    ]
    if not pairs:
        raise SystemExit(f"no parent-*.json / change-*.json in {directory}")
    bad = False
    print(f"{len(pairs)} pairs")
    for workload in pairs[0][0]["workloads"]:
        for metric in spec["end_to_end"]:
            name, better = metric["name"], metric["better"]
            pa = [statistics.median(metric_values(p, workload, name)) for p, _ in pairs]
            ch = [statistics.median(metric_values(c, workload, name)) for _, c in pairs]
            gaps = [worsening(x, y, better) for x, y in zip(pa, ch)]
            wins = sum(g < 0 for g in gaps)
            losses = sum(g > 0 for g in gaps)
            gap = abs(statistics.median(ch) - statistics.median(pa))
            if len(pairs) < MIN_PAIRS:
                row = f"no claim (needs {MIN_PAIRS} pairs)"
            elif gap <= iqr(pa):
                row = "no claim (gap within parent's spread)"
            elif wins >= WIN_SHARE * len(pairs):
                row = "gain"
            elif losses >= WIN_SHARE * len(pairs):
                row = "loss"
                bad = True
            else:
                row = "no claim"
            print(
                f"{workload:20s} {name:28s} parent {statistics.median(pa):12.4f} "
                f"change {statistics.median(ch):12.4f} parent IQR {iqr(pa):10.4f} "
                f"wins {wins}/{len(pairs)} losses {losses}/{len(pairs)}  {row}"
            )
    return bad


def main(argv: list[str]) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if len(argv) == 2 and argv[0] == "--pairs":
        bad = compare_pairs(spec, pathlib.Path(argv[1]))
    elif len(argv) == 2:
        a, b = (json.loads(pathlib.Path(p).read_text()) for p in argv)
        bad = compare_files(spec, a, b)
    else:
        print(__doc__, file=sys.stderr)
        return 2
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
