"""The committed benchmark trajectory: the newest ``BENCH_<n>.json`` at
the repo root is a ``bench/run.py`` result file for exactly what
``BENCHMARK.json`` declares, and every run in it passed its own output
check."""

import json
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]


@pytest.fixture(scope="module")
def manifest():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def newest_entry():
    numbered = {
        int(m.group(1)): path
        for path in ROOT.glob("BENCH_*.json")
        if (m := re.fullmatch(r"BENCH_(\d+)\.json", path.name))
    }
    assert numbered, "no BENCH_<n>.json committed at the repo root"
    return json.loads(numbered[max(numbered)].read_text())


def test_entry_has_the_result_shape(newest_entry):
    assert set(newest_entry) == {"git_sha", "seconds", "seeds", "workloads"}
    assert newest_entry["seconds"] > 0
    assert newest_entry["seeds"]
    for name, entry in newest_entry["workloads"].items():
        runs = entry["runs"]
        assert [run["seed"] for run in runs] == newest_entry["seeds"], name
        for run in runs:
            assert run["workload"] == name
            assert run["trace"] == 0, "trajectory entries are untraced"
            assert "spans" not in run
            assert set(run["result"]) == {
                "correct", "attempted", "failed", "metrics",
            }
            assert run["machine"]["python"] and run["counts_per_episode"]


def test_entry_names_the_declared_workloads_and_metrics(manifest, newest_entry):
    declared_workloads = [w["name"] for w in manifest["workloads"]]
    assert list(newest_entry["workloads"]) == declared_workloads
    declared_metrics = {m["name"]: m["unit"] for m in manifest["end_to_end"]}
    for name, entry in newest_entry["workloads"].items():
        for run in entry["runs"]:
            metrics = run["result"]["metrics"]
            assert {
                metric: cell["unit"] for metric, cell in metrics.items()
            } == declared_metrics, name
            assert all(cell["value"] > 0 for cell in metrics.values()), name


def test_every_run_is_correct(newest_entry):
    for name, entry in newest_entry["workloads"].items():
        for run in entry["runs"]:
            result = run["result"]
            assert result["correct"] is True, (name, run["seed"])
            assert result["failed"] == 0 and result["attempted"] > 0
            assert run["failures"] == []
