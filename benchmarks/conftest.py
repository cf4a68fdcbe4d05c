"""Shared helpers for the reproduction checks.

Each ``bench_*`` module regenerates one experiment from DESIGN.md §5
(E1–E7 = Figures 1–7, C1–C5 = the paper's qualitative performance
claims) and *asserts the claimed shape* — who wins, by roughly what
factor, in counts and modelled time.  Run them as
``pytest benchmarks --benchmark-disable``; wall-clock cost is measured
by ``bench/``, not here.  Human-readable rows are printed via the
``report`` fixture (visible with ``-s`` and in the captured output
summary).
"""

import pytest

from repro.obs import metrics


@pytest.fixture()
def report():
    """Collects printable result rows and emits them at teardown."""
    rows: list[str] = []
    yield rows
    if rows:
        print()
        for row in rows:
            print(row)


@pytest.fixture(autouse=True)
def fresh_registry(request):
    """Run every check under its own metrics registry, so the counters
    a file asserts on (message counts) are that check's alone.  Checks
    of the *disabled* path opt out with ``@pytest.mark.no_metrics``.
    """
    if request.node.get_closest_marker("no_metrics"):
        yield
        return
    with metrics.use_registry():
        yield
