"""Chaos under a burst: faults + back-to-back signalling + invariants.

Extends the chaos harness to a burst of contended reservations signalled
one after another while the fault injector drops messages, crashes a
broker window and makes a policy server unavailable.  Afterwards the run
must satisfy exactly the invariants ``repro chaos`` enforces for one
reservation per trial — every failure path released its capacity, no
reservation is stuck mid-state, and the injector is detached.
"""

from repro.core.testbed import build_linear_testbed
from repro.errors import ReproError
from repro.faults.chaos import _check_invariants
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultKind, FaultPlan, FaultSpec, TargetKind

DOMAINS = ["A", "B", "C", "D"]


def build_world():
    tb = build_linear_testbed(DOMAINS, soft_state_ttl_s=120.0)
    users = {d: tb.add_user(d, f"user-{d}") for d in DOMAINS}
    return tb, users


def make_jobs(tb, users, m):
    jobs = []
    for i in range(m):
        src = DOMAINS[i % len(DOMAINS)]
        dst = DOMAINS[(i + 1 + i % 3) % len(DOMAINS)]
        if src == dst:
            dst = DOMAINS[(DOMAINS.index(src) + 1) % len(DOMAINS)]
        jobs.append((
            users[src],
            tb.make_request(
                source=src, destination=dst, bandwidth_mbps=40.0,
                start=0.0, duration=3600.0,
            ),
        ))
    return jobs


def reserve_all(tb, jobs):
    """``(outcome, error)`` per job, in order: a job whose signalling
    raised a :class:`~repro.errors.ReproError` failed, with outcome
    ``None``; the jobs after it still run."""
    results = []
    for user, request in jobs:
        try:
            results.append(
                (tb.hop_by_hop.reserve(user, request, deadline_s=30.0), "")
            )
        except ReproError as exc:
            results.append((None, f"{type(exc).__name__}: {exc}"))
    return results


def granted(results):
    return [o for o, _ in results if o is not None and o.granted]


def chaos_plan():
    return FaultPlan(
        specs=(
            # Lose a few messages on the busiest inter-domain link.
            FaultSpec(TargetKind.CHANNEL, "A|B", FaultKind.DROP,
                      start_op=2, ops=2),
            FaultSpec(TargetKind.CHANNEL, "B|C", FaultKind.DROP,
                      start_op=5, ops=1),
            # Crash broker C for a window of operations.
            FaultSpec(TargetKind.BROKER, "C", FaultKind.CRASH,
                      start_op=3, ops=4),
            # Policy server B refuses a query.
            FaultSpec(TargetKind.POLICY, "B", FaultKind.UNAVAILABLE,
                      start_op=4, ops=2),
        ),
        seed=7,
    )


def run_trial():
    tb, users = build_world()
    injector = FaultInjector(chaos_plan())
    tb.attach_injector(injector)
    try:
        results = reserve_all(tb, make_jobs(tb, users, 16))
    finally:
        tb.detach_injector()
    return tb, injector, results


def test_concurrent_chaos_trial_keeps_invariants():
    tb, injector, results = run_trial()
    # The trial must actually exercise faults and produce mixed results,
    # otherwise it proves nothing.
    assert injector.triggered
    assert 0 < len(granted(results)) < len(results)

    # Unwind: cancel surviving grants, then reclaim anything a failure
    # path left behind via the soft-state sweep.
    for outcome in granted(results):
        tb.hop_by_hop.cancel(outcome)
    tb.sweep_soft_state(tb.sim.now + 10_000.0)
    assert _check_invariants(tb) == []


def test_faulted_jobs_report_errors_not_crashes():
    """A job hitting an injected fault fails on its own; the burst
    always completes."""
    tb, injector, results = run_trial()
    assert len(results) == 16
    for outcome, error in results:
        if outcome is None:
            assert error, "job without outcome must carry its error"
    failed = [e for o, e in results if o is None]
    denied = [o for o, _ in results if o is not None and not o.granted]
    # The plan injects hard faults (drops + crash): at least one job
    # must have failed or been denied by them.
    assert failed or denied


def test_chaos_identical_serial_when_faults_exhausted():
    """After the fault windows pass, the same world signals cleanly:
    faults do not poison broker state for later traffic."""
    tb, injector, results = run_trial()
    for outcome in granted(results):
        tb.hop_by_hop.cancel(outcome)
    tb.sweep_soft_state(tb.sim.now + 10_000.0)

    users = {d: tb.users[f"user-{d}"] for d in DOMAINS}
    followup = reserve_all(tb, make_jobs(tb, users, 8))
    assert all(error == "" for _, error in followup), [
        error for _, error in followup
    ]
    assert granted(followup)
    for outcome in granted(followup):
        tb.hop_by_hop.cancel(outcome)
    tb.sweep_soft_state(tb.sim.now + 20_000.0)
    assert _check_invariants(tb) == []


def test_unroutable_job_does_not_sink_the_batch():
    """A job to an unknown domain fails with its RoutingError; the
    routable job beside it is granted."""
    tb = build_linear_testbed(["A", "B", "C"])
    user = tb.add_user("A", "user-A")
    good = tb.make_request(source="A", destination="C", bandwidth_mbps=10.0)
    bad = tb.make_request(
        source="A", destination="Z", bandwidth_mbps=10.0,
        destination_host="h0.Z",
    )
    (ok, _), (lost, error) = reserve_all(tb, [(user, good), (user, bad)])
    assert ok.granted
    assert lost is None
    assert error == "RoutingError: unknown domain 'Z'"
