"""Chaos under a batch: faults + modelled parallel signalling + invariants.

Extends the chaos harness to :func:`~repro.core.concurrent.run_batch`: a
batch of contended reservations runs while the fault injector drops
messages, crashes a broker window and makes a policy server
unavailable.  Afterwards the run must satisfy exactly the invariants
``repro chaos`` enforces for the serial engine — every failure path
released its capacity, no reservation is stuck mid-state, and the
injector is detached.
"""

from repro.core.concurrent import ReservationJob, run_batch
from repro.core.testbed import build_linear_testbed
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
        jobs.append(
            ReservationJob(
                user=users[src],
                request=tb.make_request(
                    source=src, destination=dst, bandwidth_mbps=40.0,
                    start=0.0, duration=3600.0,
                ),
                deadline_s=30.0,
            )
        )
    return jobs


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


def run_trial(concurrency):
    tb, users = build_world()
    injector = FaultInjector(chaos_plan())
    tb.attach_injector(injector)
    try:
        batch = run_batch(
            tb.hop_by_hop, make_jobs(tb, users, 16), concurrency=concurrency
        )
    finally:
        tb.detach_injector()
    return tb, injector, batch


def test_concurrent_chaos_trial_keeps_invariants():
    tb, injector, batch = run_trial(concurrency=8)
    # The trial must actually exercise faults and produce mixed results,
    # otherwise it proves nothing.
    assert injector.triggered
    assert 0 < batch.granted_count
    assert batch.granted_count < len(batch.scheduled)

    # Unwind: cancel surviving grants, then reclaim anything a failure
    # path left behind via the soft-state sweep.
    for item in batch.scheduled:
        if item.granted and item.outcome is not None:
            tb.hop_by_hop.cancel(item.outcome)
    tb.sweep_soft_state(tb.sim.now + 10_000.0)
    assert _check_invariants(tb) == []


def test_faulted_jobs_report_errors_not_crashes():
    """A job hitting an injected fault records the failure on itself;
    the batch always completes."""
    tb, injector, batch = run_trial(concurrency=4)
    assert len(batch.scheduled) == 16
    for item in batch.scheduled:
        if item.outcome is None:
            # Captured error, never a raised one.
            assert item.error, "job without outcome must carry its error"
    failed = [s for s in batch.scheduled if s.outcome is None]
    denied = [
        s for s in batch.scheduled
        if s.outcome is not None and not s.granted
    ]
    # The plan injects hard faults (drops + crash): at least one job
    # must have failed or been denied by them.
    assert failed or denied


def test_chaos_identical_serial_when_faults_exhausted():
    """After the fault windows pass, the same world signals cleanly:
    faults do not poison broker state for later traffic."""
    tb, injector, batch = run_trial(concurrency=8)
    for item in batch.scheduled:
        if item.granted and item.outcome is not None:
            tb.hop_by_hop.cancel(item.outcome)
    tb.sweep_soft_state(tb.sim.now + 10_000.0)

    users = {d: tb.users[f"user-{d}"] for d in DOMAINS}
    followup = run_batch(
        tb.hop_by_hop, make_jobs(tb, users, 8), concurrency=4
    )
    assert all(s.error == "" for s in followup.scheduled), [
        s.error for s in followup.scheduled
    ]
    assert followup.granted_count > 0
    for item in followup.scheduled:
        if item.granted and item.outcome is not None:
            tb.hop_by_hop.cancel(item.outcome)
    tb.sweep_soft_state(tb.sim.now + 20_000.0)
    assert _check_invariants(tb) == []


def test_unroutable_job_does_not_sink_the_batch():
    """A job to an unknown domain records its RoutingError and holds no
    domain in the schedule; the routable job beside it is granted."""
    tb = build_linear_testbed(["A", "B", "C"])
    user = tb.add_user("A", "user-A")
    good = tb.make_request(source="A", destination="C", bandwidth_mbps=10.0)
    bad = tb.make_request(
        source="A", destination="Z", bandwidth_mbps=10.0,
        destination_host="h0.Z",
    )
    batch = run_batch(
        tb.hop_by_hop,
        [ReservationJob(user=user, request=good),
         ReservationJob(user=user, request=bad)],
        concurrency=2,
    )
    ok, lost = batch.scheduled
    assert ok.granted
    assert lost.outcome is None
    assert lost.error == "RoutingError: unknown domain 'Z'"
    assert lost.start_s == lost.end_s
    assert batch.makespan_s == ok.end_s - ok.start_s
