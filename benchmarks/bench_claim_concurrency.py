"""C5: concurrent signalling throughput.

The north star ("heavy traffic from millions of users") turns on the
engine property this benchmark measures — **parallelism across disjoint
paths**: eight reservations spanning eight disjoint domain pairs of a
16-domain chain have no admission ledger in common, so
:func:`~repro.core.concurrent.run_batch` with 8 modelled workers
completes the batch in roughly one reservation's modelled latency while
one modelled worker pays the sum (the >= 2x claim).

Throughput is **modelled time** (the greedy domain/worker schedule
documented in :mod:`repro.core.concurrent`); the signalling itself runs
on one thread, so the claim is about the system model, not about threads.
"""

import pytest

from repro.core.concurrent import ReservationJob, run_batch
from repro.core.testbed import build_linear_testbed

#: Modelled workers for the headline batch.
CONCURRENCY = 8

DOMAINS = [f"D{i:02d}" for i in range(16)]


@pytest.fixture(scope="module")
def setup():
    tb = build_linear_testbed(DOMAINS)
    # Grid-login every user into a community so each reservation carries a
    # capability chain.
    cas = tb.add_cas("ESnet")
    users = {}
    for i in range(0, len(DOMAINS), 2):
        src = DOMAINS[i]
        user = tb.add_user(src, f"user-{src}")
        cas.grant(user.dn, ["member"])
        user.grid_login(cas, validity_s=10 * 24 * 3600.0)
        users[src] = user
    return tb, users


def disjoint_jobs(tb, users):
    """Eight reservations over disjoint adjacent domain pairs."""
    jobs = []
    for i in range(0, len(DOMAINS), 2):
        src, dst = DOMAINS[i], DOMAINS[i + 1]
        jobs.append(
            ReservationJob(
                user=users[src],
                request=tb.make_request(
                    source=src, destination=dst, bandwidth_mbps=10.0,
                    start=0.0, duration=3600.0,
                ),
            )
        )
    return jobs


def release_all(tb, batch):
    for item in batch.scheduled:
        if item.granted and item.outcome is not None:
            tb.hop_by_hop.cancel(item.outcome)


def test_c5_concurrent_throughput(benchmark, setup, report):
    tb, users = setup
    jobs = disjoint_jobs(tb, users)

    # Serial baseline (not benchmarked): same jobs, one modelled worker.
    serial = run_batch(tb.hop_by_hop, jobs)
    assert all(s.granted for s in serial.scheduled), [
        s.error for s in serial.scheduled
    ]
    release_all(tb, serial)

    def run_concurrent():
        batch = run_batch(tb.hop_by_hop, jobs, concurrency=CONCURRENCY)
        release_all(tb, batch)
        return batch

    batch = benchmark(run_concurrent)

    # Identical decisions: the worker count must not change what is admitted.
    assert [s.granted for s in batch.scheduled] == [
        s.granted for s in serial.scheduled
    ]
    speedup = batch.throughput_rps / serial.throughput_rps
    # Disjoint paths: the modelled makespan collapses from the serial
    # sum to ~one reservation's latency.
    assert speedup >= 2.0, (
        f"concurrency {CONCURRENCY} gave only {speedup:.2f}x over serial"
    )
    report.append(
        f"C5 [{len(jobs)} disjoint jobs, concurrency {CONCURRENCY}] "
        f"modelled throughput {batch.throughput_rps:.1f} rps "
        f"vs serial {serial.throughput_rps:.1f} rps ({speedup:.2f}x)"
    )


def test_c5_shared_path_matches_serial(benchmark, setup, report):
    """Jobs contending for one bottleneck domain pair: they run in
    submission order, so grants/denials and the capacity ledger match the
    one-worker run exactly (here: the link fits 7 of 8)."""
    tb, users = setup
    src, dst = DOMAINS[0], DOMAINS[1]
    user = users[src]
    jobs = [
        ReservationJob(
            user=user,
            request=tb.make_request(
                source=src, destination=dst, bandwidth_mbps=20.0,
                start=0.0, duration=3600.0,
            ),
        )
        for _ in range(8)
    ]

    serial = run_batch(tb.hop_by_hop, jobs)
    serial_granted = [s.granted for s in serial.scheduled]
    release_all(tb, serial)

    def run_concurrent():
        batch = run_batch(tb.hop_by_hop, jobs, concurrency=CONCURRENCY)
        granted = [s.granted for s in batch.scheduled]
        release_all(tb, batch)
        return granted

    granted = benchmark(run_concurrent)
    assert granted == serial_granted
    # 155 Mb/s inter-domain link, 20 Mb/s each: exactly 7 fit.
    assert granted.count(True) == 7
    report.append(
        f"C5 bottleneck batch: {granted.count(True)}/8 granted, "
        f"identical to serial under {CONCURRENCY} modelled workers"
    )
