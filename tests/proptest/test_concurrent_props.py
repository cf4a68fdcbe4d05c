"""Property suite: a signalling batch and its modelled schedule.

Hypothesis drives random topologies, random reservation batches and
random modelled worker counts through :func:`repro.core.concurrent.run_batch`
and checks the contract it documents: no batch can oversubscribe a link,
handles are unique, envelope chains name the traversed path, and the
modelled schedule is a valid greedy schedule of the jobs' latencies.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.concurrent import ReservationJob, run_batch
from repro.core.testbed import build_linear_testbed
from repro.core.tracing import trace_request_path

#: Small but contended worlds: a 155 Mb/s inter-domain link and rates up
#: to 100 Mb/s force admission denials in most generated batches.
RATES = (10.0, 40.0, 60.0, 100.0)

SETTINGS = settings(
    max_examples=200,
    deadline=None,  # testbed construction time varies per example
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def worlds(draw):
    """(domain names, job specs, concurrency) for one example."""
    n_domains = draw(st.integers(min_value=2, max_value=4))
    domains = [f"D{i}" for i in range(n_domains)]
    n_jobs = draw(st.integers(min_value=1, max_value=8))
    jobs = []
    for _ in range(n_jobs):
        src = draw(st.integers(min_value=0, max_value=n_domains - 1))
        dst = draw(
            st.integers(min_value=0, max_value=n_domains - 1).filter(
                lambda d: d != src
            )
        )
        rate = draw(st.sampled_from(RATES))
        start = draw(st.sampled_from((0.0, 1800.0)))
        jobs.append((domains[src], domains[dst], rate, start))
    concurrency = draw(st.integers(min_value=1, max_value=4))
    return domains, jobs, concurrency


def build_world(domains, specs):
    """A testbed plus the ReservationJobs for *specs* (deterministic:
    same inputs produce byte-identical certificates and requests)."""
    tb = build_linear_testbed(list(domains))
    users = {d: tb.add_user(d, f"user-{d}") for d in domains}
    jobs = [
        ReservationJob(
            user=users[src],
            request=tb.make_request(
                source=src, destination=dst, bandwidth_mbps=rate,
                start=start, duration=3600.0,
            ),
        )
        for src, dst, rate, start in specs
    ]
    return tb, jobs


@given(worlds())
@SETTINGS
def test_no_oversubscription(world):
    """P3: no batch books past a link's capacity — the peak load of every
    schedule stays within its configured Mb/s."""
    domains, specs, concurrency = world
    tb, jobs = build_world(domains, specs)
    run_batch(tb.hop_by_hop, jobs, concurrency=concurrency)
    for broker in tb.brokers.values():
        for resource in broker.admission.resources():
            schedule = broker.admission.schedule(resource)
            peak = schedule.peak_load(0.0, 24 * 3600.0)
            assert peak <= schedule.capacity_mbps + 1e-9, (
                f"{resource} oversubscribed: {peak} > {schedule.capacity_mbps}"
            )


@given(worlds())
@SETTINGS
def test_handles_complete_and_unique(world):
    """P4: every grant carries one live reservation handle per domain on
    its path, and no handle is shared between reservations."""
    domains, specs, concurrency = world
    tb, jobs = build_world(domains, specs)
    batch = run_batch(tb.hop_by_hop, jobs, concurrency=concurrency)
    seen = set()
    for item in batch.scheduled:
        if not item.granted or item.outcome is None:
            continue
        outcome = item.outcome
        assert set(outcome.handles) == set(outcome.path)
        for domain, handle in outcome.handles.items():
            assert (domain, handle) not in seen
            seen.add((domain, handle))
            assert handle in tb.brokers[domain].reservations


@given(worlds())
@SETTINGS
def test_envelope_chains_consistent(world):
    """P5: the nested-signature envelope each destination verified names
    the traversed path in order (user first, then each BB), regardless
    of the modelled worker count."""
    domains, specs, concurrency = world
    tb, jobs = build_world(domains, specs)
    batch = run_batch(tb.hop_by_hop, jobs, concurrency=concurrency)
    for item in batch.scheduled:
        if not item.granted or item.outcome is None:
            continue
        outcome = item.outcome
        assert outcome.final_rar is not None
        trace = trace_request_path(outcome.final_rar)
        assert trace.consistent
        assert trace.signers[0] == item.job.user.dn
        bb_signers = tuple(str(dn) for dn in trace.signers[1:])
        expected = tuple(str(tb.brokers[d].dn) for d in outcome.path[:-1])
        assert bb_signers == expected


@given(worlds())
@SETTINGS
def test_modelled_schedule_is_greedy(world):
    """P6: one modelled worker's makespan is the sum of the jobs'
    latencies; more workers never exceed that sum; and two jobs sharing
    a domain never overlap in ``[start_s, end_s)``."""
    domains, specs, concurrency = world
    tb, jobs = build_world(domains, specs)
    one = run_batch(tb.hop_by_hop, jobs)
    latencies = [s.end_s - s.start_s for s in one.scheduled]
    total = sum(latencies)
    assert one.makespan_s == pytest.approx(total)

    tb, jobs = build_world(domains, specs)
    many = run_batch(tb.hop_by_hop, jobs, concurrency=concurrency)
    assert many.makespan_s <= total + 1e-9
    items = [
        (set(s.outcome.path) if s.outcome is not None else set(), s)
        for s in many.scheduled
    ]
    for i, (path_a, a) in enumerate(items):
        for path_b, b in items[i + 1:]:
            if path_a & path_b:
                assert a.end_s <= b.start_s + 1e-12 or b.end_s <= a.start_s + 1e-12
