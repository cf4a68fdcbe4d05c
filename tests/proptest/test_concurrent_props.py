"""Property suite: a burst of independent reservations.

Hypothesis drives random topologies and random reservation bursts
through the hop-by-hop protocol, one reservation after another, and
checks the contract a burst must keep: no burst can oversubscribe a
link, handles are unique, and envelope chains name the traversed path.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

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
    """(domain names, job specs) for one example."""
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
    return domains, jobs


def run_world(domains, specs):
    """A testbed and the outcome of each (user, request) in *specs*,
    reserved in order (deterministic: same inputs produce byte-identical
    certificates and requests)."""
    tb = build_linear_testbed(list(domains))
    users = {d: tb.add_user(d, f"user-{d}") for d in domains}
    results = []
    for src, dst, rate, start in specs:
        request = tb.make_request(
            source=src, destination=dst, bandwidth_mbps=rate,
            start=start, duration=3600.0,
        )
        results.append(
            (users[src], tb.hop_by_hop.reserve(users[src], request))
        )
    return tb, results


@given(worlds())
@SETTINGS
def test_no_oversubscription(world):
    """P3: no burst books past a link's capacity — the peak load of every
    schedule stays within its configured Mb/s."""
    tb, _ = run_world(*world)
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
    tb, results = run_world(*world)
    seen = set()
    for _, outcome in results:
        if not outcome.granted:
            continue
        assert set(outcome.handles) == set(outcome.path)
        for domain, handle in outcome.handles.items():
            assert (domain, handle) not in seen
            seen.add((domain, handle))
            assert handle in tb.brokers[domain].reservations


@given(worlds())
@SETTINGS
def test_envelope_chains_consistent(world):
    """P5: the nested-signature envelope each destination verified names
    the traversed path in order (user first, then each BB)."""
    tb, results = run_world(*world)
    for user, outcome in results:
        if not outcome.granted:
            continue
        assert outcome.final_rar is not None
        trace = trace_request_path(outcome.final_rar)
        assert trace.consistent
        assert trace.signers[0] == user.dn
        bb_signers = tuple(str(dn) for dn in trace.signers[1:])
        expected = tuple(str(tb.brokers[d].dn) for d in outcome.path[:-1])
        assert bb_signers == expected

