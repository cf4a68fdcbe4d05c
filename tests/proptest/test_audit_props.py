"""Property suite: the decision-provenance ledger is complete.

Hypothesis drives random topologies and reservation batches through the
hop-by-hop protocol, one reservation at a time, and checks the audit
contract: every admitted reservation
stitches into a complete per-hop chain (one admission per path domain,
in travel order), and the ledger-internal invariants reconcile clean.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.testbed import build_linear_testbed
from repro.obs import audit as obs_audit

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


def build_world(domains, specs):
    """A testbed plus the (user, request) pairs for *specs*
    (deterministic: same inputs produce byte-identical certificates and
    requests)."""
    tb = build_linear_testbed(list(domains))
    users = {d: tb.add_user(d, f"user-{d}") for d in domains}
    jobs = [
        (
            users[src],
            tb.make_request(
                source=src, destination=dst, bandwidth_mbps=rate,
                start=start, duration=3600.0,
            ),
        )
        for src, dst, rate, start in specs
    ]
    return tb, jobs


def assert_complete_chains(ledger, outcomes):
    """Every granted outcome stitches into a complete per-hop chain;
    the whole ledger reconciles with zero violations."""
    for outcome in outcomes:
        chain = obs_audit.stitch(ledger, outcome.correlation_id)
        if outcome.granted:
            assert chain.granted
            assert chain.complete_for(outcome.path), (
                f"incomplete chain for {outcome.correlation_id}: "
                f"hops {[h.domain for h in chain.hops]} vs path "
                f"{list(outcome.path)}"
            )
            for hop in chain.hops:
                assert hop.matched_rule, (
                    f"{hop.domain} admitted without a policy rule"
                )
        assert chain.outcome is not None
        assert chain.outcome.granted == outcome.granted
    violations = obs_audit.reconcile_ledger(ledger)
    assert not violations, [v.render() for v in violations]


@given(worlds())
@SETTINGS
def test_serial_chains_complete(world):
    """P1: a serial batch leaves one complete, stitchable chain per
    reservation, and the ledger invariants reconcile clean."""
    domains, specs = world
    tb, jobs = build_world(domains, specs)
    with obs_audit.use_ledger() as ledger:
        outcomes = [
            tb.hop_by_hop.reserve(user, request) for user, request in jobs
        ]
    assert_complete_chains(ledger, outcomes)

