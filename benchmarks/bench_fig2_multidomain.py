"""E2 / Figure 2: the multi-domain reservation problem.

Alice's reservation from domain A to domain C must obtain a local
reservation in every domain on the path.  The benchmark times one
complete hop-by-hop end-to-end reservation (verification, policy,
admission, capability delegation, approval propagation — everything) and
asserts that all three domains granted.
"""

import pytest

from repro.core.testbed import build_linear_testbed


@pytest.fixture(scope="module")
def testbed():
    tb = build_linear_testbed(["A", "B", "C"])
    tb.add_user("A", "Alice")
    return tb


def reserve_and_release(testbed):
    alice = testbed.users["Alice"]
    outcome = testbed.reserve(
        alice, source="A", destination="C", bandwidth_mbps=10.0
    )
    if outcome.granted:
        testbed.hop_by_hop.cancel(outcome)
    return outcome


def test_fig2_end_to_end_reservation(benchmark, testbed, report):
    outcome = benchmark(reserve_and_release, testbed)
    assert outcome.granted
    assert set(outcome.handles) == {"A", "B", "C"}
    assert outcome.messages == 6
    report.append("Figure 2: one reservation, three local admissions")
    report.append(f"  domains granted : {sorted(outcome.handles)}")
    report.append(f"  messages        : {outcome.messages}")
    report.append(f"  signalling time : {outcome.latency_s * 1000:.1f} ms (model)")


def test_fig2_with_real_rsa(benchmark, report):
    """The same reservation with genuine RSA-1024 signatures everywhere
    (the registered default scheme; the crypto cost the 2001 deployment
    would have paid)."""
    tb = build_linear_testbed(["A", "B", "C"], scheme="rsa")
    alice = tb.add_user("A", "Alice")

    def run():
        outcome = tb.reserve(
            alice, source="A", destination="C", bandwidth_mbps=10.0
        )
        tb.hop_by_hop.cancel(outcome)
        return outcome

    outcome = benchmark(run)
    assert outcome.granted
    report.append("Figure 2 with real RSA-1024 signatures: granted")
