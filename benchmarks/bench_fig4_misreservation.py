"""E4 / Figure 4: the misreservation attack, measured on the data plane.

David reserves in domains A and B but not C.  Domain C "polices traffic
based on traffic aggregates, not on individual users, so it cannot tell
the difference between David's reserved traffic and Alice's reserved
traffic ... causing it to discard or downgrade the extra traffic, thereby
affecting Alice's reservation."

The benchmark runs the packet-level DiffServ simulation twice — once
under the attack (source-domain signalling with a skipped domain), once
with hop-by-hop signalling — and asserts the claimed shape: substantial
loss for the innocent Alice under the attack, zero loss with hop-by-hop.
"""

import pytest

from repro.core.testbed import build_linear_testbed
from repro.workloads.misreservation import misreserve, run_flows

DURATION = 1.0


def _run_traffic(testbed):
    from repro.net.probes import GoodputProbe

    probe = GoodputProbe(testbed.network, "alice", interval_s=0.1,
                         stop_time=DURATION)
    trace = probe.start()
    stats = run_flows(testbed, DURATION)
    return stats["alice"], stats["david"], trace


def attack_scenario():
    testbed, _, _ = misreserve()
    return _run_traffic(testbed)


def protected_scenario():
    tb = build_linear_testbed(["A", "B", "C"])
    alice, david = tb.add_user("A", "Alice"), tb.add_user("A", "David")
    tb.set_policy("C", "If User = Alice\n    Return GRANT\nReturn DENY")
    a = tb.hop_by_hop.reserve(alice, tb.make_request(
        source="A", destination="C", bandwidth_mbps=10.0,
        attributes=(("flow_id", "alice"),)))
    tb.hop_by_hop.claim(a)
    d = tb.hop_by_hop.reserve(david, tb.make_request(
        source="A", destination="C", bandwidth_mbps=10.0,
        source_host="h1.A", destination_host="h1.C",
        attributes=(("flow_id", "david"),)))
    assert not d.granted  # hop-by-hop: incomplete reservations impossible
    return _run_traffic(tb)


def test_fig4_attack_harms_alice(benchmark, report):
    alice_stats, david_stats, trace = benchmark(attack_scenario)
    # The aggregate policer drops blindly: Alice suffers despite having a
    # complete reservation.
    assert alice_stats.loss_ratio > 0.25
    total_sent = alice_stats.sent_packets + david_stats.sent_packets
    total_dropped = alice_stats.dropped_packets + david_stats.dropped_packets
    assert total_dropped == pytest.approx(total_sent / 2, rel=0.3)
    report.append("Figure 4, attack (source-domain signalling, C skipped):")
    report.append(
        f"  Alice loss {alice_stats.loss_ratio * 100:5.1f}%   "
        f"goodput {alice_stats.goodput_mbps(DURATION):5.2f} Mb/s (reserved 10)"
    )
    report.append(
        f"  David loss {david_stats.loss_ratio * 100:5.1f}%   "
        f"goodput {david_stats.goodput_mbps(DURATION):5.2f} Mb/s"
    )
    series = " ".join(f"{v:4.1f}" for v in trace.values)
    report.append(f"  Alice goodput series (Mb/s per 100 ms): {series}")


def test_fig4_hop_by_hop_protects(benchmark, report):
    alice_stats, david_stats, trace = benchmark(protected_scenario)
    assert alice_stats.loss_ratio == 0.0
    assert alice_stats.goodput_mbps(DURATION) == pytest.approx(10.0, rel=0.1)
    # David's traffic was demoted to best effort at his first hop.
    assert david_stats.downgraded_packets == david_stats.sent_packets
    report.append("Figure 4, hop-by-hop protection:")
    report.append(
        f"  Alice loss {alice_stats.loss_ratio * 100:5.1f}%   "
        f"goodput {alice_stats.goodput_mbps(DURATION):5.2f} Mb/s"
    )
    report.append(
        f"  David demoted to BE: {david_stats.downgraded_packets} packets"
    )
