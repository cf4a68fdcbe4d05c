#!/usr/bin/env python3
"""Figure 4: the misreservation attack, on the DiffServ data plane.

David, a user in domain A, reserves premium bandwidth in domains A and B
but — maliciously or accidentally — never contacts domain C, even though
his traffic terminates there.  Domain C polices traffic aggregates, not
individual users: its ingress admits exactly the EF bandwidth its broker
admitted (Alice's 10 Mb/s).  When David's reserved-marked traffic arrives
on top of Alice's, the aggregate policer drops the excess blindly —
harming Alice, who did everything right.

The second half repeats the run with hop-by-hop signalling, where an
incomplete reservation is structurally impossible, and Alice's flow is
unharmed.

Run:  python examples/misreservation_attack.py
"""

from repro import build_linear_testbed
from repro.workloads.misreservation import misreserve, run_flows

DURATION = 2.0  # seconds of simulated traffic


def report(stats):
    for flow_id, st in stats.items():
        print(
            f"  {flow_id:<8s} sent {st.sent_packets:4d}  "
            f"delivered {st.delivered_packets:4d}  "
            f"dropped {st.dropped_packets:4d}  "
            f"goodput {st.goodput_mbps(DURATION):5.2f} Mb/s  "
            f"loss {st.loss_ratio * 100:5.1f}%"
        )


def scenario_source_domain() -> None:
    print("== Scenario 1: source-domain signalling, David skips domain C ==")
    testbed, alice_outcome, david_outcome = misreserve()
    print(f"  Alice reserved in : {sorted(alice_outcome.handles)} "
          f"(complete={alice_outcome.complete})")
    print(f"  David reserved in : {sorted(david_outcome.handles)} "
          f"(complete={david_outcome.complete})  <- misreservation!")

    report(run_flows(testbed, DURATION))
    drops = testbed.network.total_drops("aggregate-policer")
    print(f"  EF aggregate drops at C's ingress: {drops}")
    print("  -> Alice loses packets although her reservation was complete.\n")


def scenario_hop_by_hop() -> None:
    print("== Scenario 2: hop-by-hop signalling (the paper's protocol) ==")
    testbed = build_linear_testbed(["A", "B", "C"])
    alice = testbed.add_user("A", "Alice")
    david = testbed.add_user("A", "David")

    a_req = testbed.make_request(
        source="A", destination="C", bandwidth_mbps=10.0,
        attributes=(("flow_id", "alice"),),
    )
    alice_outcome = testbed.hop_by_hop.reserve(alice, a_req)
    testbed.hop_by_hop.claim(alice_outcome)
    print(f"  Alice reserved in : {sorted(alice_outcome.handles)}")

    # David cannot skip a domain: the request either reaches C (which then
    # provisions for him) or fails entirely.  Suppose C denies David.
    testbed.set_policy("C", "If User = Alice\n    Return GRANT\nReturn DENY")
    d_req = testbed.make_request(
        source="A", destination="C", bandwidth_mbps=10.0,
        source_host="h1.A", destination_host="h1.C",
        attributes=(("flow_id", "david"),),
    )
    david_outcome = testbed.hop_by_hop.reserve(david, d_req)
    print(f"  David granted     : {david_outcome.granted} "
          f"(denied by {david_outcome.denial_domain}; partial path released)")

    report(run_flows(testbed, DURATION))
    print("  -> David's unreserved traffic is demoted at his first hop; "
          "Alice's EF flow is untouched.")


def main() -> None:
    scenario_source_domain()
    scenario_hop_by_hop()


if __name__ == "__main__":
    main()
