"""Figure 4's misreservation, staged once for ``repro attack``, the
example script and benchmark E4: David reserves in A and B through the
source-domain agent but never contacts C, where his traffic ends, and
C's aggregate EF policer drops Alice's traffic with his (§3)."""

from __future__ import annotations

import random

from repro.core.sourcedomain import SourceDomainOutcome
from repro.core.testbed import Testbed, build_linear_testbed
from repro.net.flows import FlowSpec, FlowStats
from repro.net.packet import DSCP
from repro.net.trafficgen import PoissonSource

__all__ = ["FLOWS", "misreserve", "run_flows"]

#: (flow id, source host, destination host): Alice's flow, whose
#: reservation is complete, and David's.
FLOWS = (("alice", "h0.A", "h0.C"), ("david", "h1.A", "h1.C"))


def misreserve() -> tuple[Testbed, SourceDomainOutcome, SourceDomainOutcome]:
    """On an A–B–C chain, Alice reserves 10 Mb/s A→C in every domain;
    David, introduced to B only, reserves in A and B and skips C.  Both
    outcomes are claimed."""
    testbed = build_linear_testbed(["A", "B", "C"])
    agent, outcomes = testbed.end_to_end_agent, []
    # Per flow: the remote domains its user is introduced to, and skips.
    for (flow_id, src, dst), known, skipped in zip(
        FLOWS, ("BC", "B"), ((), ("C",))
    ):
        user = testbed.add_user("A", flow_id.capitalize())
        for domain in known:
            testbed.introduce_user_to(user, domain)
        outcomes.append(agent.reserve(user, testbed.make_request(
            source="A", destination="C", bandwidth_mbps=10.0, source_host=src,
            destination_host=dst, attributes=(("flow_id", flow_id),),
        ), skip_domains=skipped))
    for outcome in outcomes:
        agent.claim(outcome)
    return testbed, outcomes[0], outcomes[1]


def run_flows(testbed: Testbed, duration_s: float) -> dict[str, FlowStats]:
    """Send both :data:`FLOWS` as 10 Mb/s Poisson EF sources (seeds 0 and
    1) for *duration_s* and run the simulator; the per-flow statistics."""
    for seed, (flow_id, src, dst) in enumerate(FLOWS):
        PoissonSource(
            testbed.network, FlowSpec(flow_id, src, dst, 10.0, dscp=DSCP.EF),
            rng=random.Random(seed), stop_time=duration_s,
        ).start()
    testbed.sim.run()
    return {flow_id: testbed.network.stats_for(flow_id) for flow_id, _, _ in FLOWS}
