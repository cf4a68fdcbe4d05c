"""The structural span tree of every traced scenario, pinned.

For each span: its trace, its name, its parent's name, its status and
every attribute — everything but wall times and span ids.  Each
scenario runs in a fresh context, so correlation ids, trace ids and
handles number from 1 and the tree is the same on every run.  Attribute
values are compared as text (a distinguished name and its string render
alike).
"""

from __future__ import annotations

import pytest

from repro.core.envelope import SignedEnvelope
from repro.core.messages import F_TYPE, MSG_APPROVAL, MSG_RAR
from repro.core.testbed import build_linear_testbed
from repro.crypto.repository import CertificateRepository
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultKind, FaultPlan, FaultSpec, TargetKind
from repro.obs.context import fresh_context
from repro.obs.spans import Tracer


def _inject(testbed, *specs):
    testbed.attach_injector(FaultInjector(FaultPlan(tuple(specs), seed=1)))


def _only(kind, transform):
    def hook(message):
        if isinstance(message, SignedEnvelope) and message.get(F_TYPE) == kind:
            return transform(message)
        return message
    return hook


def granted_four_domains():
    testbed = build_linear_testbed(["A", "B", "C", "D"])
    user = testbed.add_user("A", "Alice")
    assert testbed.reserve(
        user, source="A", destination="D", bandwidth_mbps=10.0,
    ).granted


def policy_denial_at_transit_hop():
    testbed = build_linear_testbed(["A", "B", "C"])
    testbed.set_policy("B", "Return DENY")
    user = testbed.add_user("A", "Alice")
    outcome = testbed.reserve(
        user, source="A", destination="C", bandwidth_mbps=10.0,
    )
    assert outcome.denial_domain == "B"


def dead_broker():
    testbed = build_linear_testbed(["A", "B", "C"])
    _inject(testbed, FaultSpec(TargetKind.BROKER, "B", FaultKind.CRASH,
                               ops=None))
    user = testbed.add_user("A", "Alice")
    outcome = testbed.reserve(
        user, source="A", destination="C", bandwidth_mbps=10.0,
    )
    assert outcome.denial_domain == "B"


def undeliverable_approval():
    testbed = build_linear_testbed(["A", "B", "C"])
    user = testbed.add_user("A", "Alice")
    channel = testbed.channels.connect(
        testbed.brokers["A"], testbed.brokers["B"]
    )
    channel.tamper_hook = _only(MSG_APPROVAL, lambda m: None)
    outcome = testbed.reserve(
        user, source="A", destination="C", bandwidth_mbps=10.0,
    )
    assert not outcome.granted


def tampered_copy_retransmitted():
    testbed = build_linear_testbed(["A", "B", "C"])
    user = testbed.add_user("A", "Alice")
    channel = testbed.channels.connect(
        testbed.brokers["A"], testbed.brokers["B"]
    )
    tampered = []

    def tamper_once(message):
        if not tampered:
            tampered.append(message)
            return message.with_tampered_field("downstream", "nobody")
        return message

    channel.tamper_hook = _only(MSG_RAR, tamper_once)
    outcome = testbed.reserve(
        user, source="A", destination="C", bandwidth_mbps=10.0,
    )
    assert outcome.granted and outcome.retries == 1


def repository_mode():
    testbed = build_linear_testbed(["A", "B", "C"])
    repo = CertificateRepository(lookup_latency_s=0.002)
    testbed.hop_by_hop.repository = repo
    for bb in testbed.brokers.values():
        repo.publish(bb.certificate)
    user = testbed.add_user("A", "Alice")
    repo.publish(user.certificate)
    assert testbed.reserve(
        user, source="A", destination="C", bandwidth_mbps=10.0,
    ).granted


def soft_state_sweep():
    testbed = build_linear_testbed(["A", "B"], soft_state_ttl_s=60.0)
    user = testbed.add_user("A", "Alice")
    assert testbed.reserve(
        user, source="A", destination="B", bandwidth_mbps=10.0,
    ).granted
    assert testbed.sweep_soft_state(61.0) == 2


def tunnel_fallback():
    testbed = build_linear_testbed(["A", "B", "C", "D"])
    user = testbed.add_user("A", "Alice")
    request = testbed.make_request(
        source="A", destination="D", bandwidth_mbps=50.0, duration=7200.0,
    )
    tunnel, outcome = testbed.tunnels.establish(user, request)
    assert outcome.granted
    _inject(testbed, FaultSpec(TargetKind.CHANNEL, "A|D", FaultKind.DROP,
                               ops=None))
    alloc, _, _ = testbed.tunnels.allocate_flow(tunnel.tunnel_id, user, 10.0)
    assert alloc.via == "per-flow"


def unsolicited_ingress():
    testbed = build_linear_testbed(["A", "B"])
    report = testbed.hop_by_hop.process_ingress(
        "B", b"\x00junk", peer="A", peer_kind="domain",
    )
    assert not report.accepted


def shape(tracer: Tracer) -> list[str]:
    """One line per span, in recording order: trace, name < parent name,
    status, sorted attributes."""
    names = {
        span.span_id: span.name + (
            f":{span.attributes['domain']}"
            if "domain" in span.attributes else ""
        )
        for span in tracer
    }
    lines = []
    for span in tracer:
        attrs = " ".join(
            f"{key}={value}" for key, value in sorted(span.attributes.items())
        )
        parent = names.get(span.parent_id, "-")
        lines.append(
            f"{span.trace_id} {span.name} < {parent} [{span.status}] {attrs}"
            .rstrip()
        )
    return lines


def traced(scenario) -> list[str]:
    with fresh_context(tracer=Tracer()) as context:
        scenario()
    assert all(span.finished for span in context.tracer)
    return shape(context.tracer)


def _lines(text: str) -> list[str]:
    return text.strip().splitlines()


# Generated from the engine as it stood before spans moved into
# ``repro.obs.spans``; the move must not change a line.
EXPECTED: dict[str, list[str]] = {
    "granted_four_domains": _lines("""
req-000001 reserve < - [ok] destination=D granted=True messages=8 rate_mbps=10.0 sim_latency_s=0.036000000000000004 source=A user=/O=Grid/OU=A/CN=Alice
req-000001 route < reserve [ok] hops=4
req-000001 prepare < reserve [ok] delegations=0
req-000001 submit < reserve [ok] sim_latency_s=0.001
req-000001 hop < reserve [ok] bb=/O=Grid/OU=A/CN=BB-A domain=A handle=RES-A-000001
req-000001 verify < hop:A [ok] depth=0 signer=/O=Grid/OU=A/CN=Alice
req-000001 policy < hop:A [ok] chains=0 rejected=0
req-000001 admission < hop:A [ok] granted=True handle=RES-A-000001
req-000001 forward < hop:A [ok] downstream=B sim_latency_s=0.005
req-000001 hop < hop:A [ok] bb=/O=Grid/OU=B/CN=BB-B domain=B handle=RES-B-000002
req-000001 verify < hop:B [ok] depth=1 signer=/O=Grid/OU=A/CN=Alice
req-000001 policy < hop:B [ok] chains=0 rejected=0
req-000001 admission < hop:B [ok] granted=True handle=RES-B-000002
req-000001 forward < hop:B [ok] downstream=C sim_latency_s=0.005
req-000001 hop < hop:B [ok] bb=/O=Grid/OU=C/CN=BB-C domain=C handle=RES-C-000003
req-000001 verify < hop:C [ok] depth=2 signer=/O=Grid/OU=A/CN=Alice
req-000001 policy < hop:C [ok] chains=0 rejected=0
req-000001 admission < hop:C [ok] granted=True handle=RES-C-000003
req-000001 forward < hop:C [ok] downstream=D sim_latency_s=0.005
req-000001 hop < hop:C [ok] bb=/O=Grid/OU=D/CN=BB-D domain=D handle=RES-D-000004
req-000001 verify < hop:D [ok] depth=3 signer=/O=Grid/OU=A/CN=Alice
req-000001 policy < hop:D [ok] chains=0 rejected=0
req-000001 admission < hop:D [ok] granted=True handle=RES-D-000004
req-000001 delegation < hop:D [ok] chains=0 verified=0
req-000001 reply < hop:D [ok] sim_latency_s=0.005
req-000001 reply < hop:C [ok] sim_latency_s=0.005
req-000001 reply < hop:B [ok] sim_latency_s=0.005
req-000001 reply < hop:A [ok] sim_latency_s=0.001
"""),
    "policy_denial_at_transit_hop": _lines("""
req-000001 reserve < - [denied] destination=C granted=False messages=4 rate_mbps=10.0 sim_latency_s=0.014000000000000002 source=A user=/O=Grid/OU=A/CN=Alice
req-000001 route < reserve [ok] hops=3
req-000001 prepare < reserve [ok] delegations=0
req-000001 submit < reserve [ok] sim_latency_s=0.001
req-000001 hop < reserve [released] bb=/O=Grid/OU=A/CN=BB-A domain=A
req-000001 verify < hop:A [ok] depth=0 signer=/O=Grid/OU=A/CN=Alice
req-000001 policy < hop:A [ok] chains=0 rejected=0
req-000001 admission < hop:A [ok] granted=True handle=RES-A-000001
req-000001 forward < hop:A [ok] downstream=B sim_latency_s=0.005
req-000001 hop < hop:A [denied] bb=/O=Grid/OU=B/CN=BB-B domain=B
req-000001 verify < hop:B [ok] depth=1 signer=/O=Grid/OU=A/CN=Alice
req-000001 policy < hop:B [ok] chains=0 rejected=0
req-000001 admission < hop:B [ok] granted=False handle=RES-B-000002
req-000001 reply < hop:B [ok] sim_latency_s=0.005
req-000001 reply < hop:A [ok] sim_latency_s=0.001
"""),
    "dead_broker": _lines("""
req-000001 reserve < - [denied] destination=C granted=False messages=3 rate_mbps=10.0 sim_latency_s=0.4025469318198538 source=A user=/O=Grid/OU=A/CN=Alice
req-000001 route < reserve [ok] hops=3
req-000001 prepare < reserve [ok] delegations=0
req-000001 submit < reserve [ok] sim_latency_s=0.001
req-000001 hop < reserve [released] bb=/O=Grid/OU=A/CN=BB-A domain=A
req-000001 verify < hop:A [ok] depth=0 signer=/O=Grid/OU=A/CN=Alice
req-000001 policy < hop:A [ok] chains=0 rejected=0
req-000001 admission < hop:A [ok] granted=True handle=RES-A-000001
req-000001 forward < hop:A [ok] downstream=B sim_latency_s=0.005
req-000001 hop < hop:A [failed] bb=/O=Grid/OU=B/CN=BB-B domain=B error=admission at B failed after 4 attempts: fault injection: bandwidth broker of B is down (op 3)
req-000001 verify < hop:B [ok] depth=1 signer=/O=Grid/OU=A/CN=Alice
req-000001 policy < hop:B [ok] chains=0 rejected=0
req-000001 reply < hop:A [ok] sim_latency_s=0.001
"""),
    "undeliverable_approval": _lines("""
req-000001 reserve < - [denied] destination=C granted=False messages=4 rate_mbps=10.0 sim_latency_s=1.412546931819854 source=A user=/O=Grid/OU=A/CN=Alice
req-000001 route < reserve [ok] hops=3
req-000001 prepare < reserve [ok] delegations=0
req-000001 submit < reserve [ok] sim_latency_s=0.001
req-000001 hop < reserve [released] bb=/O=Grid/OU=A/CN=BB-A domain=A
req-000001 verify < hop:A [ok] depth=0 signer=/O=Grid/OU=A/CN=Alice
req-000001 policy < hop:A [ok] chains=0 rejected=0
req-000001 admission < hop:A [ok] granted=True handle=RES-A-000001
req-000001 forward < hop:A [ok] downstream=B sim_latency_s=0.005
req-000001 hop < hop:A [released] bb=/O=Grid/OU=B/CN=BB-B domain=B
req-000001 verify < hop:B [ok] depth=1 signer=/O=Grid/OU=A/CN=Alice
req-000001 policy < hop:B [ok] chains=0 rejected=0
req-000001 admission < hop:B [ok] granted=True handle=RES-B-000002
req-000001 forward < hop:B [ok] downstream=C sim_latency_s=0.005
req-000001 hop < hop:B [ok] bb=/O=Grid/OU=C/CN=BB-C domain=C handle=RES-C-000003
req-000001 verify < hop:C [ok] depth=2 signer=/O=Grid/OU=A/CN=Alice
req-000001 policy < hop:C [ok] chains=0 rejected=0
req-000001 admission < hop:C [ok] granted=True handle=RES-C-000003
req-000001 delegation < hop:C [ok] chains=0 verified=0
req-000001 reply < hop:C [ok] sim_latency_s=0.005
req-000001 reply < hop:B [error] error=approval reply: no delivery on link A|B after 4 attempts: message from /O=Grid/OU=B/CN=BB-B dropped on link A|B by the tamper hook
"""),
    "tampered_copy_retransmitted": _lines("""
req-000001 reserve < - [ok] destination=C granted=True messages=7 rate_mbps=10.0 sim_latency_s=0.08442327874217351 source=A user=/O=Grid/OU=A/CN=Alice
req-000001 route < reserve [ok] hops=3
req-000001 prepare < reserve [ok] delegations=0
req-000001 submit < reserve [ok] sim_latency_s=0.001
req-000001 hop < reserve [ok] bb=/O=Grid/OU=A/CN=BB-A domain=A handle=RES-A-000001
req-000001 verify < hop:A [ok] depth=0 signer=/O=Grid/OU=A/CN=Alice
req-000001 policy < hop:A [ok] chains=0 rejected=0
req-000001 admission < hop:A [ok] granted=True handle=RES-A-000001
req-000001 forward < hop:A [ok] downstream=B sim_latency_s=0.005
req-000001 hop < hop:A [ok] bb=/O=Grid/OU=B/CN=BB-B domain=B handle=RES-B-000002
req-000001 verify < hop:B [ok] depth=1 signer=/O=Grid/OU=A/CN=Alice
req-000001 policy < hop:B [ok] chains=0 rejected=0
req-000001 admission < hop:B [ok] granted=True handle=RES-B-000002
req-000001 forward < hop:B [ok] downstream=C sim_latency_s=0.005
req-000001 hop < hop:B [ok] bb=/O=Grid/OU=C/CN=BB-C domain=C handle=RES-C-000003
req-000001 verify < hop:C [ok] depth=2 signer=/O=Grid/OU=A/CN=Alice
req-000001 policy < hop:C [ok] chains=0 rejected=0
req-000001 admission < hop:C [ok] granted=True handle=RES-C-000003
req-000001 delegation < hop:C [ok] chains=0 verified=0
req-000001 reply < hop:C [ok] sim_latency_s=0.005
req-000001 reply < hop:B [ok] sim_latency_s=0.005
req-000001 reply < hop:A [ok] sim_latency_s=0.001
"""),
    "repository_mode": _lines("""
req-000001 reserve < - [ok] destination=C granted=True messages=6 rate_mbps=10.0 sim_latency_s=0.031000000000000003 source=A user=/O=Grid/OU=A/CN=Alice
req-000001 route < reserve [ok] hops=3
req-000001 prepare < reserve [ok] delegations=0
req-000001 submit < reserve [ok] sim_latency_s=0.001
req-000001 hop < reserve [ok] bb=/O=Grid/OU=A/CN=BB-A domain=A handle=RES-A-000001
req-000001 verify < hop:A [ok] depth=0 signer=/O=Grid/OU=A/CN=Alice
req-000001 policy < hop:A [ok] chains=0 rejected=0
req-000001 admission < hop:A [ok] granted=True handle=RES-A-000001
req-000001 forward < hop:A [ok] downstream=B sim_latency_s=0.005
req-000001 hop < hop:A [ok] bb=/O=Grid/OU=B/CN=BB-B domain=B handle=RES-B-000002
req-000001 verify < hop:B [ok] depth=1 signer=/O=Grid/OU=A/CN=Alice
req-000001 policy < hop:B [ok] chains=0 rejected=0
req-000001 admission < hop:B [ok] granted=True handle=RES-B-000002
req-000001 forward < hop:B [ok] downstream=C sim_latency_s=0.005
req-000001 hop < hop:B [ok] bb=/O=Grid/OU=C/CN=BB-C domain=C handle=RES-C-000003
req-000001 verify < hop:C [ok] depth=2 signer=/O=Grid/OU=A/CN=Alice
req-000001 policy < hop:C [ok] chains=0 rejected=0
req-000001 admission < hop:C [ok] granted=True handle=RES-C-000003
req-000001 delegation < hop:C [ok] chains=0 verified=0
req-000001 reply < hop:C [ok] sim_latency_s=0.005
req-000001 reply < hop:B [ok] sim_latency_s=0.005
req-000001 reply < hop:A [ok] sim_latency_s=0.001
"""),
    "soft_state_sweep": _lines("""
req-000001 reserve < - [ok] destination=B granted=True messages=4 rate_mbps=10.0 sim_latency_s=0.014000000000000002 source=A user=/O=Grid/OU=A/CN=Alice
req-000001 route < reserve [ok] hops=2
req-000001 prepare < reserve [ok] delegations=0
req-000001 submit < reserve [ok] sim_latency_s=0.001
req-000001 hop < reserve [ok] bb=/O=Grid/OU=A/CN=BB-A domain=A handle=RES-A-000001
req-000001 verify < hop:A [ok] depth=0 signer=/O=Grid/OU=A/CN=Alice
req-000001 policy < hop:A [ok] chains=0 rejected=0
req-000001 admission < hop:A [ok] granted=True handle=RES-A-000001
req-000001 forward < hop:A [ok] downstream=B sim_latency_s=0.005
req-000001 hop < hop:A [ok] bb=/O=Grid/OU=B/CN=BB-B domain=B handle=RES-B-000002
req-000001 verify < hop:B [ok] depth=1 signer=/O=Grid/OU=A/CN=Alice
req-000001 policy < hop:B [ok] chains=0 rejected=0
req-000001 admission < hop:B [ok] granted=True handle=RES-B-000002
req-000001 delegation < hop:B [ok] chains=0 verified=0
req-000001 reply < hop:B [ok] sim_latency_s=0.005
req-000001 reply < hop:A [ok] sim_latency_s=0.001
sweep-000001 sweep < - [ok] domain=A reclaimed=1
sweep-000002 sweep < - [ok] domain=B reclaimed=1
"""),
    "tunnel_fallback": _lines("""
req-000001 reserve < - [ok] destination=D granted=True messages=8 rate_mbps=50.0 sim_latency_s=0.036000000000000004 source=A user=/O=Grid/OU=A/CN=Alice
req-000001 route < reserve [ok] hops=4
req-000001 prepare < reserve [ok] delegations=0
req-000001 submit < reserve [ok] sim_latency_s=0.001
req-000001 hop < reserve [ok] bb=/O=Grid/OU=A/CN=BB-A domain=A handle=RES-A-000001
req-000001 verify < hop:A [ok] depth=0 signer=/O=Grid/OU=A/CN=Alice
req-000001 policy < hop:A [ok] chains=0 rejected=0
req-000001 admission < hop:A [ok] granted=True handle=RES-A-000001
req-000001 forward < hop:A [ok] downstream=B sim_latency_s=0.005
req-000001 hop < hop:A [ok] bb=/O=Grid/OU=B/CN=BB-B domain=B handle=RES-B-000002
req-000001 verify < hop:B [ok] depth=1 signer=/O=Grid/OU=A/CN=Alice
req-000001 policy < hop:B [ok] chains=0 rejected=0
req-000001 admission < hop:B [ok] granted=True handle=RES-B-000002
req-000001 forward < hop:B [ok] downstream=C sim_latency_s=0.005
req-000001 hop < hop:B [ok] bb=/O=Grid/OU=C/CN=BB-C domain=C handle=RES-C-000003
req-000001 verify < hop:C [ok] depth=2 signer=/O=Grid/OU=A/CN=Alice
req-000001 policy < hop:C [ok] chains=0 rejected=0
req-000001 admission < hop:C [ok] granted=True handle=RES-C-000003
req-000001 forward < hop:C [ok] downstream=D sim_latency_s=0.005
req-000001 hop < hop:C [ok] bb=/O=Grid/OU=D/CN=BB-D domain=D handle=RES-D-000004
req-000001 verify < hop:D [ok] depth=3 signer=/O=Grid/OU=A/CN=Alice
req-000001 policy < hop:D [ok] chains=0 rejected=0
req-000001 admission < hop:D [ok] granted=True handle=RES-D-000004
req-000001 delegation < hop:D [ok] chains=0 verified=0
req-000001 reply < hop:D [ok] sim_latency_s=0.005
req-000001 reply < hop:C [ok] sim_latency_s=0.005
req-000001 reply < hop:B [ok] sim_latency_s=0.005
req-000001 reply < hop:A [ok] sim_latency_s=0.001
req-000002 tunnel_fallback < - [ok] cause=fault injection: message lost on link A|D (op 0) link=req-000003 tunnel=TUN-0001
req-000003 reserve < - [ok] destination=D granted=True messages=8 rate_mbps=10.0 sim_latency_s=0.036000000000000004 source=A user=/O=Grid/OU=A/CN=Alice
req-000003 route < reserve [ok] hops=4
req-000003 prepare < reserve [ok] delegations=0
req-000003 submit < reserve [ok] sim_latency_s=0.001
req-000003 hop < reserve [ok] bb=/O=Grid/OU=A/CN=BB-A domain=A handle=RES-A-000005
req-000003 verify < hop:A [ok] depth=0 signer=/O=Grid/OU=A/CN=Alice
req-000003 policy < hop:A [ok] chains=0 rejected=0
req-000003 admission < hop:A [ok] granted=True handle=RES-A-000005
req-000003 forward < hop:A [ok] downstream=B sim_latency_s=0.005
req-000003 hop < hop:A [ok] bb=/O=Grid/OU=B/CN=BB-B domain=B handle=RES-B-000006
req-000003 verify < hop:B [ok] depth=1 signer=/O=Grid/OU=A/CN=Alice
req-000003 policy < hop:B [ok] chains=0 rejected=0
req-000003 admission < hop:B [ok] granted=True handle=RES-B-000006
req-000003 forward < hop:B [ok] downstream=C sim_latency_s=0.005
req-000003 hop < hop:B [ok] bb=/O=Grid/OU=C/CN=BB-C domain=C handle=RES-C-000007
req-000003 verify < hop:C [ok] depth=2 signer=/O=Grid/OU=A/CN=Alice
req-000003 policy < hop:C [ok] chains=0 rejected=0
req-000003 admission < hop:C [ok] granted=True handle=RES-C-000007
req-000003 forward < hop:C [ok] downstream=D sim_latency_s=0.005
req-000003 hop < hop:C [ok] bb=/O=Grid/OU=D/CN=BB-D domain=D handle=RES-D-000008
req-000003 verify < hop:D [ok] depth=3 signer=/O=Grid/OU=A/CN=Alice
req-000003 policy < hop:D [ok] chains=0 rejected=0
req-000003 admission < hop:D [ok] granted=True handle=RES-D-000008
req-000003 delegation < hop:D [ok] chains=0 verified=0
req-000003 reply < hop:D [ok] sim_latency_s=0.005
req-000003 reply < hop:C [ok] sim_latency_s=0.005
req-000003 reply < hop:B [ok] sim_latency_s=0.005
req-000003 reply < hop:A [ok] sim_latency_s=0.001
"""),
    "unsolicited_ingress": _lines("""
"""),
}


@pytest.mark.parametrize("scenario", [
    granted_four_domains,
    policy_denial_at_transit_hop,
    dead_broker,
    undeliverable_approval,
    tampered_copy_retransmitted,
    repository_mode,
    soft_state_sweep,
    tunnel_fallback,
    unsolicited_ingress,
], ids=lambda scenario: scenario.__name__)
def test_span_tree_shape(scenario):
    assert traced(scenario) == EXPECTED[scenario.__name__]
