"""Coverage for remaining public surface: channel accounting, agent
rollback control, codec over replies, testbed conveniences."""

import pytest

from repro.core.codec import from_wire, to_wire
from repro.core.testbed import build_linear_testbed
from repro.errors import SignallingError


@pytest.fixture()
def testbed():
    return build_linear_testbed(["A", "B", "C"])


@pytest.fixture()
def alice(testbed):
    return testbed.add_user("A", "Alice")


class TestChannelAccounting:
    def test_message_and_byte_counters(self, testbed, alice):
        testbed.reserve(alice, source="A", destination="C", bandwidth_mbps=1.0)
        ab = testbed.channels.between(
            testbed.brokers["A"].dn, testbed.brokers["B"].dn
        )
        assert ab.messages == 2  # request down, approval up
        assert ab.bytes > 0
        assert testbed.channels.total_messages() == 6
        testbed.channels.reset_counters()
        assert testbed.channels.total_messages() == 0
        assert testbed.channels.total_bytes() == 0

    def test_registry_all(self, testbed):
        assert len(testbed.channels.all()) >= 2


class TestAgentRollbackControl:
    def test_no_rollback_keeps_partial_grants(self, testbed, alice):
        for d in ("B", "C"):
            testbed.introduce_user_to(alice, d)
        testbed.set_policy("C", "Return DENY")
        request = testbed.make_request(
            source="A", destination="C", bandwidth_mbps=10.0
        )
        outcome = testbed.end_to_end_agent.reserve(
            alice, request, concurrent=True, rollback_on_failure=False
        )
        assert not outcome.granted
        # A and B kept their grants (the accidental misreservation case).
        assert set(outcome.handles) == {"A", "B"}
        assert testbed.brokers["B"].admission.schedule("intra").load_at(1.0) == 10.0
        testbed.end_to_end_agent.release(outcome)


class TestCodecOverReplies:
    def test_approval_roundtrip(self, testbed, alice):
        outcome = testbed.reserve(
            alice, source="A", destination="C", bandwidth_mbps=1.0
        )
        back = from_wire(to_wire(outcome.approval))
        assert back == outcome.approval
        from repro.core.tracing import trace_approval_chain

        assert trace_approval_chain(back) == trace_approval_chain(
            outcome.approval
        )

    def test_denial_roundtrip(self, testbed, alice):
        testbed.set_policy("B", "Return DENY")
        outcome = testbed.reserve(
            alice, source="A", destination="C", bandwidth_mbps=1.0
        )
        # Rebuild a denial envelope and round-trip it.
        from repro.core.messages import make_denial

        bb = testbed.brokers["B"]
        denial = make_denial(
            domain="B", reason=outcome.denial_reason,
            bb=bb.dn, bb_key=bb.keypair.private,
        )
        back = from_wire(to_wire(denial))
        assert back == denial
        assert back.verify(bb.keypair.public)


class TestTestbedConveniences:
    def test_make_request_host_defaults(self, testbed):
        request = testbed.make_request(
            source="A", destination="C", bandwidth_mbps=1.0
        )
        assert request.source_host == "h0.A"
        assert request.destination_host == "h0.C"

    def test_unknown_domain_user(self, testbed):
        with pytest.raises(SignallingError):
            testbed.add_user("Z", "Nobody")

    def test_set_policy_with_engine_object(self, testbed, alice):
        from repro.policy.engine import Decision, PolicyEngine, Return

        testbed.set_policy(
            "B", PolicyEngine([Return(Decision.DENY, "custom")], name="B")
        )
        outcome = testbed.reserve(
            alice, source="A", destination="C", bandwidth_mbps=1.0
        )
        assert not outcome.granted
        assert outcome.denial_reason == "custom"

    def test_default_policy_string(self):
        tb = build_linear_testbed({"A": "Return DENY", "B": "Return DENY"})
        user = tb.add_user("A", "U")
        outcome = tb.reserve(user, source="A", destination="B",
                             bandwidth_mbps=1.0)
        assert not outcome.granted

    def test_intra_capacity_derived_from_topology(self, testbed):
        # linear_domain_chain uses 1000 Mb/s intra links.
        assert (
            testbed.brokers["A"].admission.schedule("intra").capacity_mbps
            == 1000.0
        )


class TestSmallSurface:
    def test_channel_registry_add(self, testbed, alice):
        from repro.core.channel import ChannelRegistry, SecureChannel

        registry = ChannelRegistry()
        channel = SecureChannel(alice, testbed.brokers["A"])
        registry.add(channel)
        assert registry.between(alice.dn, testbed.brokers["A"].dn) is channel

    def test_dscp_packs_standalone(self):
        from repro.core.codec import from_wire, to_wire
        from repro.net.packet import DSCP

        assert from_wire(to_wire(DSCP.AF42)) is DSCP.AF42

    def test_cli_plain_agent(self, capsys):
        """The CLI provisions the out-of-band trust Approach 1 needs, so
        the plain sequential agent succeeds."""
        from repro.cli import main

        rc = main(["reserve", "--approach", "agent"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "granted  : True" in out
