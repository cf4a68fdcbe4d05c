"""The runtime injector: op counting, each fault kind, channel wiring.

The channel-integration tests double as the regression suite for the
accounting contract: a dropped message is *not* a delivered message, so
``SecureChannel.transmit`` must raise and leave ``messages``/``bytes``
untouched while bumping ``drops``.
"""

import pytest

from repro.core.testbed import build_linear_testbed
from repro.errors import (
    BrokerUnavailableError,
    MessageDroppedError,
    PolicyUnavailableError,
    RepositoryUnavailableError,
)
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultKind, FaultPlan, FaultSpec, TargetKind


def injector_for(*specs):
    return FaultInjector(FaultPlan(tuple(specs), seed=1))


class _Payload:
    """Duck-typed signed payload for CORRUPT faults."""

    def __init__(self):
        self.tampered = None

    def with_tampered_field(self, field, value):
        clone = _Payload()
        clone.tampered = (field, value)
        return clone


class TestOpCounting:
    def test_counters_are_per_target(self):
        injector = injector_for()
        injector.channel_transmit("A|B", "m")
        injector.channel_transmit("A|B", "m")
        injector.channel_transmit("B|C", "m")
        injector.broker_op("A")
        assert injector.op_count(TargetKind.CHANNEL, "A|B") == 2
        assert injector.op_count(TargetKind.CHANNEL, "B|C") == 1
        assert injector.op_count(TargetKind.BROKER, "A") == 1
        assert injector.op_count(TargetKind.BROKER, "B") == 0

    def test_window_selects_exactly_one_op(self):
        spec = FaultSpec(
            TargetKind.CHANNEL, "A|B", FaultKind.DROP, start_op=1, ops=1
        )
        injector = injector_for(spec)
        injector.channel_transmit("A|B", "first")  # op 0: clean
        with pytest.raises(MessageDroppedError):
            injector.channel_transmit("A|B", "second")  # op 1: dropped
        injector.channel_transmit("A|B", "third")  # op 2: clean again
        assert injector.triggered == [(spec, 1)]

    def test_persistent_fault_fires_forever(self):
        spec = FaultSpec(
            TargetKind.BROKER, "A", FaultKind.CRASH, start_op=0, ops=None
        )
        injector = injector_for(spec)
        for _ in range(5):
            with pytest.raises(BrokerUnavailableError):
                injector.broker_op("A")
        assert len(injector.triggered) == 5


class TestFaultKinds:
    def test_delay_returns_extra_latency(self):
        injector = injector_for(
            FaultSpec(
                TargetKind.CHANNEL, "A|B", FaultKind.DELAY, delay_s=0.75
            )
        )
        message, delay = injector.channel_transmit("A|B", "m")
        assert message == "m"
        assert delay == 0.75

    def test_corrupt_tampering_is_flagged(self):
        injector = injector_for(
            FaultSpec(TargetKind.CHANNEL, "A|B", FaultKind.CORRUPT)
        )
        out, delay = injector.channel_transmit("A|B", _Payload())
        assert delay == 0.0
        assert out.tampered is not None
        assert out.tampered[0] == "capability_certs"

    def test_corrupt_tolerates_untamperable_payloads(self):
        injector = injector_for(
            FaultSpec(TargetKind.CHANNEL, "A|B", FaultKind.CORRUPT)
        )
        out, _ = injector.channel_transmit("A|B", "plain string")
        assert out == "plain string"

    def test_policy_and_repository_outages(self):
        injector = injector_for(
            FaultSpec(TargetKind.POLICY, "B", FaultKind.TIMEOUT),
            FaultSpec(TargetKind.REPOSITORY, "ldap", FaultKind.UNAVAILABLE),
        )
        with pytest.raises(PolicyUnavailableError, match="timed out"):
            injector.policy_op("B")
        with pytest.raises(RepositoryUnavailableError, match="unavailable"):
            injector.repository_op("ldap")
        injector.policy_op("B")  # window over: healthy again


class TestChannelIntegration:
    @pytest.fixture()
    def testbed(self):
        return build_linear_testbed(["A", "B"])

    @pytest.fixture()
    def channel(self, testbed):
        return testbed.channels.between(
            testbed.brokers["A"].dn, testbed.brokers["B"].dn
        )

    def test_drop_fault_raises_and_does_not_count_delivery(
        self, testbed, channel
    ):
        testbed.attach_injector(
            injector_for(
                FaultSpec(TargetKind.CHANNEL, "A|B", FaultKind.DROP)
            )
        )
        sender = testbed.brokers["A"].dn
        with pytest.raises(MessageDroppedError):
            channel.transmit(sender, "lost")
        assert channel.messages == 0
        assert channel.bytes == 0
        assert channel.drops == 1
        # The window was one op; the next message is delivered and counted.
        channel.transmit(sender, "delivered")
        assert channel.messages == 1
        assert channel.drops == 1

    def test_tamper_hook_drop_raises_too(self, testbed, channel):
        channel.tamper_hook = lambda message: None
        with pytest.raises(MessageDroppedError):
            channel.transmit(testbed.brokers["A"].dn, "swallowed")
        assert channel.messages == 0
        assert channel.drops == 1

    def test_delay_fault_recorded_on_channel(self, testbed, channel):
        testbed.attach_injector(
            injector_for(
                FaultSpec(
                    TargetKind.CHANNEL, "A|B", FaultKind.DELAY, delay_s=0.4
                )
            )
        )
        sender = testbed.brokers["A"].dn
        assert channel.transmit_timed(sender, "late") == ("late", 0.4)
        assert channel.transmit_timed(sender, "on time") == ("on time", 0.0)

    def test_attach_detach_covers_all_channels(self, testbed):
        injector = injector_for()
        testbed.attach_injector(injector)
        assert all(c.injector is injector for c in testbed.channels.all())
        testbed.detach_injector()
        assert all(c.injector is None for c in testbed.channels.all())
