"""Tests for scheduled activation of advance reservations."""

import pytest

from repro.bb.reservations import ReservationState
from repro.core.testbed import build_linear_testbed
from repro.errors import SignallingError
from repro.net.packet import DSCP


@pytest.fixture()
def testbed():
    return build_linear_testbed(["A", "B", "C"])


@pytest.fixture()
def alice(testbed):
    return testbed.add_user("A", "Alice")


class TestScheduledActivation:
    def test_claims_at_start_and_expires_at_end(self, testbed, alice):
        outcome = testbed.reserve(
            alice, source="A", destination="C", bandwidth_mbps=10.0,
            start=100.0, duration=200.0,
            attributes=(("flow_id", "adv"),),
        )
        testbed.schedule_activation(outcome)
        resv_b = testbed.brokers["B"].reservations.get(outcome.handles["B"])

        testbed.sim.run(until=99.0)
        assert resv_b.state is ReservationState.GRANTED
        assert testbed.network.flow_policer("core.A", "adv") is None

        testbed.sim.run(until=150.0)
        assert resv_b.state is ReservationState.ACTIVE
        assert testbed.network.flow_policer("core.A", "adv") is not None
        agg = testbed.network.aggregate_policer("edge.C.left", DSCP.EF)
        assert agg is not None and agg.bucket.rate_bps == 10e6

        testbed.sim.run(until=301.0)
        assert resv_b.state is ReservationState.CANCELLED
        assert testbed.network.flow_policer("core.A", "adv") is None
        agg = testbed.network.aggregate_policer("edge.C.left", DSCP.EF)
        assert agg.bucket.rate_bps == 0.0

    def test_capacity_freed_after_expiry(self, testbed, alice):
        outcome = testbed.reserve(
            alice, source="A", destination="C", bandwidth_mbps=150.0,
            start=0.0, duration=100.0,
        )
        testbed.schedule_activation(outcome)
        testbed.sim.run(until=200.0)
        # The window passed; a new full-rate reservation starting now fits.
        second = testbed.reserve(
            alice, source="A", destination="C", bandwidth_mbps=150.0,
            start=200.0, duration=100.0,
        )
        assert second.granted

    def test_window_already_open_claims_immediately(self, testbed, alice):
        testbed.sim.run(until=500.0)
        outcome = testbed.reserve(
            alice, source="A", destination="C", bandwidth_mbps=10.0,
            start=400.0, duration=300.0,
            attributes=(("flow_id", "late"),),
        )
        testbed.schedule_activation(outcome)
        testbed.sim.run(until=501.0)
        assert testbed.network.flow_policer("core.A", "late") is not None

    def test_denied_outcome_rejected(self, testbed, alice):
        testbed.set_policy("B", "Return DENY")
        outcome = testbed.reserve(
            alice, source="A", destination="C", bandwidth_mbps=10.0
        )
        with pytest.raises(SignallingError):
            testbed.schedule_activation(outcome)

    def test_manual_cancel_before_start_is_safe(self, testbed, alice):
        """Cancelling before the window opens must not blow up the
        scheduled claim: the claim event sees the cancelled state and
        does nothing."""
        outcome = testbed.reserve(
            alice, source="A", destination="C", bandwidth_mbps=10.0,
            start=100.0, duration=100.0,
        )
        testbed.schedule_activation(outcome)
        testbed.hop_by_hop.cancel(outcome)
        testbed.sim.run(until=300.0)  # must not raise
        for domain in outcome.path:
            assert outcome.handles[domain] not in (
                testbed.brokers[domain].reservations
            )
