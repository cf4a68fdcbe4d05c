"""Tests for tunnels: aggregate reservations with end-domain-only flows."""

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from repro.core.testbed import build_linear_testbed
from repro.errors import HandshakeError, TunnelError
from tests.bb import _oracle


@pytest.fixture()
def testbed():
    return build_linear_testbed(["A", "B", "C", "D"])


@pytest.fixture()
def alice(testbed):
    return testbed.add_user("A", "Alice")


@pytest.fixture()
def tunnel(testbed, alice):
    request = testbed.make_request(
        source="A", destination="D", bandwidth_mbps=50.0, duration=7200.0
    )
    tunnel, outcome = testbed.tunnels.establish(alice, request)
    assert outcome.granted
    return tunnel


class TestEstablishment:
    def test_tunnel_created_with_handles(self, tunnel):
        assert tunnel.capacity_mbps == 50.0
        assert set(tunnel.handles) == {"A", "B", "C", "D"}
        assert tunnel.owner.common_name == "Alice"

    def test_direct_channel_opened(self, testbed, tunnel):
        """The identity information propagated by the signalling protocol
        lets the non-adjacent end domains open a direct channel."""
        assert tunnel.direct_channel is not None
        assert testbed.channels.has(
            testbed.brokers["A"].dn, testbed.brokers["D"].dn
        )

    def test_denied_tunnel_returns_none(self, testbed, alice):
        testbed.set_policy("C", "Return DENY")
        request = testbed.make_request(
            source="A", destination="D", bandwidth_mbps=50.0
        )
        tunnel, outcome = testbed.tunnels.establish(alice, request)
        assert tunnel is None
        assert not outcome.granted

    def test_establishment_books_capacity(self, testbed, tunnel):
        assert testbed.brokers["B"].admission.schedule("intra").load_at(1.0) == 50.0


class TestFlowAllocation:
    def test_allocate_within_capacity(self, testbed, alice, tunnel):
        alloc, latency, messages = testbed.tunnels.allocate_flow(
            tunnel.tunnel_id, alice, 10.0
        )
        assert alloc.rate_mbps == 10.0
        assert messages == 4
        assert latency > 0
        assert tunnel.allocated_mbps(tunnel.start, tunnel.end) == 10.0

    def test_intermediate_domains_not_contacted(self, testbed, alice, tunnel):
        """The scalability property: per-flow signalling touches only the
        end domains."""
        bb_b, bb_c = testbed.brokers["B"], testbed.brokers["C"]
        inter_channels = [
            testbed.channels.between(testbed.brokers["A"].dn, bb_b.dn),
            testbed.channels.between(bb_b.dn, bb_c.dn),
            testbed.channels.between(bb_c.dn, testbed.brokers["D"].dn),
        ]
        before = [c.messages for c in inter_channels]
        for _ in range(10):
            testbed.tunnels.allocate_flow(tunnel.tunnel_id, alice, 1.0)
        after = [c.messages for c in inter_channels]
        assert before == after

    def test_headroom_enforced(self, testbed, alice, tunnel):
        testbed.tunnels.allocate_flow(tunnel.tunnel_id, alice, 45.0)
        with pytest.raises(TunnelError, match="headroom"):
            testbed.tunnels.allocate_flow(tunnel.tunnel_id, alice, 10.0)
        # 5 Mb/s still fits.
        testbed.tunnels.allocate_flow(tunnel.tunnel_id, alice, 5.0)

    def test_time_disjoint_allocations_share(self, testbed, alice, tunnel):
        mid = (tunnel.start + tunnel.end) / 2
        testbed.tunnels.allocate_flow(
            tunnel.tunnel_id, alice, 50.0, start=tunnel.start, end=mid
        )
        testbed.tunnels.allocate_flow(
            tunnel.tunnel_id, alice, 50.0, start=mid, end=tunnel.end
        )

    def test_release_restores_headroom(self, testbed, alice, tunnel):
        alloc, _, _ = testbed.tunnels.allocate_flow(tunnel.tunnel_id, alice, 50.0)
        testbed.tunnels.release_flow(tunnel.tunnel_id, alloc.allocation_id)
        assert tunnel.headroom(tunnel.start, tunnel.end) == 50.0
        with pytest.raises(TunnelError):
            testbed.tunnels.release_flow(tunnel.tunnel_id, alloc.allocation_id)

    def test_authorization_required(self, testbed, tunnel):
        bob = testbed.add_user("A", "Bob")
        with pytest.raises(TunnelError, match="not authorized"):
            testbed.tunnels.allocate_flow(tunnel.tunnel_id, bob, 1.0)
        testbed.tunnels.authorize(tunnel.tunnel_id, bob.dn)
        alloc, _, _ = testbed.tunnels.allocate_flow(tunnel.tunnel_id, bob, 1.0)
        assert alloc.owner == bob.dn

    def test_failed_handshake_holds_no_capacity(self, testbed, tunnel):
        """A user the source BB cannot open a channel with gets no slice:
        headroom is still checked first, and nothing stays booked."""
        carol = testbed.add_user("C", "Carol")
        testbed.tunnels.authorize(tunnel.tunnel_id, carol.dn)
        with pytest.raises(TunnelError, match="headroom"):
            testbed.tunnels.allocate_flow(tunnel.tunnel_id, carol, 60.0)
        with pytest.raises(HandshakeError):
            testbed.tunnels.allocate_flow(tunnel.tunnel_id, carol, 10.0)
        assert tunnel.headroom(tunnel.start, tunnel.end) == 50.0

    def test_window_enforced(self, testbed, alice, tunnel):
        with pytest.raises(TunnelError, match="window"):
            testbed.tunnels.allocate_flow(
                tunnel.tunnel_id, alice, 1.0, start=tunnel.end, end=tunnel.end + 10
            )

    def test_invalid_rate(self, testbed, alice, tunnel):
        with pytest.raises(TunnelError, match="positive"):
            testbed.tunnels.allocate_flow(tunnel.tunnel_id, alice, 0.0)

    def test_unknown_tunnel(self, testbed, alice):
        with pytest.raises(TunnelError, match="unknown"):
            testbed.tunnels.allocate_flow("TUN-9999", alice, 1.0)


class TestScalability:
    def test_tunnel_beats_per_flow_messages(self, testbed, alice):
        """C2: for N flows over k domains, per-flow hop-by-hop signalling
        costs 2k messages each; with a tunnel each flow costs 4."""
        k = 4  # domains
        n = 20  # flows
        request = testbed.make_request(
            source="A", destination="D", bandwidth_mbps=40.0
        )
        tunnel, outcome = testbed.tunnels.establish(alice, request)
        setup_messages = outcome.messages
        per_flow_messages = 0
        for _ in range(n):
            _, _, msgs = testbed.tunnels.allocate_flow(tunnel.tunnel_id, alice, 1.0)
            per_flow_messages += msgs
        tunnel_total = setup_messages + per_flow_messages

        # Per-flow baseline: each flow is its own hop-by-hop reservation.
        baseline_total = 0
        for _ in range(n):
            o = testbed.reserve(
                alice, source="A", destination="D", bandwidth_mbps=1.0
            )
            assert o.granted
            baseline_total += o.messages
        assert tunnel_total < baseline_total
        assert per_flow_messages == 4 * n
        assert baseline_total == 2 * k * n

    def test_teardown_releases_aggregate(self, testbed, alice):
        request = testbed.make_request(
            source="A", destination="D", bandwidth_mbps=50.0
        )
        tunnel, _ = testbed.tunnels.establish(alice, request)
        testbed.tunnels.teardown(tunnel.tunnel_id)
        assert testbed.brokers["B"].admission.schedule("intra").load_at(1.0) == 0.0
        with pytest.raises(TunnelError):
            testbed.tunnels.get(tunnel.tunnel_id)


# A step allocates a slice over one window of a quarter-hour grid (with
# the direct end-domain link up or cut) twice as often as it releases
# one.  Four 20 Mb/s slices overfill the 50 Mb/s tunnel, so sequences
# mix grants, refusals and fallbacks.
_GRID = [0.0, 900.0, 1800.0, 2700.0, 3600.0]
_WINDOWS = [(a, b) for a in _GRID for b in _GRID if a < b]
_ALLOCATE = st.tuples(
    st.sampled_from(_WINDOWS), st.sampled_from([5.0, 12.5, 20.0, 30.0]),
    st.booleans(),
)
_RELEASE = st.integers(min_value=0, max_value=20)


def _drop_everything(message):
    return None


@seed(2001)
@settings(max_examples=40, deadline=None)
@given(st.lists(st.one_of(_ALLOCATE, _ALLOCATE, _RELEASE), max_size=12))
def test_tunnel_matches_point_sweep_oracle(steps):
    """After every allocate or release, the tunnel's load and headroom
    over any window are the point sweep's over its live slices; a flow
    refused for headroom sends no message, and a flow whose direct
    signalling fails holds no tunnel capacity."""
    testbed = build_linear_testbed(["A", "B", "C"])
    alice = testbed.add_user("A", "Alice")
    tunnel, _ = testbed.tunnels.establish(alice, testbed.make_request(
        source="A", destination="C", bandwidth_mbps=50.0,
    ))
    direct = tunnel.direct_channel
    for step in steps:
        if isinstance(step, int):
            if tunnel.allocations:
                ids = sorted(tunnel.allocations)
                testbed.tunnels.release_flow(
                    tunnel.tunnel_id, ids[step % len(ids)]
                )
        else:
            (start, end), rate, cut = step
            spare = tunnel.capacity_mbps - _oracle.tunnel_allocated(
                tunnel.allocations.values(), start, end
            )
            before = testbed.channels.total_messages()
            direct.tamper_hook = _drop_everything if cut else None
            try:
                if rate > spare + 1e-9:
                    with pytest.raises(TunnelError, match="headroom"):
                        testbed.tunnels.allocate_flow(
                            tunnel.tunnel_id, alice, rate,
                            start=start, end=end,
                        )
                    assert testbed.channels.total_messages() == before
                else:
                    try:
                        alloc, _, _ = testbed.tunnels.allocate_flow(
                            tunnel.tunnel_id, alice, rate,
                            start=start, end=end,
                        )
                    except TunnelError as exc:
                        # Only the per-flow fallback can refuse a flow
                        # that fits the tunnel.
                        assert cut and "fallback was denied" in str(exc)
                    else:
                        assert alloc.via == ("per-flow" if cut else "tunnel")
            finally:
                direct.tamper_hook = None
        live = tunnel.allocations.values()
        for window in _WINDOWS:
            expected = _oracle.tunnel_allocated(live, *window)
            assert tunnel.allocated_mbps(*window) == pytest.approx(
                expected, abs=1e-9
            )
            assert tunnel.headroom(*window) == pytest.approx(
                tunnel.capacity_mbps - expected, abs=1e-9
            )
