"""Scale tests: long domain chains and many concurrent reservations."""

import pytest

from repro.core.testbed import build_linear_testbed
from repro.crypto.truststore import TrustPolicy


class TestLongChains:
    def test_thirty_domain_chain(self):
        """A 30-domain path: 29-deep introduction chain, 30 local
        admissions, full capability-free verification at every hop."""
        domains = [f"D{i:02d}" for i in range(30)]
        tb = build_linear_testbed(
            domains, hosts_per_domain=1,
            trust_policy=TrustPolicy(
                max_introduction_depth=40, require_ca_issued_peers=False
            ),
        )
        user = tb.add_user("D00", "Alice")
        outcome = tb.reserve(
            user, source="D00", destination="D29", bandwidth_mbps=1.0
        )
        assert outcome.granted
        assert len(outcome.handles) == 30
        assert outcome.verified.depth == 29
        assert outcome.messages == 60
        # Wire size grows linearly, roughly 30x a single layer.
        assert outcome.final_rar.wire_size() < 80_000

    def test_chain_longer_than_nesting_limit_rejected(self):
        """RAR nesting is bounded at 64 layers as a loop guard."""
        from repro.core.messages import unwrap_rar_layers
        from repro.core.envelope import chain_link_digest, seal
        from repro.crypto.dn import DN
        from repro.crypto.keys import SimulatedScheme
        import random

        kp = SimulatedScheme().generate(random.Random(1))
        dn = DN.make("Grid", "X", "Y")
        env = seal({"type": "rar"}, signer=dn, key=kp.private)
        for _ in range(70):
            env = seal({"type": "rar", "inner_rar": env,
                        "inner_digest": chain_link_digest(env)},
                       signer=dn, key=kp.private)
        from repro.errors import SignallingError

        with pytest.raises(SignallingError, match="depth"):
            unwrap_rar_layers(env)


class TestManyReservations:
    def test_two_hundred_reservations_steady_state(self):
        tb = build_linear_testbed(
            ["A", "B", "C"], hosts_per_domain=1, inter_capacity_mbps=10_000.0
        )
        alice = tb.add_user("A", "Alice")
        outcomes = []
        for i in range(200):
            o = tb.reserve(
                alice, source="A", destination="C", bandwidth_mbps=1.0,
                start=float(i), duration=100.0,
            )
            assert o.granted
            outcomes.append(o)
        assert len(tb.brokers["B"].reservations.all()) == 200
        # Cancel half; capacity must track exactly.
        for o in outcomes[::2]:
            tb.hop_by_hop.cancel(o)
        load = tb.brokers["B"].admission.schedule("intra").load_at(150.0)
        expected = sum(
            1.0 for i, o in enumerate(outcomes)
            if i % 2 == 1 and o.verified.request.start <= 150.0
            and o.verified.request.end > 150.0
        )
        assert load == pytest.approx(expected)
