"""Tests for the attack personas (repro.workloads.attackers)."""

import random
import zlib

import pytest

from repro.bb.defense import DefensePolicy
from repro.core.testbed import build_linear_testbed
from repro.errors import SimulationError
from repro.workloads.attackers import (
    ByzantineBrokerAttacker,
    FloodAttacker,
    PERSONAS,
    TunnelSquatter,
    make_persona,
)


def _rng(tag: str) -> random.Random:
    return random.Random(zlib.crc32(tag.encode()))


def _run(persona_name: str, *, armed: bool, fires: int = 30,
         gap_s: float = 0.5, seed_tag: str = "t") -> dict[str, int]:
    testbed = build_linear_testbed(["A", "B", "C"])
    if armed:
        testbed.arm_defenses(DefensePolicy(
            peer_burst=4.0, peer_rate_per_s=0.5, per_user_quota=3,
        ))
    persona = make_persona(
        persona_name, testbed, victim="B", source="A",
        rng=_rng(seed_tag),
    )
    persona.prepare(0.0)
    for i in range(fires):
        persona.fire(i * gap_s)
    return persona.stats.to_dict()


class TestRegistry:
    def test_all_personas_registered(self):
        assert set(PERSONAS) == {
            "flood", "byzantine-broker", "tunnel-squatter",
        }
        assert PERSONAS["flood"] is FloodAttacker
        assert PERSONAS["byzantine-broker"] is ByzantineBrokerAttacker
        assert PERSONAS["tunnel-squatter"] is TunnelSquatter

    def test_unknown_persona_is_typed_error(self):
        testbed = build_linear_testbed(["A", "B"])
        with pytest.raises(SimulationError, match="unknown attack persona"):
            make_persona("ddos", testbed, victim="B", source="A",
                         rng=_rng("x"))

    def test_unknown_victim_is_typed_error(self):
        testbed = build_linear_testbed(["A", "B"])
        with pytest.raises(SimulationError, match="unknown victim"):
            FloodAttacker(testbed, victim="Z", source="A", rng=_rng("x"))

    def test_attack_fractions_are_valid(self):
        for cls in PERSONAS.values():
            assert 0.0 < cls.default_attack_fraction < 1.0


class TestDeterminism:
    @pytest.mark.parametrize("name", sorted(PERSONAS))
    def test_same_seed_same_stats(self, name):
        first = _run(name, armed=True, seed_tag="same")
        second = _run(name, armed=True, seed_tag="same")
        assert first == second

    def test_byzantine_payloads_differ_across_seeds(self):
        # The RNG actually shapes the attack (truncation points, junk
        # bytes), so different seeds must be able to diverge somewhere;
        # the cheap observable proof is that the same seed reproduces
        # byte-identical behaviour while the persona still consumed RNG.
        testbed = build_linear_testbed(["A", "B"])
        rng = _rng("payloads")
        state_before = rng.getstate()
        persona = ByzantineBrokerAttacker(
            testbed, victim="B", source="A", rng=rng)
        persona.prepare(0.0)
        for i in range(7):
            persona.fire(float(i))
        assert rng.getstate() != state_before


class TestFlood:
    def test_defenseless_flood_exhausts_capacity(self):
        stats = _run("flood", armed=False, fires=40, gap_s=1.0)
        assert stats["admitted"] >= 3
        # The adaptive ladder keeps asking until capacity denies even
        # 1 Mb/s crumbs.
        assert stats["denied"] > 0
        assert stats["gate_rejected"] == 0

    def test_quota_caps_live_grants(self):
        stats = _run("flood", armed=True, fires=40, gap_s=3.0)
        assert stats["admitted"] <= 3
        assert stats["gate_rejected"] > 0


class TestByzantine:
    def test_replays_all_rejected_pre_verification_when_armed(self):
        testbed = build_linear_testbed(["A", "B"])
        testbed.arm_defenses(DefensePolicy(
            peer_burst=1000.0, peer_rate_per_s=1000.0,
        ))
        persona = ByzantineBrokerAttacker(
            testbed, victim="B", source="A", rng=_rng("byz"))
        persona.prepare(0.0)
        before = testbed.hop_by_hop.ingress_verifications
        for i in range(35):
            persona.fire(float(i))
        stats = persona.stats
        assert stats.replays_sent > 0
        assert (stats.replays_rejected_before_verification
                == stats.replays_sent)
        # The only verification spent was (at most) the replay seed.
        assert testbed.hop_by_hop.ingress_verifications <= before + 1

    def test_malformed_spray_never_accepted(self):
        stats = _run("byzantine-broker", armed=False, fires=21, gap_s=0.1)
        assert stats["admitted"] == 0
        assert stats["denied"] + stats["gate_rejected"] == 21


class TestSquatter:
    def test_squats_never_succeed(self):
        for armed in (False, True):
            stats = _run("tunnel-squatter", armed=armed, fires=15,
                         gap_s=0.5)
            assert stats["squats_succeeded"] == 0
        # Defenseless, every claim costs the victim processing.
        stats = _run("tunnel-squatter", armed=False, fires=15, gap_s=0.5)
        assert stats["squats_attempted"] == 15
