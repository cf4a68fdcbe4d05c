"""Adversarial survivability: honest-traffic retention, defenses off vs on.

Not a paper figure — the robustness experiment the paper's single
misreservation demo (Figure 4) implies but never runs: each attack
persona is mixed with the honest workload at its default attack
fraction (>= 50% of all signals), once against the open fabric and once
with the admission-plane defenses armed.  The claimed shape, asserted
here:

* defenses **off**, honest admission collapses below 50% for every
  persona (capacity theft, verification-queue drain, or both);
* defenses **on**, honest traffic retains >= 90% admission and meets
  its latency/denial/breaker SLOs, while the attack is rejected at the
  cheap pre-verification gate;
* every replayed envelope is rejected *before* signature verification.
"""

import pytest

from repro.workloads.attackers import PERSONAS
from repro.workloads.survivability import (
    SurvivabilitySpec,
    run_survivability_pair,
)

SEED = 2001
#: The canonical horizon: long enough for the flood's adaptive fill to
#: complete and the off-state collapse to dominate the run.
HORIZON_S = 120.0


def run_pair(persona: str):
    spec = SurvivabilitySpec(
        persona=persona, seed=SEED, horizon_s=HORIZON_S,
    )
    return run_survivability_pair(spec)


@pytest.mark.parametrize("persona", sorted(PERSONAS))
def test_survivability_pair(persona, benchmark, report):
    off, on = benchmark.pedantic(
        run_pair, args=(persona,), rounds=1, iterations=1
    )
    assert off.attack_fraction >= 0.5
    assert off.honest_offered == on.honest_offered > 0
    # The attack hurts when undefended...
    assert off.honest_admission_rate < 0.5, (
        f"{persona}: defenses-off honest admission "
        f"{off.honest_admission_rate:.2f} should collapse below 50%"
    )
    # ...and the defenses restore honest service.
    assert on.honest_admission_rate >= 0.9, (
        f"{persona}: defenses-on honest admission "
        f"{on.honest_admission_rate:.2f} should stay above 90%"
    )
    assert on.slo_report is not None and on.slo_report.ok
    assert on.attacker["gate_rejected"] > 0
    report.append(
        f"{persona:<18s} f={off.attack_fraction:.2f}  "
        f"honest admission off={off.honest_admission_rate:5.1%} "
        f"on={on.honest_admission_rate:5.1%}  "
        f"p99 off={off.honest_p99_latency_s:6.2f}s "
        f"on={on.honest_p99_latency_s:5.2f}s"
    )


def test_replays_rejected_before_verification(benchmark, report):
    off, on = benchmark.pedantic(
        run_pair, args=("byzantine-broker",), rounds=1, iterations=1
    )
    sent = on.attacker["replays_sent"]
    rejected = on.attacker["replays_rejected_before_verification"]
    assert sent > 0
    assert rejected == sent, (
        f"{sent - rejected} replayed envelope(s) reached verification"
    )
    # Undefended, the same replays all cost full verification walks.
    assert off.attacker["replays_rejected_before_verification"] == 0
    report.append(
        f"replay guard: {rejected}/{sent} replays rejected "
        "before signature verification (defenses on)"
    )
