"""Single-fault exhaustiveness (satellite of the robustness tentpole).

One test per cell of the full single-fault matrix over a four-domain
path: every channel (user link and each inter-BB link), every broker,
every policy server, and the certificate repository, each broken in
every valid way at every early operation offset — plus the persistent
variant of every one-shot fault, which forces retry exhaustion and the
denial/unwind paths.  Whatever the protocol decides (grant after
retries, or a clean denial), the safety invariants must hold afterwards:
no capacity leak, no reservation stuck in a live state, and the trial's
decision ledger reconciles against its brokers.
"""

import pytest

from repro.faults.chaos import DOMAINS, REPOSITORY_NAME, _matrix, _run_trial
from repro.obs.audit import DecisionLedger
from repro.obs.context import fresh_context

MATRIX = _matrix()


@pytest.mark.parametrize(
    "spec", MATRIX, ids=[s.describe().replace(" ", "_") for s in MATRIX]
)
def test_single_fault_leaves_no_leak_or_stuck_state(spec):
    ledger = DecisionLedger()
    with fresh_context(ledger=ledger):
        result = _run_trial(0, spec, seed=7, ledger=ledger)
    assert result.violations == ()
    assert result.audit_violations == ()


def test_matrix_is_exhaustive_over_hops_and_phases():
    """Guard against the matrix silently shrinking: every hop's channel,
    broker, and policy server appears, as does the repository."""
    targets = {(s.target_kind.value, s.target) for s in MATRIX}
    assert ("channel", "A|Alice") in targets
    for a, b in zip(DOMAINS, DOMAINS[1:]):
        assert ("channel", "|".join(sorted((a, b)))) in targets
    for domain in DOMAINS:
        assert ("broker", domain) in targets
        assert ("policy", domain) in targets
    assert ("repository", REPOSITORY_NAME) in targets
