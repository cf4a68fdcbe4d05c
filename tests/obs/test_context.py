"""The one runtime context: scoped stores, fresh campaigns, own ids.

A campaign's ledger is keyed by reservation handle and correlation id,
so it must not depend on what ran earlier in the process, nor on which
observers are watching it.
"""

import contextlib

from repro.core.testbed import build_linear_testbed
from repro.faults.chaos import run_chaos
from repro.obs import audit as obs_audit
from repro.obs import context
from repro.obs import events as obs_events
from repro.obs import metrics as obs_metrics
from repro.obs import spans as obs_spans
from repro.workloads.survivability import SurvivabilitySpec, run_survivability


def test_fresh_context_holds_only_its_stores_and_restores():
    outer = context.current()
    with obs_metrics.use_registry() as registry:
        with context.fresh_context() as inner:
            assert context.current() is inner is not outer
            assert obs_metrics.get_registry() is None
            assert obs_spans.mint_correlation_id() == "req-000001"
        assert obs_metrics.get_registry() is registry
    assert context.current() is outer


def test_use_restores_the_context_it_swapped():
    with context.fresh_context() as campaign:
        with obs_audit.use_ledger() as ledger:
            with context.fresh_context():
                assert obs_audit.get_ledger() is None
            assert campaign.ledger is ledger
        assert campaign.ledger is None


def test_correlation_scope_nests():
    with obs_events.correlation_scope("req-outer"):
        with obs_events.correlation_scope("req-inner"):
            assert obs_events.current_correlation_id() == "req-inner"
        assert obs_events.current_correlation_id() == "req-outer"
    assert obs_events.current_correlation_id() is None


def _reserve_sweep_reserve(*, traced: bool) -> str:
    tracing = obs_spans.use_tracer() if traced else contextlib.nullcontext()
    with context.fresh_context(), obs_audit.use_ledger() as ledger, tracing:
        testbed = build_linear_testbed(["A", "B", "C"], soft_state_ttl_s=60.0)
        user = testbed.add_user("A", "Alice")
        assert testbed.reserve(
            user, source="A", destination="C", bandwidth_mbps=5.0,
        ).granted
        assert testbed.sweep_soft_state(1e9) == 3
        assert testbed.reserve(
            user, source="A", destination="C", bandwidth_mbps=5.0,
        ).granted
    return ledger.to_json()


def test_tracing_does_not_renumber_requests():
    untraced = _reserve_sweep_reserve(traced=False)
    assert '"req-000002"' in untraced
    assert _reserve_sweep_reserve(traced=True) == untraced


def test_a_chaos_campaign_ignores_what_ran_before_it():
    first = run_chaos(seed=7, trials=20).ledger.to_json()
    assert run_chaos(seed=7, trials=20).ledger.to_json() == first


def test_a_survivability_run_ignores_what_ran_before_it():
    spec = SurvivabilitySpec("flood", seed=2001, horizon_s=30)
    alone = run_survivability(spec, defenses_on=True).ledger.to_json()
    run_survivability(spec, defenses_on=False)
    assert run_survivability(spec, defenses_on=True).ledger.to_json() == alone
