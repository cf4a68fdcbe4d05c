"""Unit tests for the audit reconciliation invariants.

One healthy end-to-end run must reconcile clean against every ground
truth (brokers, bookings, billing); each invariant then gets a
synthetic ledger that violates exactly it.
"""

from types import SimpleNamespace

from repro.accounting.billing import TransitiveBilling
from repro.core.testbed import build_linear_testbed
from repro.obs import audit as obs_audit
from repro.obs.audit import DecisionLedger, RecordKind

from tests.obs._records import record


def invariants(violations):
    return [v.invariant for v in violations]


def test_healthy_run_reconciles_clean():
    tb = build_linear_testbed(["A", "B", "C", "D"])
    user = tb.add_user("A", "Alice")
    billing = TransitiveBilling(tb.brokers)
    with obs_audit.use_ledger() as led:
        outcome = tb.reserve(
            user, source="A", destination="D", bandwidth_mbps=10.0,
        )
        assert outcome.granted
        tb.hop_by_hop.claim(outcome)
        billing.bill(outcome)
        # While the reservation is live, each domain holds its row.
        live = obs_audit.reconcile(led, brokers=tb.brokers)
        assert live.ok, live.render()
        assert live.checked_reservations == 4
        assert live.checked_bookings > 0
        tb.hop_by_hop.cancel(outcome)
    report = obs_audit.reconcile(
        led, brokers=tb.brokers, billing_runs=billing.ledger,
    )
    assert report.ok, report.render()
    assert report.checked_records == len(led)
    # Cancelled, the rows left their tables: the ledger holds the history.
    assert report.checked_reservations == 0
    assert report.checked_billing_runs == 1
    assert "OK" in report.render()
    assert report.to_dict()["ok"] is True


def test_admission_without_rule_is_flagged():
    led = DecisionLedger()
    led.record(record(
        RecordKind.ADMIT, domain="A", handle="R1", granted=True,
        correlation_id="c1",
    ))
    assert invariants(obs_audit.reconcile_ledger(led)) == ["policy-evaluation"]


def test_claim_without_admission_is_flagged():
    led = DecisionLedger()
    led.record(record(
        RecordKind.CLAIM, domain="A", handle="R9", correlation_id="c1",
    ))
    assert "claim-provenance" in invariants(obs_audit.reconcile_ledger(led))


def test_granted_outcome_with_missing_hop_is_flagged():
    led = DecisionLedger()
    led.record(record(
        RecordKind.ADMIT, domain="A", handle="R1", granted=True,
        matched_rule="A/0", correlation_id="c1",
    ))
    led.record(record(
        RecordKind.OUTCOME, granted=True, correlation_id="c1", path="A>B",
    ))
    assert "provenance-chain" in invariants(obs_audit.reconcile_ledger(led))


def test_admissions_out_of_travel_order_are_flagged():
    led = DecisionLedger()
    led.record(record(
        RecordKind.ADMIT, domain="B", handle="R2", granted=True,
        matched_rule="B/0", correlation_id="c1",
    ))
    led.record(record(
        RecordKind.ADMIT, domain="A", handle="R1", granted=True,
        matched_rule="A/0", correlation_id="c1",
    ))
    led.record(record(
        RecordKind.OUTCOME, granted=True, correlation_id="c1", path="A>B",
    ))
    assert "provenance-chain" in invariants(obs_audit.reconcile_ledger(led))


def test_denied_outcome_without_denial_record_is_flagged():
    led = DecisionLedger()
    led.record(record(
        RecordKind.OUTCOME, domain="B", granted=False, correlation_id="c1",
        reason="denied by B", path="A>B",
    ))
    assert "provenance-chain" in invariants(obs_audit.reconcile_ledger(led))


def test_denied_run_with_unbalanced_admission_is_flagged():
    led = DecisionLedger()
    led.record(record(
        RecordKind.ADMIT, domain="A", handle="R1", granted=True,
        matched_rule="A/0", correlation_id="c1",
    ))
    led.record(record(
        RecordKind.DENY, domain="B", reason="full", correlation_id="c1",
    ))
    led.record(record(
        RecordKind.OUTCOME, domain="B", granted=False, correlation_id="c1",
        path="A>B",
    ))
    assert "unwind-balance" in invariants(obs_audit.reconcile_ledger(led))

    # The same run with the unwind recorded reconciles clean.
    led.record(record(
        RecordKind.CANCEL, domain="A", handle="R1", correlation_id="c1",
    ))
    assert "unwind-balance" not in invariants(obs_audit.reconcile_ledger(led))


def test_broker_state_unknown_to_ledger_is_flagged():
    tb = build_linear_testbed(["A", "B"])
    user = tb.add_user("A", "Alice")
    # Reserve with the ledger OFF: broker state exists, ledger is empty.
    outcome = tb.reserve(user, source="A", destination="B", bandwidth_mbps=10.0)
    assert outcome.granted
    violations = obs_audit.reconcile_brokers(DecisionLedger(), tb.brokers)
    kinds = invariants(violations)
    assert "table-ledger" in kinds
    assert "booking-ledger" in kinds


def test_unbalanced_admission_missing_from_table_is_flagged():
    """The ledger says B still holds R1, but B's table does not."""
    tb = build_linear_testbed(["A", "B"])
    led = DecisionLedger()
    led.record(record(
        RecordKind.ADMIT, domain="B", handle="R1", granted=True,
        matched_rule="B/0", correlation_id="c1",
    ))
    violations = obs_audit.reconcile_brokers(led, tb.brokers)
    assert invariants(violations) == ["table-ledger"]
    assert violations[0].handle == "R1"
    # Balanced, the same admission owes the table nothing.
    led.record(record(
        RecordKind.CANCEL, domain="B", handle="R1", correlation_id="c1",
    ))
    assert obs_audit.reconcile_brokers(led, tb.brokers) == []


def test_held_row_whose_admission_was_balanced_is_flagged():
    """Every domain still holds its granted row, but the ledger records
    the reservation torn down everywhere."""
    tb = build_linear_testbed(["A", "B"])
    user = tb.add_user("A", "Alice")
    with obs_audit.use_ledger() as led:
        outcome = tb.reserve(
            user, source="A", destination="B", bandwidth_mbps=10.0,
        )
    assert outcome.granted
    assert obs_audit.reconcile_brokers(led, tb.brokers) == []
    for domain, handle in outcome.handles.items():
        led.record(record(
            RecordKind.CANCEL, domain=domain, handle=handle,
            correlation_id=outcome.correlation_id,
        ))
    kinds = invariants(obs_audit.reconcile_brokers(led, tb.brokers))
    assert kinds.count("table-ledger") == 2
    assert "booking-ledger" in kinds


def test_accounting_mismatch_is_flagged():
    led = DecisionLedger()
    led.record(record(
        RecordKind.ADMIT, domain="A", handle="R1", granted=True,
        matched_rule="A/0", correlation_id="c1",
    ))
    run = SimpleNamespace(correlation_id="c1", path=("A", "B"))
    violations = obs_audit.reconcile_accounting(led, [run])
    assert invariants(violations) == ["accounting"]
    # A run with no correlation id predates the ledger: skipped.
    legacy = SimpleNamespace(correlation_id="", path=("A", "B"))
    assert obs_audit.reconcile_accounting(led, [legacy]) == []
