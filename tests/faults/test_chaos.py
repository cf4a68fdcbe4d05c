"""The chaos harness: determinism, invariant checking, reporting."""

from repro.core.testbed import build_linear_testbed
from repro.faults.chaos import _check_invariants, run_chaos


class TestDeterminism:
    def test_same_seed_same_schedule_and_outcomes(self):
        first = run_chaos(seed=3, trials=12)
        second = run_chaos(seed=3, trials=12)
        assert first.schedule_digest == second.schedule_digest
        assert [
            (t.spec, t.granted, t.injected, t.retries, t.denial_reason)
            for t in first.trials
        ] == [
            (t.spec, t.granted, t.injected, t.retries, t.denial_reason)
            for t in second.trials
        ]

    def test_different_seed_different_schedule(self):
        assert (
            run_chaos(seed=3, trials=12).schedule_digest
            != run_chaos(seed=4, trials=12).schedule_digest
        )

    def test_no_violations_on_small_run(self):
        report = run_chaos(seed=11, trials=25)
        assert report.violations == []
        assert len(report.trials) == 25
        # A healthy matrix run must actually exercise faults and both
        # grant and deny at least once — otherwise it proves nothing.
        assert report.injected_count > 0
        assert 0 < report.granted_count < 25


class TestInvariantChecker:
    def test_clean_testbed_passes(self):
        testbed = build_linear_testbed(["A", "B"])
        assert _check_invariants(testbed) == []

    def test_detects_capacity_leak_and_stuck_reservation(self):
        testbed = build_linear_testbed(["A", "B"])
        alice = testbed.add_user("A", "Alice")
        outcome = testbed.reserve(
            alice, source="A", destination="B", bandwidth_mbps=10.0
        )
        assert outcome.granted
        violations = _check_invariants(testbed)
        assert any("capacity leak" in v for v in violations)
        assert any("stuck reservation" in v for v in violations)

    def test_detects_unreleased_injector(self):
        from repro.faults.injector import FaultInjector
        from repro.faults.plan import FaultPlan

        testbed = build_linear_testbed(["A", "B"])
        testbed.attach_injector(FaultInjector(FaultPlan()))
        violations = _check_invariants(testbed)
        assert any("injector" in v for v in violations)
        testbed.detach_injector()
        assert _check_invariants(testbed) == []


class TestReport:
    def test_summary_lines(self):
        report = run_chaos(seed=5, trials=6)
        text = report.summary()
        assert "seed=5" in text
        assert "trials=6" in text
        assert report.schedule_digest in text
        assert "violations      : 0" in text


class TestAudit:
    def test_audited_run_reconciles_clean(self):
        report = run_chaos(seed=11, trials=30)
        assert report.ledger is not None and len(report.ledger) > 0
        assert report.audit_report is not None
        assert report.audit_violations == [], report.audit_violations
        text = report.summary()
        assert "audit" in text
        # The campaign must exercise both outcomes for the ledger to
        # prove anything.
        assert 0 < report.granted_count < 30

    def test_audited_run_is_ledger_deterministic(self):
        first = run_chaos(seed=3, trials=10)
        second = run_chaos(seed=3, trials=10)

        def shape(ledger):
            return [
                (r.kind, r.domain, r.granted, r.reason_code, r.matched_rule)
                for r in ledger
            ]

        assert shape(first.ledger) == shape(second.ledger)
