"""The policy static verifier: clean on the paper's policies, loud on
contradictory / unreachable / non-exhaustive / always-deny trees and on
calls no policy server can answer."""

import json
from pathlib import Path

import pytest

from repro.analysis.policycheck import (
    policy_findings_to_json,
    verify_policy_source,
)
from repro.bb.policyserver import PolicyServer
from repro.errors import PolicySyntaxError
from repro.policy.engine import PolicyEngine
from repro.policy.language import parse_policy

POLICY_DIR = Path(__file__).resolve().parents[2] / "examples" / "policies"


def P(*lines):
    """Join policy lines (the syntax is indentation-significant)."""
    return "\n".join(lines) + "\n"


def kinds(findings):
    return [f.kind for f in findings]


class TestPaperPoliciesAreClean:
    """The verifier must not cry wolf on the policies from the paper."""

    @pytest.mark.parametrize(
        "name",
        ["figure1", "figure6_a", "figure6_b", "figure6_c"],
    )
    def test_figure_policy_has_no_findings(self, name):
        source = (POLICY_DIR / f"{name}.policy").read_text()
        assert verify_policy_source(source, name=name) == []


class TestContradiction:
    def test_interval_contradiction_across_nesting(self):
        findings = verify_policy_source(P(
            "If BW > 1Gb/s",
            "    If BW <= 10Mb/s",
            "        Return GRANT",
            "Return DENY",
        ))
        assert "contradiction" in kinds(findings)
        assert "BW" in findings[0].message

    def test_self_contradictory_conjunction(self):
        findings = verify_policy_source(P(
            "If BW > 10Mb/s and BW < 5Mb/s",
            "    Return GRANT",
            "Return DENY",
        ))
        assert "contradiction" in kinds(findings)

    def test_string_equality_contradiction(self):
        findings = verify_policy_source(P(
            "If User = Mary",
            "    If User != Mary",
            "        Return GRANT",
            "Return DENY",
        ))
        assert "contradiction" in kinds(findings)

    def test_group_membership_is_not_exclusive(self):
        # Group is set-valued: membership in one group never precludes
        # membership in another, so this must NOT be a contradiction.
        findings = verify_policy_source(P(
            "If Group = Atlas",
            "    If Group = Physics",
            "        Return GRANT",
            "Return DENY",
        ))
        assert findings == []

    def test_group_membership_denied_then_required(self):
        findings = verify_policy_source(P(
            "If Group != Atlas",
            "    If Group = Atlas",
            "        Return GRANT",
            "Return DENY",
        ))
        assert "contradiction" in kinds(findings)

    def test_or_with_single_viable_arm_refines(self):
        # Under BW <= 5Mb/s the first disjunct is impossible, so the Or
        # pins User = Alice — making the inner User != Alice dead.
        findings = verify_policy_source(P(
            "If BW <= 5Mb/s",
            "    If BW > 10Mb/s or User = Alice",
            "        If User != Alice",
            "            Return GRANT",
            "Return DENY",
        ))
        assert "contradiction" in kinds(findings)


class TestUnreachable:
    def test_statement_after_unconditional_return(self):
        findings = verify_policy_source(P(
            "Return DENY",
            "If BW < 10Mb/s",
            "    Return GRANT",
        ))
        assert "unreachable" in kinds(findings)

    def test_else_arm_dead_when_condition_always_true(self):
        findings = verify_policy_source(P(
            "If BW > 10Mb/s",
            "    If BW > 5Mb/s",
            "        Return GRANT",
            "    Else Return DENY",
            "Return DENY",
        ))
        assert "unreachable" in kinds(findings)
        assert "Else arm is dead" in findings[0].message


class TestNonExhaustive:
    def test_missing_final_return(self):
        findings = verify_policy_source(P(
            "If BW < 10Mb/s",
            "    Return GRANT",
        ))
        assert kinds(findings) == ["non-exhaustive"]

    def test_if_else_with_both_returns_is_exhaustive(self):
        findings = verify_policy_source(P(
            "If BW < 10Mb/s",
            "    Return GRANT",
            "Else Return DENY",
        ))
        assert findings == []


class TestAlwaysDeny:
    def test_subtree_with_only_deny_verdicts(self):
        findings = verify_policy_source(P(
            "If Time > 5pm",
            "    If BW > 100Mb/s",
            "        Return DENY",
            "    Return DENY",
            "Return DENY",
        ))
        assert kinds(findings).count("always-deny") >= 1

    def test_mixed_verdicts_not_flagged(self):
        findings = verify_policy_source(P(
            "If Time > 5pm",
            "    If BW > 100Mb/s",
            "        Return DENY",
            "    Else Return GRANT",
            "Return DENY",
        ))
        assert findings == []


class TestUnknownPredicate:
    def test_unregistered_predicate_is_reported_once(self):
        findings = verify_policy_source(P(
            "If Accredited_Physicist(requestor)",
            "    Return GRANT",
            "If BW < 5Mb/s and not Accredited_Physicist(requestor)",
            "    Return GRANT",
            "Return DENY",
        ))
        assert kinds(findings) == ["unknown-predicate"]
        assert "Accredited_Physicist" in findings[0].message
        assert findings[0].severity.value == "error"

    def test_builtin_calls_are_known(self):
        assert verify_policy_source(P(
            "If Issued_by(Capability) = ESnet and HasValidGPUResv(RAR)",
            "    Return GRANT",
            "If Attribute(tier) = gold",
            "    Return GRANT",
            "Return DENY",
        )) == []


class TestOutputAndErrors:
    def test_findings_serialize_to_json(self):
        findings = verify_policy_source(P(
            "If BW < 1Mb/s",
            "    Return GRANT",
        ))
        doc = json.loads(policy_findings_to_json(findings))
        assert doc["count"] == len(findings) == 1
        assert doc["findings"][0]["kind"] == "non-exhaustive"
        assert doc["findings"][0]["severity"] == "warning"

    def test_parse_failure_propagates(self):
        with pytest.raises(PolicySyntaxError):
            verify_policy_source("If BW <<< oops\n")


class TestPolicyServerIntegration:
    def test_loading_defective_policy_records_findings(self, caplog):
        engine = PolicyEngine(
            parse_policy(P(
                "If BW > 1Gb/s",
                "    If BW <= 10Mb/s",
                "        Return GRANT",
                "Return DENY",
            )),
            name="defective",
        )
        with caplog.at_level("WARNING", logger="repro.bb.policyserver"):
            server = PolicyServer("A", engine)
        assert kinds(server.policy_findings) == ["contradiction"]
        assert any("policy verifier" in r.message for r in caplog.records)

    def test_clean_policy_loads_silently(self):
        engine = PolicyEngine(
            parse_policy((POLICY_DIR / "figure1.policy").read_text()),
            name="figure1",
        )
        server = PolicyServer("LBNL", engine)
        assert server.policy_findings == []

    def test_empty_engine_not_checked(self):
        # The Akenti adapter wraps PolicyEngine([]); a pure-default engine
        # must not be reported as non-exhaustive.
        server = PolicyServer("A", PolicyEngine([], name="empty"))
        assert server.policy_findings == []
