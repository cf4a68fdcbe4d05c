"""Unit tests for the decision-provenance ledger and chain stitching."""

import pytest

from repro.core.testbed import build_linear_testbed
from repro.errors import ObservabilityError
from repro.obs import audit as obs_audit
from repro.obs import decisions
from repro.obs import events as obs_events

from tests.obs._records import record


def test_record_assigns_sequence_and_attributes():
    led = obs_audit.DecisionLedger()
    first = led.record(record(
        obs_audit.RecordKind.ADMIT, domain="A", handle="R1", granted=True,
        matched_rule="A/0", note="hello",
    ))
    second = led.record(record(
        obs_audit.RecordKind.DENY, domain="B", reason="no",
        reason_code="policy_denied",
    ))
    assert (first.seq, second.seq) == (0, 1)
    assert first.attribute("note") == "hello"
    assert first.attribute("missing", "x") == "x"
    assert second.kind is obs_audit.RecordKind.DENY
    assert len(led) == 2
    assert led.records(obs_audit.RecordKind.ADMIT)[0].handle == "R1"
    assert led.records(domain="B")[0].reason_code == "policy_denied"


def test_record_picks_up_correlation_scope():
    with obs_audit.use_ledger():
        with obs_events.correlation_scope("req-test-1"):
            rec = decisions.record("admit", domain="A")
        explicit = decisions.record(
            "admit", domain="A", correlation_id="req-other"
        )
    assert rec.correlation_id == "req-test-1"
    assert explicit.correlation_id == "req-other"


def test_pending_buffer_drains_into_next_record():
    with obs_audit.use_ledger():
        obs_audit.discard_pending()
        obs_audit.note_check(
            "certificate", subject="alice", fingerprint="fp1",
        )
        obs_audit.note_retry(target="B", reason="timeout")
        obs_audit.note_recovery(
            breaker_state="half_open", deadline_remaining_s=1.5,
        )
        # A kind the ledger does not keep leaves the notes pending.
        assert decisions.record("release", domain="A") is None
        rec = decisions.record("admit", domain="A", granted=True)
        assert [c.kind for c in rec.checks] == ["certificate", "retry"]
        assert rec.retries == 1
        assert rec.breaker_state == "half_open"
        assert rec.deadline_remaining_s == 1.5
        # Drained: the next record starts from a clean buffer.
        rec2 = decisions.record("admit", domain="B", granted=True)
        assert rec2.checks == () and rec2.retries == 0


def test_discard_pending_drops_stale_notes():
    with obs_audit.use_ledger():
        obs_audit.note_check("certificate", subject="stale")
        obs_audit.discard_pending()
        rec = decisions.record("admit", domain="A")
        assert rec.checks == ()


def test_everything_is_a_noop_when_disabled():
    assert obs_audit.get_ledger() is None
    obs_audit.note_check("certificate", subject="x")
    obs_audit.note_retry()
    obs_audit.note_recovery(breaker_state="open")
    assert obs_audit.record_decision(
        record(obs_audit.RecordKind.DENY, domain="A")
    ) is None
    assert decisions.record("deny", domain="A") is None
    assert decisions.record_revocation(fingerprint="fp") is None
    with obs_audit.use_ledger():
        rec = decisions.record("admit", domain="A")
        # Nothing noted while disabled leaks into the enabled ledger.
        assert rec.checks == ()


def test_revocation_record_shape():
    with obs_audit.use_ledger() as led:
        rec = decisions.record_revocation(
            fingerprint="fp-1", subject="/CN=Alice", authority="CA-A",
            at_time=7.0,
        )
    assert rec is not None and rec.kind is obs_audit.RecordKind.REVOKE
    assert rec.domain == "CA-A" and rec.at_time == 7.0
    (check,) = rec.checks
    assert check.kind == "revocation"
    assert check.fingerprint == "fp-1"
    assert check.verdict == "revoked"
    assert led.records() == (rec,)


def test_json_roundtrip_preserves_everything():
    led = obs_audit.DecisionLedger()
    led.record(record(
        obs_audit.RecordKind.ADMIT, at_time=1.0, domain="A", handle="R1",
        user="/CN=Alice", correlation_id="req-1", granted=True,
        rate_mbps=10.0, window=(0.0, 3600.0), upstream=None, downstream="B",
        matched_rule="A/0", rules_fired=("A/0?x=y", "A/0"),
        checks=(obs_audit.CheckRecord(
            kind="certificate", subject="/CN=Alice", fingerprint="fp",
            source="authority",
        ),),
        path="A>B",
    ))
    led.record(record(
        obs_audit.RecordKind.DENY, domain="B", reason="no capacity",
        reason_code="capacity_exceeded", correlation_id="req-1",
    ))
    clone = obs_audit.DecisionLedger.from_json(led.to_json())
    assert [r.to_dict() for r in clone] == [r.to_dict() for r in led]


@pytest.mark.parametrize("text, message", [
    ("[1, 2]", "ledger: expected an object with a 'records' list"),
    ('"x"', "ledger: expected an object with a 'records' list"),
    ('{"records": 3}', "ledger: expected an object with a 'records' list"),
    ("{not json", "ledger: invalid JSON"),
    ('{"records": [1]}', "ledger record 0: expected an object, got int"),
    ('{"records": [{}]}', "ledger record 0: missing field 'seq'"),
    ('{"records": [{"seq": 0, "kind": "admit"}, {"seq": 1}]}',
     "ledger record 1: missing field 'kind'"),
    ('{"records": [{"seq": 0, "kind": "bogus"}]}',
     "ledger record 0: field 'kind': ValueError"),
    ('{"records": [{"seq": 0, "kind": "admit", "window": 5}]}',
     "ledger record 0: field 'window': TypeError"),
    ('{"records": [{"seq": 0, "kind": "admit", "checks": [1]}]}',
     "ledger record 0: field 'checks': AttributeError"),
])
def test_from_json_names_the_bad_record_and_field(text, message):
    with pytest.raises(ObservabilityError) as excinfo:
        obs_audit.DecisionLedger.from_json(text)
    assert str(excinfo.value).startswith(message)


def test_four_domain_chain_reconstruction():
    """Acceptance: explain a 4-domain reservation — every hop with the
    rules fired, the certificates checked, and the verdict sources."""
    tb = build_linear_testbed(["A", "B", "C", "D"])
    user = tb.add_user("A", "Alice")
    with obs_audit.use_ledger() as led:
        outcome = tb.reserve(
            user, source="A", destination="D", bandwidth_mbps=10.0,
        )
    assert outcome.granted

    # A reservation handle resolves to the same chain as the id itself.
    assert obs_audit.resolve_correlation(
        led, outcome.handles["C"]
    ) == outcome.correlation_id
    assert obs_audit.resolve_correlation(led, "nonsense") is None

    chain = obs_audit.stitch(led, outcome.correlation_id)
    assert chain.granted
    assert chain.path == ("A", "B", "C", "D")
    assert chain.complete_for(("A", "B", "C", "D"))
    assert chain.outcome is not None and chain.outcome.granted
    for depth, hop in enumerate(chain.hops):
        assert hop.kind is obs_audit.RecordKind.ADMIT
        assert hop.matched_rule  # the policy rule that granted it
        kinds = [c.kind for c in hop.checks]
        # One certificate per introduction layer plus the trust summary.
        assert kinds.count("certificate") == depth + 1
        assert "rar_trust" in kinds
        assert all(c.source == "fresh" for c in hop.checks)

    text = obs_audit.render_chain(chain)
    assert "A -> B -> C -> D" in text
    assert "GRANTED" in text
    assert "rule:" in text and "check:" in text

    doc = obs_audit.chain_to_dict(chain)
    assert doc["granted"] and doc["path"] == ["A", "B", "C", "D"]
    assert len(doc["hops"]) == 4
