"""Structured events: lifecycle records on grant and deny-with-release
paths, correlation tagging, and log bounds."""

import pytest

from repro.core.testbed import build_linear_testbed
from repro.obs import decisions, events
from repro.obs.events import (
    DecisionRecord, EventLog, RecordKind, correlation_scope,
)


class TestEventLog:
    def test_emit_and_filter(self):
        log = EventLog()
        log.emit(DecisionRecord(RecordKind.ADMIT, domain="A", handle="H-1"))
        log.emit(DecisionRecord(RecordKind.DENY, domain="B", reason="policy"))
        log.emit(DecisionRecord(RecordKind.ADMIT, domain="B"))
        assert len(log) == 3
        assert len(log.records(RecordKind.ADMIT)) == 2
        assert log.records(RecordKind.DENY)[0].reason == "policy"
        assert len(log.records(domain="B")) == 2

    def test_bounded_retention(self):
        log = EventLog(max_events=10)
        for i in range(25):
            log.emit(DecisionRecord(RecordKind.CLAIM, handle=f"H-{i}"))
        assert len(log) == 10
        assert log.emitted == 25
        assert log.records()[0].handle == "H-15"

    def test_correlation_scope_tags_events(self):
        with events.use_event_log() as log:
            with correlation_scope("req-000042"):
                decisions.record("claim", domain="A")
            decisions.record("claim", domain="B")
        tagged = log.records(correlation_id="req-000042")
        assert len(tagged) == 1 and tagged[0].domain == "A"
        assert log.records(domain="B")[0].correlation_id == ""

    def test_to_dict(self):
        with events.use_event_log() as log:
            record = decisions.record(
                "release", at_time=5.0, domain="B", handle="H-9",
                reason="denied by C", rate_mbps=10.0,
            )
        assert log.records() == (record,)
        d = record.to_dict()
        assert d["kind"] == "release"
        assert d["rate_mbps"] == 10.0
        assert d["attributes"] == {}

    def test_disabled_by_default(self):
        assert events.get_event_log() is None


class TestGrantPath:
    def test_admit_per_domain_then_claim_and_cancel(self):
        with events.use_event_log() as log:
            testbed = build_linear_testbed(["A", "B", "C"])
            user = testbed.add_user("A", "Alice")
            outcome = testbed.reserve(
                user, source="A", destination="C", bandwidth_mbps=10.0,
            )
            assert outcome.granted
            testbed.hop_by_hop.claim(outcome)
            testbed.hop_by_hop.cancel(outcome)

        admits = log.records(RecordKind.ADMIT,
                            correlation_id=outcome.correlation_id)
        assert [e.domain for e in admits] == ["A", "B", "C"]
        assert all(e.handle for e in admits)
        for kind in (RecordKind.CLAIM, RecordKind.CANCEL):
            assert {e.domain for e in log.records(kind)} == {"A", "B", "C"}
        assert not log.records(RecordKind.DENY)
        assert not log.records(RecordKind.RELEASE)


class TestDenyPath:
    def test_deny_releases_upstream_grants(self):
        with events.use_event_log() as log:
            testbed = build_linear_testbed(["A", "B", "C"])
            testbed.set_policy("C", "Return DENY")
            user = testbed.add_user("A", "Alice")
            outcome = testbed.reserve(
                user, source="A", destination="C", bandwidth_mbps=10.0,
            )
        assert not outcome.granted

        denies = log.records(RecordKind.DENY,
                            correlation_id=outcome.correlation_id)
        assert [e.domain for e in denies] == ["C"]
        releases = log.records(RecordKind.RELEASE,
                              correlation_id=outcome.correlation_id)
        # A and B granted before the denial; both partial grants released.
        assert {e.domain for e in releases} == {"A", "B"}
        assert all("denied by C" in e.reason for e in releases)
