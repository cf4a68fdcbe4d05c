"""Exporter-format regression tests (satellites 1 and 2).

The exact Prometheus text lines for the admission-plane defense
counters are pinned here: dashboards and the attack harness join
``reason_code`` against event/audit reason codes, so a renamed label or
a dropped series is a silent breakage this test turns loud.  The
snapshot-diff half pins the "snapshots come off disk" hardening:
one-sided metrics and malformed entries are reported, never raised.
"""

import dataclasses

import pytest

from repro.bb.defense import DefensePolicy, DefenseStats
from repro.bb.policyserver import VerifiedInfo
from repro.core.testbed import build_linear_testbed
from repro.obs import metrics as obs_metrics
from repro.obs.export import diff_snapshots, json_snapshot, prometheus_text


@pytest.fixture()
def rejections():
    """The registry and the per-domain defenses of an armed A-B testbed
    after one rate-limit and one replay rejection at B's ingress gate
    and one quota refusal in A's admission, each through the real
    signalling path."""
    with obs_metrics.use_registry() as registry:
        testbed = build_linear_testbed(["A", "B"])
        defenses = testbed.arm_defenses(DefensePolicy(
            peer_burst=1.0, peer_rate_per_s=0.0, replay_window_s=60.0,
            per_user_quota=1,
        ))
        ingress = testbed.hop_by_hop.process_ingress
        codes = [
            ingress("B", b"junk", peer="mallory", at_time=0.0).reason_code,
            ingress("B", b"more junk", peer="mallory", at_time=0.0).reason_code,
            ingress("B", b"junk", peer="alice", at_time=1.0).reason_code,
        ]
        assert codes == ["trust_failure", "rate_limited", "replay_rejected"]
        user = testbed.add_user("A", "Alice")
        request = testbed.make_request(
            source="A", destination="B", bandwidth_mbps=1.0,
        )
        verified = VerifiedInfo(user=user.dn)
        broker = testbed.brokers["A"]
        assert broker.admit(request, verified, downstream="B").granted
        assert not broker.admit(request, verified, downstream="B").granted
        yield registry, defenses


class TestPrometheusDefenseLines:
    def test_exact_defense_rejection_lines(self, rejections):
        registry, _ = rejections
        text = prometheus_text(registry)
        lines = text.splitlines()
        assert "# TYPE defense_rejections_total counter" in lines
        assert (
            'defense_rejections_total{domain="B",kind="rate_limited",'
            'reason_code="rate_limited"} 1'
        ) in lines
        assert (
            'defense_rejections_total{domain="B",kind="replay_rejected",'
            'reason_code="replay_rejected"} 1'
        ) in lines

    def test_json_snapshot_carries_the_same_labels(self, rejections):
        registry, _ = rejections
        snapshot = json_snapshot(registry)
        series = snapshot["defense_rejections_total"]["series"]
        labels = [entry["labels"] for entry in series]
        assert {"domain": "B", "kind": "rate_limited",
                "reason_code": "rate_limited"} in labels
        assert {"domain": "B", "kind": "replay_rejected",
                "reason_code": "replay_rejected"} in labels

    def test_counts_equal_defense_stats(self, rejections):
        """Each ``(domain, kind)`` series is exactly that domain's
        :class:`DefenseStats` counter, and nothing else is counted."""
        registry, defenses = rejections
        counter = registry.get("defense_rejections_total")
        kinds = [f.name for f in dataclasses.fields(DefenseStats)]
        expected = {
            (domain, kind): getattr(defense.stats, kind)
            for domain, defense in defenses.items() for kind in kinds
        }
        assert {
            key: counter.value(domain=key[0], kind=key[1], reason_code=key[1])
            for key in expected
        } == expected
        assert counter.total() == sum(expected.values()) == 3
        assert defenses["A"].stats.quota_exceeded == 1


def _metric(series):
    return {"kind": "counter", "help": "", "series": series}


class TestDiffSnapshots:
    def test_identical_snapshots_diff_clean(self):
        snap = {"m": _metric([{"labels": {"d": "A"}, "value": 1}])}
        assert diff_snapshots(snap, snap) == []

    def test_one_sided_metric_reported_not_raised(self):
        before = {"old_total": _metric([{"labels": {}, "value": 1}])}
        after = {"new_total": _metric([{"labels": {}, "value": 2}])}
        lines = diff_snapshots(before, after)
        assert "- metric old_total (only in A)" in lines
        assert "+ metric new_total (only in B)" in lines

    def test_one_sided_series_reported_with_value(self):
        before = {"m": _metric([{"labels": {"d": "A"}, "value": 1}])}
        after = {"m": _metric([
            {"labels": {"d": "A"}, "value": 1},
            {"labels": {"d": "B"}, "value": 4},
        ])}
        assert diff_snapshots(before, after) \
            == ["+ m{d=B} = 4 (only in B)"]

    def test_value_delta_reported(self):
        before = {"m": _metric([{"labels": {}, "value": 3}])}
        after = {"m": _metric([{"labels": {}, "value": 8}])}
        assert diff_snapshots(before, after) == ["~ m{-}: 3 -> 8 (+5)"]

    def test_histograms_compare_by_count(self):
        before = {"h": {"kind": "histogram", "series": [
            {"labels": {}, "count": 2, "sum": 1.0}]}}
        after = {"h": {"kind": "histogram", "series": [
            {"labels": {}, "count": 5, "sum": 9.0}]}}
        assert diff_snapshots(before, after) == ["~ h{-}: 2 -> 5 (+3)"]

    def test_malformed_entries_skipped_not_raised(self):
        before = {
            "bad_metric": "not a dict",
            "bad_series": _metric("not a list"),
            "bad_rows": _metric([
                "not a dict",
                {"labels": "not a dict", "value": 1},
                {"labels": {}, "value": "unparsable"},
            ]),
        }
        after = {
            "bad_metric": _metric([{"labels": {}, "value": 1}]),
            "bad_series": _metric([]),
            "bad_rows": _metric([{"labels": {}, "value": 2}]),
        }
        lines = diff_snapshots(before, after)
        # The readable pieces still diff: the bad rows collapsed to the
        # unlabelled entry on side A (labels fall back to {}).
        assert "+ bad_metric{-} = 1 (only in B)" in lines
        assert any(line.startswith("~ bad_rows") for line in lines)

    def test_non_object_snapshot_sides_flagged(self):
        assert diff_snapshots("junk", {}) \
            == ["~ snapshot is not a JSON object on side A"]
        assert diff_snapshots({}, 7) \
            == ["~ snapshot is not a JSON object on side B"]
        assert diff_snapshots(None, []) \
            == ["~ snapshot is not a JSON object on both sides"]
