"""The health badge: a view of the alert rules — burn math, multi-window
filtering, which groups name a broker, worst-wins."""

import pytest

from repro.obs.telemetry import (
    AlertRule,
    AlertSeverity,
    broker_health,
    default_rules,
    denial_burn,
    health_badge,
    render_top,
)
from repro.obs.telemetry.series import SeriesStore


def _admit(store, t, *, granted, denied, domain="A"):
    """Record cumulative admission counters at *t* for one domain."""
    store.record(
        "admissions_total", t, granted, kind="counter",
        labels={"domain": domain, "granted": "true"},
    )
    store.record(
        "admissions_total", t, denied, kind="counter",
        labels={"domain": domain, "granted": "false"},
    )


def _badge(store, domain, *, now, rules=None):
    """``(badge, breaching rule names worst first)`` for one broker."""
    rules = default_rules() if rules is None else rules
    breaches = broker_health(store, now=now, rules=rules).get(domain, ())
    return health_badge(breaches), [rule.name for rule, _, _ in breaches]


class TestDenialBurn:
    def test_burn_is_windowed_ratio_over_slo(self):
        store = SeriesStore()
        # 3 denied of 12 total in the window: ratio 0.25, burn 0.5.
        for t in range(5):
            _admit(store, float(t), granted=float(t * 9) / 4.0,
                   denied=float(t * 3) / 4.0)
        burn = denial_burn(store, "A", now=4.0, window_s=10.0, slo=0.5)
        assert burn == pytest.approx(0.5)

    def test_no_traffic_reads_zero_burn(self):
        assert denial_burn(
            SeriesStore(), "A", now=1.0, window_s=10.0, slo=0.5
        ) == 0.0


class TestBurnVerdict:
    def test_sustained_full_denial_is_critical(self):
        store = SeriesStore()
        for t in range(61):
            _admit(store, float(t), granted=0.0, denied=float(t))
        assert _badge(store, "A", now=60.0) == ("CRITICAL", ["denial-burn"])

    def test_fast_only_blip_is_filtered(self):
        """The slow window must confirm: a 10 s full-denial burst after
        a long healthy history breaches no rule, so it colours nothing
        (and pages nobody)."""
        store = SeriesStore()
        for t in range(61):
            _admit(store, float(t),
                   granted=float(min(t, 50)),
                   denied=float(max(t - 50, 0)))
        assert _badge(store, "A", now=60.0) == ("green", [])

    def test_the_measured_contradiction_is_gone(self):
        """A sustained 95 % denial ratio: burn 1.9 breaches CRITICAL
        ``denial-burn`` (1.8) — the parent's badge wanted 2.0 and said
        DEGRADED while the pager fired."""
        store = SeriesStore()
        for t in range(61):
            _admit(store, float(t), granted=float(t), denied=float(t * 19))
        rule = default_rules()[0]
        assert rule.evaluate(store, 60.0)["A"] == (True, pytest.approx(1.9))
        assert _badge(store, "A", now=60.0)[0] == "CRITICAL"

    def test_light_denial_is_green(self):
        store = SeriesStore()
        for t in range(61):
            _admit(store, float(t), granted=float(t * 9), denied=float(t))
        assert _badge(store, "A", now=60.0) == ("green", [])


class TestOtherSignals:
    def test_backlog_thresholds(self):
        store = SeriesStore()
        store.record("work_queue_backlog_s", 1.0, 3.0,
                     labels={"domain": "A"})
        badge, names = _badge(store, "A", now=1.0)
        assert badge == "CRITICAL"
        assert names[0] == "backlog-critical"

        store = SeriesStore()
        store.record("work_queue_backlog_s", 1.0, 1.5,
                     labels={"domain": "A"})
        assert _badge(store, "A", now=1.0) == (
            "DEGRADED", ["backlog-warning"]
        )

    def test_open_breaker_on_domain_link_is_critical(self):
        store = SeriesStore()
        store.record("breaker_state", 1.0, 2.0, labels={"link": "A|B"})
        for domain in ("A", "B"):
            assert _badge(store, domain, now=1.0) == (
                "CRITICAL", ["breaker-open"]
            )
        # C is not an endpoint of A|B.
        assert _badge(store, "C", now=1.0) == ("green", [])

    def test_fleet_wide_groups_colour_no_broker(self):
        store = SeriesStore()
        store.record("work_queue_backlog_s", 1.0, 9.0,
                     labels={"domain": "A"})
        fleet_wide = AlertRule(
            name="fleet-backlog", kind="threshold",
            metric="work_queue_backlog_s",
            severity=AlertSeverity.CRITICAL, threshold=2.5,
        )
        assert fleet_wide.evaluate(store, 1.0) == {"": (True, 9.0)}
        assert broker_health(store, now=1.0, rules=(fleet_wide,)) == {}


class TestVerdictFolding:
    def test_worst_signal_wins_and_reasons_sort_worst_first(self):
        store = SeriesStore()
        store.record("work_queue_backlog_s", 1.0, 5.0,
                     labels={"domain": "A"})
        assert _badge(store, "A", now=1.0) == (
            "CRITICAL", ["backlog-critical", "backlog-warning"]
        )

    def test_badge_follows_the_rules_it_is_given(self):
        store = SeriesStore()
        store.record("work_queue_backlog_s", 1.0, 0.5,
                     labels={"domain": "A"})
        strict = (AlertRule(
            name="backlog-strict", kind="threshold",
            metric="work_queue_backlog_s",
            severity=AlertSeverity.CRITICAL, group_by="domain",
            threshold=0.4,
        ),)
        assert _badge(store, "A", now=1.0)[0] == "green"
        assert _badge(store, "A", now=1.0, rules=strict)[0] == "CRITICAL"
        assert _badge(store, "A", now=1.0, rules=())[0] == "green"

    def test_render_top_prints_badge_and_reasons(self):
        store = SeriesStore()
        store.record("work_queue_backlog_s", 1.0, 5.0,
                     labels={"domain": "B"})
        store.record("breaker_state", 1.0, 2.0, labels={"link": "B|C"})
        text = render_top(store, now=1.0, domains=["A", "B", "C"],
                          rules=default_rules())
        rows = {line.split()[0]: line.split()[1]
                for line in text.splitlines()
                if line[:1] in "ABC" and len(line.split()) > 5}
        assert rows == {"A": "green", "B": "CRITICAL", "C": "CRITICAL"}
        assert "  B: backlog-critical 5.00 (critical)" in text
        assert "  B: breaker-open/B|C 2.00 (critical)" in text
        assert "  B: backlog-warning 5.00 (warning)" in text
        assert "  C: breaker-open/B|C 2.00 (critical)" in text
