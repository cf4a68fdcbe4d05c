"""Alert rules and the pending → firing → resolved lifecycle."""

import io
import json

import pytest

from repro.errors import ObservabilityError
from repro.obs.events import EventLog, RecordKind
from repro.obs.telemetry import (
    AlertEngine,
    AlertRule,
    AlertSeverity,
    AlertState,
    FlightRecorder,
    RecordingWriter,
    chaos_rules,
    default_rules,
)
from repro.obs.telemetry.series import SeriesStore


def _backlog_rule(**overrides):
    params = dict(
        name="backlog", kind="threshold",
        metric="work_queue_backlog_s",
        severity=AlertSeverity.CRITICAL,
        group_by="domain", threshold=2.0, for_s=2.0,
    )
    params.update(overrides)
    return AlertRule(**params)


def _set_backlog(store, t, value, domain="A"):
    store.record("work_queue_backlog_s", t, value,
                 labels={"domain": domain})


class TestRuleValidation:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ObservabilityError, match="kind"):
            AlertRule(name="x", kind="slope", metric="m")

    def test_threshold_rule_needs_metric(self):
        with pytest.raises(ObservabilityError, match="metric"):
            AlertRule(name="x", kind="threshold")

    def test_numerator_without_denominator_rejected(self):
        with pytest.raises(ObservabilityError, match="together"):
            AlertRule(name="x", kind="burn_rate", numerator="a_total")

    def test_duplicate_rule_names_rejected(self):
        with pytest.raises(ObservabilityError, match="unique"):
            AlertEngine([_backlog_rule(), _backlog_rule()])


class TestLifecycle:
    def test_pending_firing_resolved_inactive(self):
        engine = AlertEngine([_backlog_rule()])
        store = SeriesStore()

        _set_backlog(store, 1.0, 0.5)
        assert engine.step(store, 1.0) == ()

        _set_backlog(store, 2.0, 3.0)
        (pending,) = engine.step(store, 2.0)
        assert pending.from_state is AlertState.INACTIVE
        assert pending.to_state is AlertState.PENDING
        # The incident id is minted at PENDING so every transition —
        # including the blip that never fires — is correlated.
        assert pending.correlation_id == "alert-backlog-0001"

        _set_backlog(store, 3.0, 3.0)  # breached 1s < for_s=2
        assert engine.step(store, 3.0) == ()

        _set_backlog(store, 4.0, 3.5)  # breached 2s: fires
        (firing,) = engine.step(store, 4.0)
        assert firing.to_state is AlertState.FIRING
        assert firing.correlation_id == "alert-backlog-0001"
        assert engine.firing_count() == 1
        assert engine.firing_count(AlertSeverity.CRITICAL) == 1
        assert engine.active() == (firing,)

        _set_backlog(store, 5.0, 3.5)  # FIRING stays FIRING, quietly
        assert engine.step(store, 5.0) == ()

        _set_backlog(store, 6.0, 0.1)
        (resolved,) = engine.step(store, 6.0)
        assert resolved.to_state is AlertState.RESOLVED
        assert resolved.correlation_id == "alert-backlog-0001"
        assert engine.firing_count() == 0
        assert engine.active() == ()

    def test_blip_shorter_than_for_s_never_fires(self):
        engine = AlertEngine([_backlog_rule()])
        store = SeriesStore()
        _set_backlog(store, 1.0, 3.0)
        engine.step(store, 1.0)
        _set_backlog(store, 2.0, 0.1)
        (back,) = engine.step(store, 2.0)
        assert back.from_state is AlertState.PENDING
        assert back.to_state is AlertState.INACTIVE
        assert back.correlation_id == "alert-backlog-0001"
        assert all(t.to_state is not AlertState.FIRING
                   for t in engine.transitions)

    def test_zero_for_s_fires_immediately(self):
        engine = AlertEngine([_backlog_rule(for_s=0.0)])
        store = SeriesStore()
        _set_backlog(store, 1.0, 3.0)
        transitions = engine.step(store, 1.0)
        assert [t.to_state for t in transitions] \
            == [AlertState.PENDING, AlertState.FIRING]

    def test_incident_ids_are_deterministic_and_sequential(self):
        engine = AlertEngine([_backlog_rule(for_s=0.0)])
        store = SeriesStore()
        _set_backlog(store, 1.0, 3.0)
        engine.step(store, 1.0)
        _set_backlog(store, 2.0, 0.1)
        engine.step(store, 2.0)
        _set_backlog(store, 3.0, 3.0)  # a second, distinct incident
        engine.step(store, 3.0)
        firing = [t for t in engine.transitions
                  if t.to_state is AlertState.FIRING]
        assert [t.correlation_id for t in firing] \
            == ["alert-backlog-0001", "alert-backlog-0002"]

    def test_group_by_runs_one_machine_per_domain(self):
        engine = AlertEngine([_backlog_rule(for_s=0.0)])
        store = SeriesStore()
        _set_backlog(store, 1.0, 3.0, domain="B")
        _set_backlog(store, 1.0, 0.1, domain="A")
        transitions = engine.step(store, 1.0)
        assert {t.group for t in transitions} == {"B"}
        assert engine.firing_count() == 1


class TestBurnRateRules:
    def test_generic_numerator_denominator_burn(self):
        rule = AlertRule(
            name="denied-burn", kind="burn_rate",
            severity=AlertSeverity.CRITICAL,
            numerator="reservations_total",
            numerator_where=(("result", "denied"),),
            denominator="reservations_total",
            threshold=1.5, slo=0.5, slow_fraction=0.8,
            fast_window_s=10.0, slow_window_s=30.0, for_s=0.0,
        )
        store = SeriesStore()
        for t in range(1, 11):
            store.record("reservations_total", float(t), float(t),
                         kind="counter", labels={"result": "denied"})
            store.record("reservations_total", float(t), 0.0,
                         kind="counter", labels={"result": "granted"})
        # Everything denied: ratio 1.0, burn 2.0 on both windows.
        evaluated = rule.evaluate(store, 10.0)
        breached, value = evaluated[""]
        assert breached
        assert value == pytest.approx(2.0)

    def test_slow_fraction_gates_on_slow_window(self):
        """Fast window saturated but slow window still quiet: with
        slow_fraction=1.0 nothing breaches; relaxing it detects the
        ramp early."""
        store = SeriesStore()
        for t in range(61):
            store.record(
                "admissions_total", float(t), float(min(t, 50)),
                kind="counter",
                labels={"domain": "A", "granted": "true"},
            )
            store.record(
                "admissions_total", float(t), float(max(t - 50, 0)),
                kind="counter",
                labels={"domain": "A", "granted": "false"},
            )
        strict = AlertRule(
            name="strict", kind="burn_rate", group_by="domain",
            threshold=1.8, slo=0.5, slow_fraction=1.0, for_s=0.0,
        )
        relaxed = AlertRule(
            name="relaxed", kind="burn_rate", group_by="domain",
            threshold=1.8, slo=0.5, slow_fraction=0.1, for_s=0.0,
        )
        assert strict.evaluate(store, 60.0)["A"][0] is False
        assert relaxed.evaluate(store, 60.0)["A"][0] is True


class TestAnomalyRules:
    def _rule(self, **overrides):
        params = dict(
            name="drift", kind="anomaly", metric="domain_utilization",
            z_threshold=4.0, alpha=0.3, min_samples=8, for_s=0.0,
        )
        params.update(overrides)
        return AlertRule(**params)

    def test_spike_after_flat_history_breaches(self):
        store = SeriesStore()
        for t in range(12):
            store.record("domain_utilization", float(t), 0.2)
        store.record("domain_utilization", 12.0, 0.9)
        breached, z = self._rule().evaluate(store, 12.0)[""]
        assert breached
        assert z > 4.0

    def test_flat_history_is_quiet(self):
        store = SeriesStore()
        for t in range(20):
            store.record("domain_utilization", float(t), 0.2)
        breached, z = self._rule().evaluate(store, 19.0)[""]
        assert not breached
        assert z == pytest.approx(0.0)

    def test_too_few_samples_is_quiet(self):
        store = SeriesStore()
        for t in range(4):
            store.record("domain_utilization", float(t), 0.2)
        store.record("domain_utilization", 4.0, 0.9)
        assert self._rule().evaluate(store, 4.0)[""] == (False, 0.0)


class TestEmission:
    def test_transitions_emit_alert_events_with_incident_id(self):
        engine = AlertEngine([_backlog_rule(for_s=0.0)])
        store = SeriesStore()
        log = EventLog()
        _set_backlog(store, 1.0, 3.0)
        engine.step(store, 1.0, event_log=log)
        events = log.records(RecordKind.ALERT)
        assert [dict(e.attributes)["state"] for e in events] \
            == ["pending", "firing"]
        assert events[-1].correlation_id == "alert-backlog-0001"
        assert events[-1].domain == "A"

    def test_transitions_stream_into_the_recording(self):
        stream = io.StringIO()
        writer = RecordingWriter(stream)
        recorder = FlightRecorder(writer=writer)
        engine = AlertEngine([_backlog_rule(for_s=0.0)])
        store = SeriesStore()
        _set_backlog(store, 1.0, 3.0)
        engine.step(store, 1.0, recorder=recorder)
        writer.close()
        alerts = [json.loads(line)["a"]
                  for line in stream.getvalue().splitlines()
                  if '"a"' in line]
        assert [a["state"] for a in alerts] == ["pending", "firing"]
        assert alerts[-1]["rule"] == "backlog"


class TestStockRules:
    def test_default_rules_are_engine_ready(self):
        engine = AlertEngine(default_rules())
        assert engine.step(SeriesStore(), 1.0) == ()

    def test_chaos_rules_are_engine_ready(self):
        engine = AlertEngine(chaos_rules())
        assert engine.step(SeriesStore(), 1.0) == ()

    def test_replay_reproduces_identical_transitions(self):
        """Two engines walked over the same frames take the same
        transitions — the determinism the .tsrec replay relies on."""
        def run():
            engine = AlertEngine([_backlog_rule(for_s=1.0)])
            store = SeriesStore()
            for t, value in enumerate(
                [0.1, 3.0, 3.0, 3.0, 0.1, 3.0, 3.0], start=1
            ):
                _set_backlog(store, float(t), value)
                engine.step(store, float(t))
            return [t.to_dict() for t in engine.transitions]

        assert run() == run()
