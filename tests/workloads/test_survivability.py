"""Tests for the survivability harness (repro.workloads.survivability)."""

import pytest

from repro.errors import SimulationError
from repro.obs.audit import reconcile
from repro.workloads.survivability import (
    SurvivabilitySpec,
    harness_defense_policy,
    honest_slos,
    run_survivability,
    run_survivability_pair,
)


class TestSpec:
    def test_unknown_persona_rejected(self):
        with pytest.raises(SimulationError, match="unknown persona"):
            SurvivabilitySpec(persona="ddos")

    def test_fraction_bounds(self):
        with pytest.raises(SimulationError, match="attack_fraction"):
            SurvivabilitySpec(persona="flood", attack_fraction=1.0)
        with pytest.raises(SimulationError, match="attack_fraction"):
            SurvivabilitySpec(persona="flood", attack_fraction=0.0)

    def test_victim_must_be_downstream(self):
        with pytest.raises(SimulationError):
            SurvivabilitySpec(persona="flood", victim="Z")
        with pytest.raises(SimulationError, match="downstream"):
            SurvivabilitySpec(persona="flood", victim="A")

    def test_default_fraction_comes_from_persona(self):
        spec = SurvivabilitySpec(persona="byzantine-broker")
        assert spec.fraction == 0.98
        explicit = SurvivabilitySpec(
            persona="byzantine-broker", attack_fraction=0.5
        )
        assert explicit.fraction == 0.5
        # attack rate = honest * f/(1-f): at f=0.5 the rates match.
        assert explicit.attack_rate_per_s == pytest.approx(
            explicit.honest_rate_per_s
        )

    def test_honest_slos_follow_the_deadline(self):
        spec = SurvivabilitySpec(persona="flood", honest_deadline_s=4.0)
        slos = {s.name: s for s in honest_slos(spec)}
        assert slos["honest-latency-p99"].threshold == 4.0
        assert slos["honest-denial-rate"].threshold == 0.10


class TestRuns:
    def test_deterministic_under_seed(self):
        spec = SurvivabilitySpec(
            persona="flood", seed=7, horizon_s=25.0
        )
        first = run_survivability(spec, defenses_on=True)
        second = run_survivability(spec, defenses_on=True)
        assert first.to_dict() == second.to_dict()

    def test_flood_pair_off_harms_on_retains(self):
        spec = SurvivabilitySpec(persona="flood", horizon_s=60.0)
        off, on = run_survivability_pair(spec)
        assert off.honest_offered == on.honest_offered > 0
        assert on.honest_admission_rate > off.honest_admission_rate
        assert on.honest_admission_rate >= 0.9
        assert on.slo_report is not None and on.slo_report.ok
        assert on.defense_rejections
        assert on.attacker["gate_rejected"] > 0
        # Defenses off: nothing was gate-rejected, everything was
        # processed the expensive way.
        assert off.attacker["gate_rejected"] == 0
        assert not off.defense_rejections

    def test_byzantine_replays_all_rejected_pre_verification(self):
        spec = SurvivabilitySpec(
            persona="byzantine-broker", horizon_s=20.0
        )
        on = run_survivability(spec, defenses_on=True)
        sent = on.attacker["replays_sent"]
        assert sent > 0
        assert on.attacker["replays_rejected_before_verification"] == sent

    def test_ledger_reconciles_clean(self):
        spec = SurvivabilitySpec(persona="flood", horizon_s=25.0)
        on = run_survivability(spec, defenses_on=True)
        assert on.ledger is not None and len(on.ledger) > 0
        assert reconcile(on.ledger).ok

    def test_report_dict_shape(self):
        spec = SurvivabilitySpec(persona="flood", horizon_s=20.0)
        report = run_survivability(spec, defenses_on=True)
        payload = report.to_dict()
        for key in ("persona", "seed", "attack_fraction", "defenses_on",
                    "honest_offered", "honest_admission_rate",
                    "honest_p99_latency_s", "breaker_opens",
                    "max_backlog_s", "attacker", "defense_rejections",
                    "slos"):
            assert key in payload
        assert payload["slos"], "SLO results must be in the payload"

    def test_harness_policy_domain_class_looser_than_user(self):
        policy = harness_defense_policy()
        assert policy.domain_peer_rate_per_s > policy.peer_rate_per_s
        assert policy.domain_peer_burst > policy.peer_burst


class TestTimeToDetect:
    """The monitored-incident fields (PR 9's telemetry tentpole)."""

    def test_unmonitored_run_has_no_detection_fields(self):
        spec = SurvivabilitySpec(persona="flood", seed=7, horizon_s=20.0)
        report = run_survivability(spec, defenses_on=True)
        # Onset is a fact about the workload, known with or without a
        # recorder; the alert-derived fields need the telemetry plane.
        assert report.attack_onset_s is not None
        assert report.first_critical_alert_s is None
        assert report.time_to_detect_s is None
        assert report.alert_transitions == 0

    def test_flood_with_defenses_off_detected_in_finite_time(self):
        from repro.obs.telemetry import FlightRecorder

        spec = SurvivabilitySpec(
            persona="flood", seed=2001, horizon_s=60.0
        )
        report = run_survivability(
            spec, defenses_on=False, recorder=FlightRecorder()
        )
        assert report.attack_onset_s is not None
        assert report.first_critical_alert_s is not None
        assert report.time_to_detect_s is not None
        assert 0.0 < report.time_to_detect_s < spec.horizon_s
        assert report.first_critical_alert_s == pytest.approx(
            report.attack_onset_s + report.time_to_detect_s
        )
        assert report.alert_transitions > 0
        # The fields survive into the serialized report.
        payload = report.to_dict()
        assert payload["time_to_detect_s"] == report.time_to_detect_s

    def test_monitored_run_streams_frames_into_recording(self, tmp_path):
        from repro.obs.telemetry import (
            FlightRecorder,
            Recording,
            RecordingWriter,
        )

        path = tmp_path / "attack.tsrec"
        spec = SurvivabilitySpec(persona="flood", seed=7, horizon_s=20.0)
        with RecordingWriter.open(path, meta={"persona": "flood"}) as writer:
            run_survivability(
                spec, defenses_on=True,
                recorder=FlightRecorder(writer=writer),
            )
        recording = Recording.load(path)
        assert recording.meta["persona"] == "flood"
        assert len(recording.frames) >= int(spec.horizon_s) - 1
        assert recording.meta.get("attack_onset_s") is not None

    def test_pending_events_sampled_in_every_frame(self):
        """The simulator's queue is a probe read at frame time, so a
        recorder sampling from inside the run sees it at every frame."""
        from repro.obs.telemetry import FlightRecorder

        recorder = FlightRecorder()
        run_survivability(
            SurvivabilitySpec(persona="flood", seed=2001, horizon_s=30.0),
            defenses_on=False, recorder=recorder,
        )
        points = recorder.store.points("sim_pending_events")
        assert recorder.frames > 0
        assert len(points) == recorder.frames
        assert any(value > 0 for _, value in points)
