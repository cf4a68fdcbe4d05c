"""Declarative SLOs: spec parsing, evaluation over the metrics registry
and event log, burn rates, the chaos harness's verdict table, and a
recording read back agreeing with the run that wrote it."""

import io

import pytest

from repro.errors import ObservabilityError
from repro.obs.events import DecisionRecord, EventLog, RecordKind
from repro.obs.metrics import MetricsRegistry
from repro.obs.slo import (
    SLO,
    default_slos,
    evaluate_slos,
    evaluate_slos_from_recording,
    parse_slo_spec,
)
from repro.obs.telemetry import FlightRecorder, Recording, RecordingWriter


def _emit(log: EventLog, kind: RecordKind, **fields) -> None:
    log.emit(DecisionRecord(kind, **fields))


class TestSLOValidation:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ObservabilityError, match="unknown kind"):
            SLO(name="x", kind="availability", threshold=0.1)

    def test_latency_objective_needs_a_metric(self):
        with pytest.raises(ObservabilityError, match="metric"):
            SLO(name="x", kind="latency_quantile", threshold=0.5)

    def test_negative_threshold_rejected(self):
        with pytest.raises(ObservabilityError, match="threshold"):
            SLO(name="x", kind="denial_rate", threshold=-0.1)

    def test_quantile_bounds(self):
        with pytest.raises(ObservabilityError, match="quantile"):
            SLO(name="x", kind="latency_quantile", metric="m",
                threshold=0.5, quantile=1.5)


class TestSpecParsing:
    def test_full_spec(self):
        slos = parse_slo_spec("""
        {"slos": [
          {"name": "p95", "type": "latency_quantile",
           "metric": "signalling_latency_seconds",
           "quantile": 0.95, "threshold": 0.5},
          {"name": "denials", "type": "denial_rate", "threshold": 0.1}
        ]}
        """)
        assert [s.name for s in slos] == ["p95", "denials"]
        assert slos[0].quantile == 0.95
        assert slos[1].kind == "denial_rate"

    @pytest.mark.parametrize(
        "text, complaint",
        [
            ("not json", "not valid JSON"),
            ("[]", "slos"),
            ('{"slos": []}', "no objectives"),
            ('{"slos": [42]}', "not an object"),
            ('{"slos": [{"name": "x", "type": "denial_rate",'
             ' "threshold": 0.1, "bogus": 1}]}', "unknown keys"),
            ('{"slos": [{"name": "x", "type": "denial_rate"}]}',
             "threshold"),
        ],
    )
    def test_bad_specs_rejected(self, text, complaint):
        with pytest.raises(ObservabilityError, match=complaint):
            parse_slo_spec(text)


class TestEvaluation:
    def test_latency_quantile_against_histogram(self):
        registry = MetricsRegistry()
        hist = registry.histogram(
            "lat_seconds", buckets=(0.1, 1.0, 10.0),
        )
        for _ in range(95):
            hist.observe(0.05)
        for _ in range(5):
            hist.observe(5.0)
        slo = SLO(name="p50", kind="latency_quantile",
                  metric="lat_seconds", quantile=0.5, threshold=0.2)
        report = evaluate_slos((slo,), registry=registry, event_log=None)
        result = report.results[0]
        assert result.ok
        assert result.actual < 0.2
        assert "100 observations" in result.detail

    def test_latency_quantile_failure_and_burn(self):
        registry = MetricsRegistry()
        hist = registry.histogram("lat_seconds", buckets=(0.1, 1.0))
        for _ in range(10):
            hist.observe(0.9)
        slo = SLO(name="p95", kind="latency_quantile",
                  metric="lat_seconds", quantile=0.95, threshold=0.2)
        result = evaluate_slos(
            (slo,), registry=registry, event_log=None
        ).results[0]
        assert not result.ok
        assert result.burn_rate == pytest.approx(result.actual / 0.2)
        assert result.burn_rate > 1.0

    def test_denial_rate(self):
        log = EventLog()
        for _ in range(8):
            _emit(log, RecordKind.ADMIT, domain="A")
        for _ in range(2):
            _emit(log, RecordKind.DENY, domain="B", reason="policy")
        slo = SLO(name="denials", kind="denial_rate", threshold=0.1)
        result = evaluate_slos(
            (slo,), registry=None, event_log=log
        ).results[0]
        assert result.actual == pytest.approx(0.2)
        assert not result.ok
        assert result.burn_rate == pytest.approx(2.0)
        assert "2 denials / 10 decisions" in result.detail

    def test_breaker_open_rate_counts_only_opens(self):
        log = EventLog()
        for _ in range(10):
            _emit(log, RecordKind.ADMIT, domain="A")
        _emit(log, RecordKind.BREAKER, reason="closed -> open")
        _emit(log, RecordKind.BREAKER, reason="open -> half_open")
        _emit(log, RecordKind.BREAKER, reason="half_open -> closed")
        slo = SLO(name="breakers", kind="breaker_open_rate", threshold=0.25)
        result = evaluate_slos(
            (slo,), registry=None, event_log=log
        ).results[0]
        assert result.actual == pytest.approx(0.1)
        assert result.ok
        assert "1 breaker opens" in result.detail

    def test_no_data_fails(self):
        """An objective that saw nothing is not met: it fails, reads
        actual 0.0 and says it had no data."""
        report = evaluate_slos(default_slos(), registry=None, event_log=None)
        assert not report.ok
        assert report.failing == report.results
        for result in report.results:
            assert result.actual == 0.0
            assert "no data" in result.detail

    def test_zero_threshold_burn_rate(self):
        log = EventLog()
        _emit(log, RecordKind.ADMIT, domain="A")
        _emit(log, RecordKind.DENY, domain="A", reason="x")
        slo = SLO(name="no-denials", kind="denial_rate", threshold=0.0)
        result = evaluate_slos(
            (slo,), registry=None, event_log=log
        ).results[0]
        assert not result.ok
        assert result.burn_rate == float("inf")

    def test_render_table(self):
        log = EventLog()
        _emit(log, RecordKind.ADMIT, domain="A")
        report = evaluate_slos(
            (SLO(name="denials", kind="denial_rate", threshold=0.1),),
            registry=None, event_log=log,
        )
        text = report.render()
        assert "OK" in text and "denials" in text
        assert "all objectives met" in text


class TestChaosIntegration:
    def test_chaos_report_carries_slo_verdicts(self):
        from repro.faults.chaos import run_chaos

        report = run_chaos(seed=11, trials=6)
        assert report.slo_report is not None
        names = {r.slo.name for r in report.slo_report.results}
        assert names == {s.name for s in default_slos()}
        # Six faulty trials still produced decisions to judge.
        assert any(
            "decisions" in r.detail for r in report.slo_report.results
        )
        assert "SLO verdicts:" in report.summary()

    def test_denial_rate_counts_every_denial(self):
        """A refusal of an unverifiable message is a denial like any
        other: the SLO's count equals the campaign's denied trials."""
        from repro.faults.chaos import run_chaos

        report = run_chaos(seed=7, trials=5)
        denied = sum(1 for t in report.trials if not t.granted)
        assert denied == 1
        (denial_rate,) = [r for r in report.slo_report.results
                          if r.slo.kind == "denial_rate"]
        assert denial_rate.detail.startswith(f"{denied} denials / ")

    def test_chaos_accepts_custom_slos(self):
        from repro.faults.chaos import run_chaos

        impossible = SLO(name="zero-latency", kind="latency_quantile",
                         metric="signalling_latency_seconds",
                         quantile=0.5, threshold=0.0)
        report = run_chaos(seed=11, trials=6, slos=(impossible,))
        assert [r.slo.name for r in report.slo_report.results] == [
            "zero-latency"
        ]
        # Signalling always takes nonzero modelled time, so a zero
        # budget must burn.
        assert not report.slo_report.ok
        # SLO verdicts are informational: invariants still decide health.
        assert report.violations == []


def _verdicts(report):
    return [(r.slo.name, r.actual, r.burn_rate, r.ok, r.detail)
            for r in report.results]


class TestRecordedTwin:
    """One evaluator: a recording judged offline gives the verdicts the
    live sources gave."""

    SLOS = (
        SLO(name="p95", kind="latency_quantile", metric="lat_seconds",
            quantile=0.95, threshold=0.5),
        SLO(name="denials", kind="denial_rate", threshold=0.1),
        SLO(name="breakers", kind="breaker_open_rate", threshold=0.25),
    )

    @staticmethod
    def _one_frame_recording(registry, event_log):
        stream = io.StringIO()
        recorder = FlightRecorder(writer=RecordingWriter(stream))
        recorder.sample(1.0, registry=registry)
        for event in event_log:
            recorder.record_event(event)
        recorder.writer.close()
        return Recording.parse(stream.getvalue().splitlines())

    def test_live_and_one_frame_recording_agree(self):
        registry = MetricsRegistry()
        hist = registry.histogram("lat_seconds", buckets=(0.1, 1.0, 10.0))
        for _ in range(18):
            hist.observe(0.05)
        for _ in range(2):
            hist.observe(5.0)
        log = EventLog()
        for _ in range(7):
            _emit(log, RecordKind.ADMIT, domain="A")
        for _ in range(3):
            _emit(log, RecordKind.DENY, domain="B", reason="policy")
        _emit(log, RecordKind.BREAKER, reason="closed -> open")
        _emit(log, RecordKind.BREAKER, reason="open -> half_open")

        live = evaluate_slos(self.SLOS, registry=registry, event_log=log)
        recorded = evaluate_slos_from_recording(
            self.SLOS, self._one_frame_recording(registry, log)
        )
        assert _verdicts(recorded) == _verdicts(live)
        assert [r.actual for r in live.results] == [
            pytest.approx(5.5), pytest.approx(0.3), pytest.approx(0.1)
        ]

    def test_no_data_agrees_too(self):
        registry, log = MetricsRegistry(), EventLog()
        live = evaluate_slos(self.SLOS, registry=registry, event_log=log)
        recorded = evaluate_slos_from_recording(
            self.SLOS, self._one_frame_recording(registry, log)
        )
        assert _verdicts(recorded) == _verdicts(live)
        assert all(r.actual == 0.0 and not r.ok for r in live.results)
        assert all("no data" in r.detail for r in live.results)

    def test_a_chaos_run_and_its_recording_agree(self):
        """Fails at the parent of PR 23: the recorded evaluator fell
        back to ``admissions_total``, which never sees a denial the
        signalling engine itself issues (denial-rate 0.0625 live, 0.0000
        read back)."""
        from repro.faults.chaos import run_chaos

        stream = io.StringIO()
        recorder = FlightRecorder(writer=RecordingWriter(stream))
        report = run_chaos(seed=7, trials=20, recorder=recorder)
        recorder.writer.close()
        recording = Recording.parse(stream.getvalue().splitlines())

        assert len(recording.frames) == 20
        # Events ride the trial-index axis the frames use.
        assert {e["at_time"] for e in recording.events} <= {
            float(i) for i in range(1, 21)
        }
        read_back = evaluate_slos_from_recording(default_slos(), recording)
        assert _verdicts(read_back) == _verdicts(report.slo_report)
        denial = report.slo_report.results[1]
        assert denial.slo.name == "denial-rate" and denial.actual > 0.0
