"""Flight recorder, ``.tsrec`` round trip, and fabric probes."""

import io
import json

import pytest

from repro.core.testbed import build_linear_testbed
from repro.errors import ObservabilityError
from repro.obs.events import DecisionRecord, RecordKind
from repro.obs.metrics import MetricsRegistry
from repro.obs.telemetry import (
    BREAKER_STATE_VALUES,
    FlightRecorder,
    Recording,
    RecordingWriter,
    SeriesKey,
    TSREC_SCHEMA,
)
from repro.obs.telemetry import testbed_probes as fabric_probes


@pytest.fixture()
def registry():
    return MetricsRegistry()


class TestSampling:
    def test_scrapes_counters_gauges_histograms(self, registry):
        registry.counter("admissions_total").inc(domain="A", granted="true")
        registry.gauge("queue_depth").set(7, domain="A")
        hist = registry.histogram("latency_seconds")
        for v in (0.1, 0.2, 0.4):
            hist.observe(v)
        recorder = FlightRecorder()
        frame = recorder.sample(1.0, registry=registry)
        assert frame[SeriesKey.make("admissions_total",
                                    {"domain": "A", "granted": "true"})] == 1.0
        assert frame[SeriesKey.make("queue_depth", {"domain": "A"})] == 7.0
        assert frame[SeriesKey.make("latency_seconds:count")] == 3.0
        assert frame[SeriesKey.make("latency_seconds:sum")] \
            == pytest.approx(0.7)
        assert SeriesKey.make("latency_seconds:p95") in frame
        assert recorder.frames == 1

    def test_counter_series_kind_survives_into_store(self, registry):
        registry.counter("requests_total").inc()
        recorder = FlightRecorder()
        recorder.sample(1.0, registry=registry)
        series = recorder.store.select("requests_total")[0]
        assert series.kind == "counter"

    def test_probes_merge_into_frame(self, registry):
        recorder = FlightRecorder()
        key = SeriesKey.make("work_queue_backlog_s", {"domain": "B"})
        recorder.add_probe(lambda now: {key: now * 2})
        frame = recorder.sample(3.0, registry=registry)
        assert frame[key] == 6.0

    def test_probe_keys_coerced_from_bare_names_and_pairs(self, registry):
        recorder = FlightRecorder()
        recorder.add_probe(lambda now: {
            "bare_gauge": 1.0,
            # Labels as a tuple of pairs: the frame mapping needs
            # hashable keys, so a dict cannot appear inside one.
            ("paired_gauge", (("domain", "A"),)): 2.0,
        })
        frame = recorder.sample(1.0, registry=registry)
        assert frame[SeriesKey.make("bare_gauge")] == 1.0
        assert frame[SeriesKey.make("paired_gauge", {"domain": "A"})] == 2.0


class TestRoundTrip:
    def _record(self, registry):
        stream = io.StringIO()
        writer = RecordingWriter(stream, meta={"seed": 7})
        recorder = FlightRecorder(writer=writer)
        counter = registry.counter("denials_total")
        for t in range(1, 4):
            counter.inc(domain="A")
            recorder.sample(float(t), registry=registry)
        recorder.record_event(DecisionRecord(
            RecordKind.DENY, at_time=2.5, domain="A",
            reason="capacity", correlation_id="req-1",
        ))
        recorder.record_alert(3.0, {"rule": "denial-burn",
                                    "state": "firing"})
        recorder.record_meta(attack_onset_s=1.25)
        writer.close()
        return stream.getvalue()

    def test_full_round_trip(self, registry):
        text = self._record(registry)
        header = json.loads(text.splitlines()[0])
        assert header["schema"] == TSREC_SCHEMA
        assert header["meta"] == {"seed": 7}

        recording = Recording.parse(text.splitlines())
        assert recording.meta["seed"] == 7
        assert recording.meta["attack_onset_s"] == 1.25
        assert len(recording.frames) == 3
        assert recording.start == 1.0 and recording.end == 3.0
        assert recording.store.last_value(
            "denials_total", {"domain": "A"}) == 3.0
        assert recording.events[0]["kind"] == "deny"
        assert recording.alerts[0]["rule"] == "denial-burn"

    def test_kinds_written_once_but_apply_forever(self, registry):
        text = self._record(registry)
        lines = [json.loads(line) for line in text.splitlines()]
        frame_lines = [obj for obj in lines if "f" in obj]
        assert "k" in frame_lines[0]
        assert all("k" not in obj for obj in frame_lines[1:])
        recording = Recording.parse(text.splitlines())
        assert all(
            s.kind == "counter"
            for s in recording.store.select("denials_total")
        )

    def test_replay_yields_incremental_stores(self, registry):
        recording = Recording.parse(self._record(registry).splitlines())
        seen = []
        for t, store in recording.replay():
            seen.append((t, store.last_value("denials_total")))
        assert seen == [(1.0, 1.0), (2.0, 2.0), (3.0, 3.0)]

    def test_writer_refuses_after_close(self):
        writer = RecordingWriter(io.StringIO())
        writer.close()
        with pytest.raises(ObservabilityError):
            writer.write_meta({"late": True})

    def test_load_from_disk(self, registry, tmp_path):
        path = tmp_path / "run.tsrec"
        with RecordingWriter.open(path, meta={"campaign": "unit"}) as writer:
            FlightRecorder(writer=writer).sample(1.0, registry=registry)
        recording = Recording.load(path)
        assert recording.meta["campaign"] == "unit"


class TestParseErrors:
    def test_empty_file_rejected(self):
        with pytest.raises(ObservabilityError, match="empty"):
            Recording.parse([])

    def test_wrong_schema_rejected(self):
        with pytest.raises(ObservabilityError, match="schema"):
            Recording.parse(['{"schema": "other/9", "meta": {}}'])

    def test_invalid_json_rejected_with_line_number(self):
        lines = [
            json.dumps({"schema": TSREC_SCHEMA, "meta": {}}),
            "{not json",
        ]
        with pytest.raises(ObservabilityError, match="line 2"):
            Recording.parse(lines)

    def test_unknown_record_shape_rejected(self):
        lines = [
            json.dumps({"schema": TSREC_SCHEMA, "meta": {}}),
            json.dumps({"t": 1.0, "x": {}}),
        ]
        with pytest.raises(ObservabilityError, match="unrecognised"):
            Recording.parse(lines)


    @pytest.mark.parametrize("lines, message", [
        (["[1]"], "tsrec line 1: expected an object, got list"),
        ([json.dumps({"schema": TSREC_SCHEMA, "meta": {}}), "", "5"],
         "tsrec line 3: expected an object, got int"),
        ([json.dumps({"schema": TSREC_SCHEMA, "meta": {}}),
          '{"t":1,"f":{"a":"zz"}}'],
         "tsrec line 2: ValueError"),
    ], ids=["list-header", "number-line", "non-numeric-value"])
    def test_malformed_line_is_typed_and_numbered(self, lines, message):
        with pytest.raises(ObservabilityError, match=message):
            Recording.parse(lines)

    def test_frame_without_time_names_the_line(self):
        lines = [
            json.dumps({"schema": TSREC_SCHEMA, "meta": {}}),
            json.dumps({"f": {"a": 1.0}}),
        ]
        with pytest.raises(ObservabilityError, match="tsrec line 2: KeyError"):
            Recording.parse(lines)


class TestFabricProbes:
    def test_probe_frame_covers_fabric_state(self):
        testbed = build_linear_testbed(["A", "B", "C"])
        user = testbed.add_user("A", "Alice")
        testbed.reserve(user, source="A", destination="C",
                        bandwidth_mbps=10.0, duration=3600.0)
        recorder = FlightRecorder()
        for probe in fabric_probes(testbed):
            recorder.add_probe(probe)
        frame = recorder.sample(1.0)
        util_a = frame[SeriesKey.make("domain_utilization",
                                      {"domain": "A"})]
        assert util_a > 0.0
        assert frame[SeriesKey.make("reservation_table_size",
                                    {"domain": "A"})] >= 1.0
        breaker_keys = [k for k in frame
                        if k.name == "breaker_state"]
        assert breaker_keys
        assert all(
            frame[k] in BREAKER_STATE_VALUES.values()
            for k in breaker_keys
        )
