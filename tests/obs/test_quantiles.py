"""Histogram quantiles and the exporters that surface them, and the
snapshot differ behind ``repro metrics --diff``."""

import pytest

from repro.errors import ObservabilityError
from repro.obs.export import (
    EXPORTED_QUANTILES,
    diff_snapshots,
    json_snapshot,
    prometheus_text,
)
from repro.obs.metrics import MetricsRegistry, interpolate_quantile


@pytest.fixture()
def registry():
    return MetricsRegistry()


class TestInterpolateQuantile:
    def test_empty_distribution_is_zero(self):
        assert interpolate_quantile([1.0, 2.0], [0, 0], 0.95) == 0.0

    def test_interpolates_within_the_bucket(self):
        # 10 observations, all in (0, 1]: the median sits mid-bucket.
        assert interpolate_quantile([1.0, 2.0], [10, 0], 0.5) == pytest.approx(0.5)

    def test_interpolates_across_buckets(self):
        bounds, counts = [1.0, 2.0, 4.0], [5, 5, 0]
        assert interpolate_quantile(bounds, counts, 0.5) == pytest.approx(1.0)
        assert interpolate_quantile(bounds, counts, 0.75) == pytest.approx(1.5)

    def test_inf_bucket_clamps_to_last_bound(self):
        # All mass beyond the finite bounds.
        assert interpolate_quantile([1.0, 2.0], [0, 0, 10][:2], 0.99) == 0.0
        bounds, counts = [1.0, 2.0], [1, 0]
        # Rank beyond the tracked mass -> clamp to the largest bound.
        assert interpolate_quantile(bounds, counts, 1.0) == pytest.approx(1.0)

    def test_out_of_range_quantile_rejected(self):
        with pytest.raises(ObservabilityError):
            interpolate_quantile([1.0], [1], 1.5)


class TestHistogramQuantiles:
    def test_per_series_quantile(self, registry):
        hist = registry.histogram("lat", buckets=(0.1, 1.0, 10.0))
        for _ in range(9):
            hist.observe(0.05, domain="A")
        hist.observe(5.0, domain="A")
        hist.observe(5.0, domain="B")
        p50_a = hist.quantile(0.5, domain="A")
        assert 0.0 < p50_a <= 0.1
        assert hist.quantile(0.5, domain="B") > 1.0
        # Absent series estimates zero rather than raising.
        assert hist.quantile(0.5, domain="Z") == 0.0

    def test_aggregate_quantile_merges_series(self, registry):
        hist = registry.histogram("lat", buckets=(0.1, 1.0, 10.0))
        for _ in range(99):
            hist.observe(0.05, domain="A")
        hist.observe(5.0, domain="B")
        assert hist.aggregate_quantile(0.5) <= 0.1
        assert hist.aggregate_quantile(0.999) > 1.0


class TestExportedQuantiles:
    def _observe(self, registry):
        hist = registry.histogram("lat_seconds", buckets=(0.1, 1.0))
        for _ in range(10):
            hist.observe(0.05, domain="A")

    def test_prometheus_text_has_quantile_series(self, registry):
        self._observe(registry)
        text = prometheus_text(registry)
        for q in EXPORTED_QUANTILES:
            assert f'quantile="{q}"' in text
        line = next(
            l for l in text.splitlines() if 'quantile="0.5"' in l
        )
        assert float(line.split()[-1]) <= 0.1

    def test_json_snapshot_has_p50_p95_p99(self, registry):
        self._observe(registry)
        snap = json_snapshot(registry)
        series = snap["lat_seconds"]["series"][0]
        assert set(series["quantiles"]) == {"p50", "p95", "p99"}
        assert 0.0 < series["quantiles"]["p95"] <= 0.1


class TestDiffSnapshots:
    def _snap(self, counter_value, observations):
        registry = MetricsRegistry()
        registry.counter("messages_total").inc(counter_value, domain="A")
        hist = registry.histogram("lat", buckets=(1.0,))
        for _ in range(observations):
            hist.observe(0.5)
        return json_snapshot(registry)

    def test_identical_snapshots_agree(self):
        assert diff_snapshots(self._snap(3, 2), self._snap(3, 2)) == []

    def test_value_delta_reported(self):
        lines = diff_snapshots(self._snap(3, 2), self._snap(5, 2))
        assert any(
            "messages_total" in l and "3 -> 5 (+2)" in l for l in lines
        )

    def test_histogram_count_delta_reported(self):
        lines = diff_snapshots(self._snap(3, 2), self._snap(3, 7))
        assert any("lat" in l and "2 -> 7" in l for l in lines)

    def test_one_sided_metrics_and_series(self):
        a = self._snap(3, 2)
        b = self._snap(3, 2)
        extra = MetricsRegistry()
        extra.counter("only_in_b").inc()
        b["only_in_b"] = json_snapshot(extra)["only_in_b"]
        lines = diff_snapshots(a, b)
        assert any("+ metric only_in_b" in l for l in lines)
        lines = diff_snapshots(b, a)
        assert any("- metric only_in_b" in l for l in lines)
