"""Registry semantics: instrument behaviour, globals, and exporters."""

import json

import pytest

from repro.errors import ObservabilityError
from repro.obs import export, metrics
from repro.obs.metrics import MetricsRegistry


@pytest.fixture()
def registry():
    return MetricsRegistry()


class TestCounter:
    def test_monotonic(self, registry):
        c = registry.counter("requests_total")
        c.inc()
        c.inc(2.5)
        assert c.value() == 3.5
        with pytest.raises(ObservabilityError):
            c.inc(-1)
        assert c.value() == 3.5

    def test_label_sets_are_independent_series(self, registry):
        c = registry.counter("admissions_total")
        c.inc(domain="A", granted="true")
        c.inc(domain="A", granted="true")
        c.inc(domain="B", granted="false")
        assert c.value(domain="A", granted="true") == 2
        assert c.value(domain="B", granted="false") == 1
        assert c.value(domain="C") == 0
        assert c.total() == 3

    def test_label_order_is_irrelevant(self, registry):
        c = registry.counter("x_total")
        c.inc(a="1", b="2")
        assert c.value(b="2", a="1") == 1


class TestGauge:
    def test_moves_both_ways(self, registry):
        g = registry.gauge("queue_depth")
        g.set(7)
        g.inc(3)
        g.dec(5)
        assert g.value() == 5

    def test_per_label(self, registry):
        g = registry.gauge("load")
        g.set(10, resource="intra")
        g.set(20, resource="egress")
        assert g.value(resource="intra") == 10
        assert g.value(resource="egress") == 20


class TestHistogram:
    def test_bucketing(self, registry):
        h = registry.histogram("lat", buckets=(0.001, 0.01, 0.1))
        for v in (0.0005, 0.002, 0.05, 0.05, 5.0):
            h.observe(v)
        assert h.cumulative_buckets() == [(0.001, 1), (0.01, 2), (0.1, 4)]
        assert h.count() == 5  # the 5.0 only lands in the +Inf bucket
        assert h.sum() == pytest.approx(5.1025)

    def test_boundary_is_inclusive(self, registry):
        h = registry.histogram("b", buckets=(1.0, 2.0))
        h.observe(1.0)
        h.observe(2.0)
        assert h.cumulative_buckets() == [(1.0, 1), (2.0, 2)]

    def test_buckets_sorted_and_deduplicated(self, registry):
        h = registry.histogram("s", buckets=(5.0, 1.0, 2.0))
        assert h.buckets == (1.0, 2.0, 5.0)
        with pytest.raises(ObservabilityError):
            registry.histogram("dup", buckets=(1.0, 1.0))
        with pytest.raises(ObservabilityError):
            registry.histogram("empty", buckets=())


class TestRegistry:
    def test_get_or_create_returns_same_instrument(self, registry):
        assert registry.counter("a") is registry.counter("a")

    def test_kind_mismatch_raises(self, registry):
        registry.counter("thing")
        with pytest.raises(ObservabilityError, match="already registered"):
            registry.gauge("thing")

    def test_collect_is_name_sorted(self, registry):
        registry.counter("zeta")
        registry.gauge("alpha")
        assert [m.name for m in registry.collect()] == ["alpha", "zeta"]


class TestGlobals:
    def test_disabled_by_default(self):
        assert metrics.get_registry() is None

    def test_use_registry_restores_previous(self):
        with metrics.use_registry() as outer:
            with metrics.use_registry() as inner:
                assert metrics.get_registry() is inner
                assert inner is not outer
            assert metrics.get_registry() is outer
        assert metrics.get_registry() is None


class TestExporters:
    def fill(self, registry):
        registry.counter("c_total", "a counter").inc(2, domain="A")
        registry.gauge("g", "a gauge").set(1.5)
        h = registry.histogram("h", "a histogram", buckets=(0.1, 1.0))
        h.observe(0.05, op="x")
        h.observe(3.0, op="x")

    def test_prometheus_text(self, registry):
        self.fill(registry)
        text = export.prometheus_text(registry)
        assert "# HELP c_total a counter" in text
        assert "# TYPE c_total counter" in text
        assert 'c_total{domain="A"} 2' in text
        assert "g 1.5" in text
        assert '[h_bucket{le="0.1",op="x"} 1' not in text  # sanity: labels sorted
        assert 'h_bucket{le="0.1",op="x"} 1' in text
        assert 'h_bucket{le="1",op="x"} 1' in text
        assert 'h_bucket{le="+Inf",op="x"} 2' in text
        assert 'h_sum{op="x"} 3.05' in text
        assert 'h_count{op="x"} 2' in text

    def test_prometheus_empty_series_renders_zero(self, registry):
        registry.counter("nothing_total", "untouched")
        assert "nothing_total 0" in export.prometheus_text(registry)

    def test_label_escaping(self, registry):
        registry.counter("esc_total").inc(reason='say "no"\nplease')
        text = export.prometheus_text(registry)
        assert r'reason="say \"no\"\nplease"' in text

    def test_json_roundtrip(self, registry):
        self.fill(registry)
        snapshot = json.loads(export.json_text(registry))
        assert snapshot["c_total"]["kind"] == "counter"
        assert snapshot["c_total"]["series"][0] == {
            "labels": {"domain": "A"}, "value": 2,
        }
        hist = snapshot["h"]
        assert hist["buckets"] == [0.1, 1.0]
        assert hist["series"][0]["bucket_counts"] == [1, 0]
        assert hist["series"][0]["count"] == 2
