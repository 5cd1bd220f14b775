"""Unit tests for the metrics registry."""

import json

import pytest

from repro.obs import (
    DEFAULT_BUCKET_EDGES_MS,
    Histogram,
    MetricsRegistry,
    NULL_METRICS,
    NullMetricsRegistry,
)
from repro.obs.registry import MICRO_BUCKET_EDGES_MS, prometheus_exposition


class TestHistogram:
    def test_starts_empty(self):
        histogram = Histogram()
        assert histogram.count == 0
        assert histogram.mean == 0.0
        assert histogram.min is None
        assert histogram.max is None

    def test_observe_tracks_count_sum_extremes(self):
        histogram = Histogram()
        for value in (3.0, 7.0, 1.0):
            histogram.observe(value)
        assert histogram.count == 3
        assert histogram.mean == pytest.approx(11.0 / 3.0)
        assert histogram.min == 1.0
        assert histogram.max == 7.0

    def test_values_land_in_correct_buckets(self):
        histogram = Histogram(edges=(1.0, 10.0, 100.0))
        histogram.observe(0.5)   # <= 1.0
        histogram.observe(1.0)   # <= 1.0 (edge is inclusive upper bound)
        histogram.observe(5.0)   # <= 10.0
        histogram.observe(1e6)   # +Inf
        assert histogram.bucket_counts == [2, 1, 0, 1]

    def test_quantile_interpolates_within_bucket(self):
        histogram = Histogram(edges=(1.0, 10.0, 100.0))
        for _ in range(9):
            histogram.observe(5.0)
        histogram.observe(50.0)
        # Rank 5 of 10 lands in the (1, 10] bucket, whose lower bound is
        # tightened to the observed min (5.0): 5 + (10-5) * 5/9.
        assert histogram.quantile(0.5) == pytest.approx(5.0 + 5.0 * 5.0 / 9.0)
        # q=1.0 is the true maximum, not the bucket's upper edge.
        assert histogram.quantile(1.0) == 50.0

    def test_quantile_of_single_value_is_exact(self):
        histogram = Histogram()
        for _ in range(3):
            histogram.observe(7.0)
        assert histogram.quantile(0.5) == 7.0
        assert histogram.quantile(0.99) == 7.0

    def test_quantiles_convenience_keys(self):
        histogram = Histogram()
        for value in range(1, 101):
            histogram.observe(float(value))
        cuts = histogram.quantiles()
        assert set(cuts) == {"p50", "p95", "p99"}
        assert cuts["p50"] <= cuts["p95"] <= cuts["p99"]
        assert cuts["p99"] <= 100.0

    def test_quantile_of_empty_is_zero(self):
        assert Histogram().quantile(0.5) == 0.0

    def test_quantile_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            Histogram().quantile(1.5)

    def test_snapshot_roundtrip(self):
        histogram = Histogram()
        for value in (0.2, 3.0, 40.0, 1e7):
            histogram.observe(value)
        restored = Histogram.from_snapshot(histogram.snapshot())
        assert restored.count == histogram.count
        assert restored.total == histogram.total
        assert restored.min == histogram.min
        assert restored.max == histogram.max
        assert restored.bucket_counts == histogram.bucket_counts

    def test_default_edges_span_probe_deadline(self):
        # The stack times everything from sub-ms forwarding delays to the
        # 600 s probe deadline; the default buckets must cover that span.
        assert DEFAULT_BUCKET_EDGES_MS[0] <= 1.0
        assert DEFAULT_BUCKET_EDGES_MS[-1] >= 600_000.0


class TestConfigurableEdges:
    def test_micro_edges_cover_the_serve_latency_span(self):
        # Point lookups answer in single-digit µs; the ladder must
        # resolve them (µs-scale first edge) while still bounding the
        # slowest batched scan (1 s final edge).
        assert MICRO_BUCKET_EDGES_MS[0] <= 0.001
        assert MICRO_BUCKET_EDGES_MS[-1] >= 1_000.0
        assert list(MICRO_BUCKET_EDGES_MS) == sorted(MICRO_BUCKET_EDGES_MS)

    def test_microsecond_quantiles_resolve_where_defaults_flatten(self):
        # 1000 samples spread over 1–50 µs: the µs ladder must place
        # p50 within bucket resolution; the default ms ladder collapses
        # the entire population into its first bucket.
        values = [0.001 + 0.049 * i / 999 for i in range(1000)]  # ms
        micro = Histogram(edges=MICRO_BUCKET_EDGES_MS)
        default = Histogram()
        for v in values:
            micro.observe(v)
            default.observe(v)
        true_p50 = values[500]
        # Within the enclosing bucket (0.02, 0.05] — a 2.5x spread,
        # versus the default ladder's first bucket spanning 0–1 ms.
        assert 0.02 <= micro.quantile(0.5) <= 0.05
        assert abs(micro.quantile(0.5) - true_p50) < 0.03
        assert default.bucket_counts[0] == 1000  # all flattened

    def test_microsecond_p99_upper_bounded_by_bucket(self):
        micro = Histogram(edges=MICRO_BUCKET_EDGES_MS)
        for _ in range(99):
            micro.observe(0.003)   # 3 µs
        micro.observe(0.040)       # one 40 µs straggler
        p99 = micro.quantile(0.99)
        assert 0.002 < p99 <= 0.05
        assert micro.quantile(1.0) == 0.040  # true max, not a bucket edge

    def test_custom_edges_survive_snapshot_roundtrip(self):
        histogram = Histogram(edges=MICRO_BUCKET_EDGES_MS)
        for v in (0.0004, 0.003, 0.7, 900.0):
            histogram.observe(v)
        snap = histogram.snapshot()
        assert snap["edges"] == list(MICRO_BUCKET_EDGES_MS)
        restored = Histogram.from_snapshot(snap)
        assert restored.edges == MICRO_BUCKET_EDGES_MS
        assert restored.bucket_counts == histogram.bucket_counts
        assert restored.quantile(0.5) == histogram.quantile(0.5)

    def test_default_edges_stay_implicit_in_snapshots(self):
        histogram = Histogram()
        histogram.observe(5.0)
        assert "edges" not in histogram.snapshot()

    def test_ensure_histogram_creates_then_returns_live(self):
        registry = MetricsRegistry()
        first = registry.ensure_histogram("serve.lat", MICRO_BUCKET_EDGES_MS)
        first.observe(0.002)
        again = registry.ensure_histogram("serve.lat", MICRO_BUCKET_EDGES_MS)
        assert again is first
        assert registry.histogram("serve.lat").count == 1

    def test_custom_edge_registries_merge_bucket_exact(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        for registry, value in ((a, 0.002), (b, 0.004)):
            registry.ensure_histogram("lat", MICRO_BUCKET_EDGES_MS).observe(value)
        a.merge_snapshot(b.snapshot())
        merged = a.histogram("lat")
        assert merged.count == 2
        assert merged.edges == MICRO_BUCKET_EDGES_MS
        assert sum(merged.bucket_counts) == 2


class TestPrometheusExposition:
    def build_registry(self):
        registry = MetricsRegistry()
        registry.inc("serve.queries", 7)
        registry.set_gauge("campaign.peak", 3.5)
        hist = registry.ensure_histogram("lat.ms", (1.0, 10.0))
        hist.observe(0.5)
        hist.observe(5.0)
        hist.observe(50.0)
        return registry

    def test_counters_get_total_suffix(self):
        text = self.build_registry().to_prometheus()
        assert "ting_serve_queries_total 7" in text

    def test_gauges_plain(self):
        text = self.build_registry().to_prometheus()
        assert "ting_campaign_peak 3.5" in text

    def test_histogram_buckets_are_cumulative(self):
        text = self.build_registry().to_prometheus()
        assert 'ting_lat_ms_bucket{le="1"} 1' in text
        assert 'ting_lat_ms_bucket{le="10"} 2' in text
        assert 'ting_lat_ms_bucket{le="+Inf"} 3' in text
        assert "ting_lat_ms_count 3" in text
        assert "ting_lat_ms_sum 55.5" in text

    def test_namespace_and_name_sanitization(self):
        registry = MetricsRegistry()
        registry.inc("serve.errors.bad-arg")
        text = registry.to_prometheus(namespace="tor")
        assert "tor_serve_errors_bad_arg_total 1" in text

    def test_empty_registry_exports_empty_text(self):
        assert MetricsRegistry().to_prometheus() == ""

    def test_exposition_from_plain_snapshot(self):
        snapshot = self.build_registry().snapshot()
        assert prometheus_exposition(snapshot) \
            == self.build_registry().to_prometheus()

    def test_output_is_deterministically_ordered(self):
        registry = MetricsRegistry()
        registry.inc("b.second")
        registry.inc("a.first")
        lines = registry.to_prometheus().splitlines()
        assert lines.index("ting_a_first_total 1") \
            < lines.index("ting_b_second_total 1")


class TestMetricsRegistry:
    def test_counters_created_on_first_inc(self):
        registry = MetricsRegistry()
        registry.inc("tor.circuits_built")
        registry.inc("tor.circuits_built", 4)
        assert registry.counter("tor.circuits_built") == 5

    def test_unknown_reads_return_defaults(self):
        registry = MetricsRegistry()
        assert registry.counter("never.written") == 0
        assert registry.gauge("never.written") is None
        assert registry.histogram("never.written") is None

    def test_set_gauge_overwrites(self):
        registry = MetricsRegistry()
        registry.set_gauge("sim.heap_pending", 10)
        registry.set_gauge("sim.heap_pending", 3)
        assert registry.gauge("sim.heap_pending") == 3.0

    def test_max_gauge_keeps_maximum(self):
        registry = MetricsRegistry()
        registry.max_gauge("campaign.peak_concurrency", 4)
        registry.max_gauge("campaign.peak_concurrency", 2)
        registry.max_gauge("campaign.peak_concurrency", 7)
        assert registry.gauge("campaign.peak_concurrency") == 7.0

    def test_observe_builds_histogram(self):
        registry = MetricsRegistry()
        registry.observe("echo.rtt_ms", 12.0)
        registry.observe("echo.rtt_ms", 18.0)
        histogram = registry.histogram("echo.rtt_ms")
        assert histogram is not None
        assert histogram.count == 2
        assert histogram.mean == 15.0

    def test_snapshot_structure(self):
        registry = MetricsRegistry()
        registry.inc("a.count")
        registry.set_gauge("b.level", 2.5)
        registry.observe("c.ms", 9.0)
        snapshot = registry.snapshot()
        assert set(snapshot) == {"counters", "gauges", "histograms"}
        assert snapshot["counters"] == {"a.count": 1}
        assert snapshot["gauges"] == {"b.level": 2.5}
        assert snapshot["histograms"]["c.ms"]["count"] == 1

    def test_json_roundtrip(self):
        registry = MetricsRegistry()
        registry.inc("tor.circuits_built", 12)
        registry.set_gauge("sim.heap_peak", 480)
        for value in (1.5, 22.0, 340.0):
            registry.observe("echo.rtt_ms", value)
        restored = MetricsRegistry.from_json(registry.to_json())
        assert restored.snapshot() == registry.snapshot()

    def test_to_json_is_valid_json(self):
        registry = MetricsRegistry()
        registry.inc("x")
        assert json.loads(registry.to_json(indent=2)) == registry.snapshot()

    def test_reset_drops_everything(self):
        registry = MetricsRegistry()
        registry.inc("a")
        registry.set_gauge("b", 1.0)
        registry.observe("c", 2.0)
        registry.reset()
        assert registry.snapshot() == {
            "counters": {},
            "gauges": {},
            "histograms": {},
        }

    def test_enabled_flag(self):
        assert MetricsRegistry().enabled is True


class TestNullMetricsRegistry:
    def test_disabled_and_records_nothing(self):
        registry = NullMetricsRegistry()
        assert registry.enabled is False
        registry.inc("a", 5)
        registry.set_gauge("b", 1.0)
        registry.max_gauge("b", 9.0)
        registry.observe("c", 3.0)
        assert registry.snapshot() == {
            "counters": {},
            "gauges": {},
            "histograms": {},
        }

    def test_reads_still_safe(self):
        assert NULL_METRICS.counter("anything") == 0
        assert NULL_METRICS.gauge("anything") is None
        assert NULL_METRICS.histogram("anything") is None

    def test_null_singleton_is_shared_default(self):
        from repro.netsim.engine import Simulator

        assert Simulator().metrics is NULL_METRICS
