"""Merge semantics for metrics registries and histograms.

Shard workers snapshot their registries and the parent folds them into
one. These tests pin the registry's own rule by example: counters sum,
gauges max, histogram buckets sum, nothing aliased. That the fold is an
algebra (associative, commutative, null as identity, snapshot round
trip) is stated once for every sink in
``tests/contract/test_merge_algebra.py``.
"""

import pytest

from repro.obs import (
    Histogram,
    MetricsRegistry,
    NULL_METRICS,
    NullMetricsRegistry,
)


def _registry(counters=(), gauges=(), observations=()) -> MetricsRegistry:
    registry = MetricsRegistry()
    for name, value in counters:
        registry.inc(name, value)
    for name, value in gauges:
        registry.set_gauge(name, value)
    for name, value in observations:
        registry.observe(name, value)
    return registry


class TestRegistryMerge:
    def test_counters_sum_gauges_max_histograms_bucket_sum(self):
        a = _registry(
            counters=[("pairs", 3)],
            gauges=[("peak", 5.0)],
            observations=[("rtt", 10.0), ("rtt", 30.0)],
        )
        b = _registry(
            counters=[("pairs", 4), ("legs", 2)],
            gauges=[("peak", 9.0)],
            observations=[("rtt", 100.0)],
        )
        a.merge_snapshot(b.snapshot())
        assert a.counter("pairs") == 7
        assert a.counter("legs") == 2
        assert a.gauge("peak") == 9.0
        histogram = a.histogram("rtt")
        assert histogram.count == 3
        assert histogram.total == 140.0
        assert histogram.min == 10.0 and histogram.max == 100.0

    def test_merge_returns_self_and_leaves_other_unchanged(self):
        a = _registry(counters=[("pairs", 1)], observations=[("rtt", 5.0)])
        b = _registry(counters=[("pairs", 2)], observations=[("rtt", 7.0)])
        assert a.merge_snapshot(b.snapshot()) is a
        assert b.counter("pairs") == 2
        assert b.histogram("rtt").count == 1

    def test_adopted_histograms_are_copies_not_aliases(self):
        a = MetricsRegistry()
        b = _registry(observations=[("rtt", 5.0)])
        a.merge_snapshot(b.snapshot())
        a.observe("rtt", 50.0)
        assert b.histogram("rtt").count == 1
        assert a.histogram("rtt").count == 2

    def test_merging_null_is_a_noop(self):
        a = _registry(counters=[("pairs", 3)])
        a.merge_snapshot(NULL_METRICS.snapshot())
        assert a.snapshot()["counters"] == {"pairs": 3}

    def test_null_merge_discards(self):
        live = _registry(counters=[("pairs", 3)])
        assert NULL_METRICS.merge_snapshot(live.snapshot()) is NULL_METRICS
        assert NULL_METRICS.counter("pairs") == 0

    def test_null_registry_is_allocation_free(self):
        null = NullMetricsRegistry()
        assert not hasattr(null, "_counters")
        snap = null.snapshot()
        snap["counters"]["evil"] = 1
        assert null.snapshot() == {"counters": {}, "gauges": {}, "histograms": {}}

    def test_null_from_json_returns_live_registry(self):
        live = _registry(counters=[("pairs", 3)])
        restored = NullMetricsRegistry.from_json(live.to_json())
        assert type(restored) is MetricsRegistry
        assert restored.counter("pairs") == 3


class TestHistogramMerge:
    def test_rejects_mismatched_edges(self):
        a = Histogram(edges=(1.0, 2.0))
        b = Histogram(edges=(1.0, 2.0, 3.0))
        with pytest.raises(ValueError, match="different edges"):
            a.merge(b)

    def test_quantiles_survive_merge(self):
        a = Histogram()
        b = Histogram()
        for value in (1.0, 2.0, 3.0):
            a.observe(value)
        for value in (100.0, 200.0, 300.0):
            b.observe(value)
        a.merge(b)
        assert a.count == 6
        assert a.quantile(0.5) <= a.quantile(0.99)
