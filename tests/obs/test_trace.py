"""Unit tests for failure categorization (``repro.util.errors``,
re-exported by ``repro.obs``)."""

import pytest

from repro.obs import categorize_failure


class TestCategorizeFailure:
    @pytest.mark.parametrize(
        ("reason", "category"),
        [
            ("leg failed: circuit build failed: relay down", "leg"),
            ("could not build circuit A->B: timeout", "circuit_build"),
            ("circuit build failed: destroyed", "circuit_build"),
            ("circuit reuse surgery failed for X: truncate refused", "circuit_reuse"),
            ("could not attach echo stream on A->B: refused", "stream"),
            ("stream became closed", "stream"),
            ("echo probe deadline with zero replies", "probe_timeout"),
            ("something entirely new", "other"),
        ],
    )
    def test_buckets_reason_strings(self, reason, category):
        assert categorize_failure(reason) == category

    @pytest.mark.parametrize(
        "reason",
        [
            "factory-built testbed lacks relays ['A']",
            "shard 2 died before reporting",
            "worker pool lost a process",
        ],
    )
    def test_worker_level_failures_bucket_as_shard(self, reason):
        assert categorize_failure(reason) == "shard"

    def test_unknown_reason_counts_uncategorized(self):
        from repro.obs import MetricsRegistry, NULL_METRICS

        metrics = MetricsRegistry()
        assert categorize_failure("gremlins in the datacenter", metrics) == "other"
        assert metrics.counter("trace.uncategorized") == 1
        # Known buckets never touch the counter.
        categorize_failure("stream became closed", metrics)
        assert metrics.counter("trace.uncategorized") == 1
        # The null registry is accepted and stays silent.
        assert categorize_failure("gremlins again", NULL_METRICS) == "other"
