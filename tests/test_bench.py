"""Tests for the ``repro bench`` harness: schema and --check semantics.

The timings themselves are machine-dependent and not asserted; what is
pinned down is the report's shape (``BENCH_ting.json`` is a committed
artifact other tooling reads) and the regression-check contract
(``--check`` exits nonzero exactly when a workload's wall time blows
past the threshold, or when the workload sets diverge).
"""

import json
from pathlib import Path

import pytest

from repro import bench
from repro.cli import main


def _fake_report(**walls):
    return {
        name: {
            "wall_s": wall,
            "events_processed": 100,
            "cells_processed": 100,
            "throughput": 100 / wall,
        }
        for name, wall in walls.items()
    }


class TestWorkloads:
    def test_cell_crypto_entry_schema(self):
        entry = bench.bench_cell_crypto(cells=200)
        assert tuple(sorted(entry)) == tuple(sorted(bench.WORKLOAD_KEYS))
        assert entry["cells_processed"] == 200
        assert entry["wall_s"] > 0
        assert entry["throughput"] > 0

    def test_engine_events_entry_schema(self):
        entry = bench.bench_engine_events(events=2_000)
        assert tuple(sorted(entry)) == tuple(sorted(bench.WORKLOAD_KEYS))
        # Half the scheduled events are cancelled before firing.
        assert entry["events_processed"] == 1_000
        assert entry["cells_processed"] == 0

    def test_ting_single_pair_produces_traffic(self):
        entry = bench.bench_ting_single_pair()
        assert entry["events_processed"] > 0
        assert entry["cells_processed"] > 0


class TestCheckRegressions:
    def test_clean_run_passes(self):
        baseline = _fake_report(a=1.0, b=2.0)
        fresh = _fake_report(a=1.5, b=1.0)
        assert bench.check_regressions(fresh, baseline) == []

    def test_slow_workload_flagged(self):
        baseline = _fake_report(a=1.0, b=2.0)
        fresh = _fake_report(a=2.5, b=1.0)
        problems = bench.check_regressions(fresh, baseline)
        assert len(problems) == 1
        assert problems[0].startswith("a:")

    def test_missing_workloads_flagged_both_ways(self):
        baseline = _fake_report(a=1.0, gone=1.0)
        fresh = _fake_report(a=1.0, added=1.0)
        problems = bench.check_regressions(fresh, baseline)
        assert any("gone" in p for p in problems)
        assert any("added" in p for p in problems)

    def test_meta_keys_ignored(self):
        baseline = _fake_report(a=1.0)
        baseline["_meta"] = {"cpus": 64}
        fresh = _fake_report(a=1.0)
        fresh["_meta"] = {"cpus": 1}
        assert bench.check_regressions(fresh, baseline) == []

    def test_roundtrips_through_save_and_load(self, tmp_path):
        report = _fake_report(a=1.0)
        path = tmp_path / "bench.json"
        bench.save_report(report, path)
        assert bench.load_report(path) == report


class TestCheckCrossWorkload:
    """The sharded-vs-parallel throughput guard inside one report."""

    def test_sharded_at_or_above_parallel_passes(self):
        report = _fake_report(campaign_parallel=2.0, campaign_sharded=1.5)
        assert bench.check_cross_workload(report) == []

    def test_sharded_within_margin_passes(self):
        # Equal walls -> equal throughput -> ratio 1.0 >= margin.
        report = _fake_report(campaign_parallel=2.0, campaign_sharded=2.0)
        assert bench.check_cross_workload(report) == []

    def test_sharded_below_margin_flagged(self):
        # Sharded at half the parallel throughput — the v1 duplicated
        # leg-work signature — must be flagged.
        report = _fake_report(campaign_parallel=1.0, campaign_sharded=2.0)
        problems = bench.check_cross_workload(report)
        assert len(problems) == 1
        assert "campaign_sharded" in problems[0]
        assert "losing" in problems[0]

    def test_margin_is_honoured(self):
        report = _fake_report(campaign_parallel=1.0, campaign_sharded=1.2)
        assert bench.check_cross_workload(report, margin=0.5) == []
        assert len(bench.check_cross_workload(report, margin=0.95)) == 1

    def test_missing_workload_flagged(self):
        for present in ("campaign_parallel", "campaign_sharded"):
            report = _fake_report(**{present: 1.0})
            problems = bench.check_cross_workload(report)
            assert len(problems) == 1
            assert "missing" in problems[0]


class TestCheckPairCost:
    """The absolute per-pair cost ceiling on the full-network workload."""

    def test_absent_workload_passes(self):
        assert bench.check_pair_cost(_fake_report(a=1.0)) == []

    def test_under_ceiling_passes(self):
        report = _fake_report(campaign_fullnet=1.0)
        report["campaign_fullnet"]["pair_cost_ms"] = 12.0
        assert bench.check_pair_cost(report) == []

    def test_over_ceiling_flagged(self):
        report = _fake_report(campaign_fullnet=1.0)
        report["campaign_fullnet"]["pair_cost_ms"] = (
            bench.PAIR_COST_CEILING_MS * 2
        )
        problems = bench.check_pair_cost(report)
        assert len(problems) == 1
        assert "per-pair cost" in problems[0]

    def test_missing_metric_flagged(self):
        report = _fake_report(campaign_fullnet=1.0)
        problems = bench.check_pair_cost(report)
        assert len(problems) == 1
        assert "pair_cost_ms" in problems[0]

    def test_custom_ceiling(self):
        report = _fake_report(campaign_fullnet=1.0)
        report["campaign_fullnet"]["pair_cost_ms"] = 12.0
        assert bench.check_pair_cost(report, ceiling_ms=10.0) != []


class TestCheckServeQps:
    """The absolute query-rate floors on the serve-layer workload."""

    def _serve_report(self, point_qps, knn_qps):
        report = _fake_report(serve_qps=1.0)
        report["serve_qps"]["point_qps"] = point_qps
        report["serve_qps"]["knn_qps"] = knn_qps
        return report

    def test_absent_workload_passes(self):
        assert bench.check_serve_qps(_fake_report(a=1.0)) == []

    def test_above_floors_passes(self):
        report = self._serve_report(
            bench.SERVE_POINT_QPS_FLOOR * 2, bench.SERVE_KNN_QPS_FLOOR * 2
        )
        assert bench.check_serve_qps(report) == []

    def test_slow_point_queries_flagged(self):
        report = self._serve_report(
            bench.SERVE_POINT_QPS_FLOOR / 2, bench.SERVE_KNN_QPS_FLOOR * 2
        )
        problems = bench.check_serve_qps(report)
        assert len(problems) == 1
        assert "point_qps" in problems[0]

    def test_slow_knn_queries_flagged(self):
        report = self._serve_report(
            bench.SERVE_POINT_QPS_FLOOR * 2, bench.SERVE_KNN_QPS_FLOOR / 2
        )
        problems = bench.check_serve_qps(report)
        assert len(problems) == 1
        assert "knn_qps" in problems[0]

    def test_missing_metrics_flagged(self):
        problems = bench.check_serve_qps(_fake_report(serve_qps=1.0))
        assert len(problems) == 2

    def test_custom_floors(self):
        report = self._serve_report(500.0, 50.0)
        assert bench.check_serve_qps(report, point_floor=100.0, knn_floor=10.0) == []
        assert len(bench.check_serve_qps(report, point_floor=1000.0, knn_floor=10.0)) == 1

    def test_workload_runs_and_satisfies_floors(self):
        # A scaled-down live run: the floors are calibrated for 1,000
        # relays, so a 150-relay index clearing them comfortably means
        # the hot path is O(1)/O(k), not O(n).
        entry = bench.bench_serve_qps(
            relays=150, point_queries=20_000, knn_queries=4_000
        )
        assert entry["point_qps"] >= bench.SERVE_POINT_QPS_FLOOR
        assert entry["knn_qps"] >= bench.SERVE_KNN_QPS_FLOOR
        assert entry["index_build_s"] < 1.0
        assert entry["throughput"] == entry["point_qps"]


class TestCheckServeLatency:
    """The p50/p99 latency SLO ceilings on the serve_latency workload."""

    def _latency_report(
        self, point_p50, point_p99, knn_p50, knn_p99, percentile_p50, via_p50
    ):
        report = _fake_report(serve_latency=1.0)
        report["serve_latency"].update(
            point_p50_ms=point_p50, point_p99_ms=point_p99,
            knn_p50_ms=knn_p50, knn_p99_ms=knn_p99,
            percentile_p50_ms=percentile_p50, via_p50_ms=via_p50,
        )
        return report

    def _good(self):
        return self._latency_report(
            bench.SERVE_POINT_P50_CEILING_MS / 2,
            bench.SERVE_POINT_P99_CEILING_MS / 2,
            bench.SERVE_KNN_P50_CEILING_MS / 2,
            bench.SERVE_KNN_P99_CEILING_MS / 2,
            bench.SERVE_PERCENTILE_P50_CEILING_MS / 2,
            bench.SERVE_VIA_P50_CEILING_MS / 2,
        )

    def test_absent_workload_passes(self):
        assert bench.check_serve_latency(_fake_report(a=1.0)) == []

    def test_under_ceilings_passes(self):
        assert bench.check_serve_latency(self._good()) == []

    @pytest.mark.parametrize("key, ceiling", [
        ("point_p50_ms", "SERVE_POINT_P50_CEILING_MS"),
        ("point_p99_ms", "SERVE_POINT_P99_CEILING_MS"),
        ("knn_p50_ms", "SERVE_KNN_P50_CEILING_MS"),
        ("knn_p99_ms", "SERVE_KNN_P99_CEILING_MS"),
        ("percentile_p50_ms", "SERVE_PERCENTILE_P50_CEILING_MS"),
        ("via_p50_ms", "SERVE_VIA_P50_CEILING_MS"),
    ])
    def test_each_blown_slo_flagged(self, key, ceiling):
        report = self._good()
        report["serve_latency"][key] = getattr(bench, ceiling) * 2
        problems = bench.check_serve_latency(report)
        assert len(problems) == 1
        assert key in problems[0]

    def test_missing_metrics_flagged(self):
        problems = bench.check_serve_latency(_fake_report(serve_latency=1.0))
        assert len(problems) == 6

    def test_custom_ceilings(self):
        report = self._latency_report(0.5, 0.5, 0.5, 0.5, 0.5, 0.5)
        loose = {k: 1.0 for k in (
            "point_p50_ms", "point_p99_ms", "knn_p50_ms", "knn_p99_ms",
            "percentile_p50_ms", "via_p50_ms")}
        assert bench.check_serve_latency(report, ceilings=loose) == []

    def test_workload_runs_and_satisfies_slos(self):
        # A scaled-down live run against the real ceilings: quantiles
        # come from the µs telemetry histograms, so this also proves the
        # instrumented query path itself meets the latency contract.
        entry = bench.bench_serve_latency(
            relays=150, point_queries=10_000, knn_queries=2_000
        )
        assert set(bench.WORKLOAD_KEYS) <= set(entry)
        for op in ("point", "knn", "percentile", "via"):
            assert 0 < entry[f"{op}_p50_ms"] <= entry[f"{op}_p99_ms"]
        report = {"serve_latency": entry}
        assert bench.check_serve_latency(report) == []


class TestBenchCommand:
    @pytest.fixture
    def tiny_report(self, monkeypatch):
        """Replace the real workloads with an instant fake run."""
        report = _fake_report(
            cell_crypto=0.1, campaign_parallel=0.3, campaign_sharded=0.2
        )

        def fake_run_bench(**kwargs):
            return dict(report)

        monkeypatch.setattr(bench, "run_bench", fake_run_bench)
        return report

    def test_bench_writes_schema_stable_report(self, tiny_report, tmp_path, capsys):
        output = tmp_path / "BENCH_ting.json"
        code = main(["bench", "--output", str(output)])
        assert code == 0
        written = json.loads(output.read_text())
        for name, entry in written.items():
            if name.startswith("_"):
                continue
            assert set(bench.WORKLOAD_KEYS) <= set(entry)
            assert set(entry) <= set(bench.WORKLOAD_KEYS) | set(
                bench.OPTIONAL_WORKLOAD_KEYS
            )

    def test_check_passes_against_own_baseline(self, tiny_report, tmp_path):
        baseline = tmp_path / "BENCH_ting.json"
        bench.save_report(dict(tiny_report), baseline)
        code = main(["bench", "--check", "--baseline", str(baseline)])
        assert code == 0

    def test_check_fails_on_regression(self, tiny_report, tmp_path, capsys):
        slow_baseline = {
            name: {**entry, "wall_s": entry["wall_s"] / 10}
            for name, entry in tiny_report.items()
        }
        baseline = tmp_path / "BENCH_ting.json"
        bench.save_report(slow_baseline, baseline)
        code = main(["bench", "--check", "--baseline", str(baseline)])
        assert code == 1
        err = capsys.readouterr().err
        assert "regression" in err

    def test_check_fails_when_sharding_loses_to_parallel(
        self, monkeypatch, tmp_path, capsys
    ):
        # Walls match the baseline exactly — only the cross-workload
        # invariant is violated, and it alone must fail the check.
        report = _fake_report(
            cell_crypto=0.1, campaign_parallel=0.1, campaign_sharded=1.0
        )
        monkeypatch.setattr(bench, "run_bench", lambda **kwargs: dict(report))
        baseline = tmp_path / "BENCH_ting.json"
        bench.save_report(dict(report), baseline)
        code = main(["bench", "--check", "--baseline", str(baseline)])
        assert code == 1
        err = capsys.readouterr().err
        assert "losing to the single process" in err

    def test_check_missing_baseline_is_an_error(self, tiny_report, tmp_path):
        code = main(
            ["bench", "--check", "--baseline", str(tmp_path / "absent.json")]
        )
        assert code == 2

    def test_committed_baseline_matches_schema(self):
        # The repo ships BENCH_ting.json as the --check baseline; it must
        # stay parseable and schema-stable or the guard silently dies.
        report = bench.load_report(Path("BENCH_ting.json"))
        workloads = [k for k in report if not k.startswith("_")]
        assert sorted(workloads) == [
            "campaign_adaptive",
            "campaign_fullnet",
            "campaign_parallel",
            "campaign_sharded",
            "cell_crypto",
            "engine_events",
            "serve_latency",
            "serve_qps",
            "ting_single_pair",
        ]
        for name in workloads:
            assert set(bench.WORKLOAD_KEYS) <= set(report[name])
            assert set(report[name]) <= set(bench.WORKLOAD_KEYS) | set(
                bench.OPTIONAL_WORKLOAD_KEYS
            )
            assert report[name]["wall_s"] > 0
        # The scale-proof workload must carry (and satisfy) the pinned
        # per-pair cost.
        fullnet = report["campaign_fullnet"]
        assert fullnet["pairs_measured"] > 0
        assert 0 < fullnet["pair_cost_ms"] <= bench.PAIR_COST_CEILING_MS
        assert bench.check_pair_cost(report) == []
        # The serve-layer workload must carry (and satisfy) the query
        # rate floors the acceptance criteria pin.
        serve = report["serve_qps"]
        assert serve["point_qps"] >= bench.SERVE_POINT_QPS_FLOOR
        assert serve["knn_qps"] >= bench.SERVE_KNN_QPS_FLOOR
        assert 0 < serve["index_build_s"] < 1.0
        assert bench.check_serve_qps(report) == []
        # The telemetry-driven latency workload must carry (and satisfy)
        # the p50/p99 SLO ceilings bench --check enforces.
        latency = report["serve_latency"]
        assert 0 < latency["point_p50_ms"] <= latency["point_p99_ms"]
        assert 0 < latency["knn_p50_ms"] <= latency["knn_p99_ms"]
        assert 0 < latency["percentile_p50_ms"] <= latency["percentile_p99_ms"]
        assert 0 < latency["via_p50_ms"] <= latency["via_p99_ms"]
        assert bench.check_serve_latency(report) == []

    def test_committed_baseline_sharding_beats_parallel(self):
        # The acceptance bar for shard engine v2: the committed baseline
        # must show the sharded campaign at or above the single-process
        # campaign's throughput — not merely within the runtime margin.
        report = bench.load_report(Path("BENCH_ting.json"))
        assert (
            report["campaign_sharded"]["throughput"]
            >= report["campaign_parallel"]["throughput"]
        )
        assert bench.check_cross_workload(report) == []
