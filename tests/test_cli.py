"""Tests for the command-line interface."""

import functools
import json

import numpy as np
import pytest
from conftest import JSON_DATASETS

from repro.cli import build_parser, main, resolve_policy
from repro.core import shard
from repro.core.dataset import CampaignDataset, RttMatrix
from repro.core.shard import ShardedCampaign
from repro.testbeds.livetor import LiveTorTestbed


@pytest.fixture
def small_matrix_file(tmp_path):
    rng = np.random.default_rng(0)
    n = 8
    nodes = [f"N{i}" for i in range(n)]
    matrix = RttMatrix(nodes)
    points = rng.uniform(0, 1, (n, 2))
    for i in range(n):
        for j in range(i + 1, n):
            base = float(np.linalg.norm(points[i] - points[j])) * 300 + 5
            matrix.set(nodes[i], nodes[j], base + float(rng.uniform(0, 40)))
    path = tmp_path / "matrix.npz"
    CampaignDataset(matrix=matrix).save(path)
    return path


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    def test_seed_is_global(self):
        args = build_parser().parse_args(["--seed", "7", "coverage"])
        assert args.seed == 7


class TestCommands:
    def test_validate_runs(self, capsys):
        code = main(["validate", "--relays", "4", "--samples", "20"])
        out = capsys.readouterr().out
        assert code == 0
        assert "within 10% of ping" in out
        assert "Spearman" in out

    def test_measure_writes_a_dataset(self, tmp_path, capsys):
        output = tmp_path / "out.json"
        code = main(
            [
                "measure",
                "--relays", "4",
                "--network-size", "20",
                "--samples", "15",
                "--output", str(output),
            ]
        )
        assert code == 0
        assert output.read_bytes()[:4] == b"PK\x03\x04"
        dataset = CampaignDataset.load(output)
        assert dataset.matrix.is_complete
        assert len(dataset.matrix) == 4
        meta = dict(dataset.meta)
        assert sorted(meta.pop("geo")) == sorted(dataset.matrix.nodes)
        assert meta == {
            "seed": 2015, "network_size": 20, "relays": 4, "samples": 15,
            "pairs_attempted": 6,
        }

    def test_measure_adaptive_policy_reports_savings(self, capsys):
        code = main(
            [
                "measure",
                "--relays", "4",
                "--network-size", "20",
                "--samples", "40",
                "--policy", "adaptive-1ms",
            ]
        )
        err = capsys.readouterr().err
        assert code == 0
        assert "adaptive-1ms policy" in err
        assert "saved" in err

    def test_measure_probe_budget_reported(self, capsys):
        code = main(
            [
                "measure",
                "--relays", "4",
                "--network-size", "20",
                "--samples", "15",
                "--probe-budget", "10000",
            ]
        )
        err = capsys.readouterr().err
        assert code == 0
        assert "probe budget: " in err

    def test_stats_rejects_budget_with_workers(self, capsys):
        code = main(
            [
                "stats",
                "--relays", "4",
                "--workers", "2",
                "--probe-budget", "100",
            ]
        )
        assert code == 2
        assert "unsharded" in capsys.readouterr().err

    def test_resolve_policy_choices(self):
        from repro.cli import resolve_policy

        fixed = resolve_policy("fixed", 50)
        assert fixed.adaptive is None and fixed.samples == 50
        for name in ("adaptive-1ms", "adaptive-5pct"):
            policy = resolve_policy(name, 50)
            assert policy.adaptive is not None
            assert policy.samples == 50
            assert policy.interval_ms is None
        # Small caps clamp min_samples instead of raising.
        assert resolve_policy("adaptive-1ms", 5).adaptive.min_samples == 5
        with pytest.raises(ValueError):
            resolve_policy("bogus", 50)

    def test_tiv_reads_matrix(self, small_matrix_file, capsys):
        code = main(["tiv", str(small_matrix_file)])
        out = capsys.readouterr().out
        assert code == 0
        assert "pairs with a TIV" in out

    def test_deanon_reads_matrix(self, small_matrix_file, capsys):
        code = main(["deanon", str(small_matrix_file), "--runs", "30"])
        out = capsys.readouterr().out
        assert code == 0
        assert "speedup" in out
        assert "informed" in out

    def test_coverage_runs(self, capsys):
        code = main(["coverage", "--days", "3", "--relays", "300"])
        out = capsys.readouterr().out
        assert code == 0
        assert "unique /24s" in out
        assert "residential" in out

    def test_stats_reports_counters(self, capsys):
        code = main(
            [
                "stats",
                "--relays", "4",
                "--network-size", "20",
                "--samples", "10",
                "--concurrency", "3",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "tor.circuits_built" in out
        assert "echo.probes_sent" in out
        assert "ting.leg_cache_hits" in out
        assert "sim.heap_compactions" in out
        assert "probe loss rate" in out
        assert "bus events emitted" in out
        # Bucket-interpolated quantiles for every recorded histogram.
        assert "latency quantiles (bucket-interpolated):" in out
        assert "p50~" in out and "p95~" in out
        assert "p99=" in out

    def test_stats_writes_json_snapshot(self, tmp_path, capsys):
        import json

        output = tmp_path / "metrics.json"
        code = main(
            [
                "stats",
                "--relays", "3",
                "--network-size", "20",
                "--samples", "10",
                "--output", str(output),
            ]
        )
        assert code == 0
        snapshot = json.loads(output.read_text())
        assert set(snapshot) == {"counters", "gauges", "histograms"}
        assert snapshot["counters"]["tor.circuits_built"] > 0
        assert snapshot["histograms"]["echo.rtt_ms"]["count"] > 0

    def test_seed_changes_validate_world(self, capsys):
        main(["--seed", "1", "validate", "--relays", "4", "--samples", "10"])
        first = capsys.readouterr()
        # (Seed 3, not 2: stdout is two coarse summary figures over six
        # pairs, and seeds 1 and 2 both print 100.0% / 1.0000.)
        main(["--seed", "3", "validate", "--relays", "4", "--samples", "10"])
        second = capsys.readouterr()
        # Per-pair progress (stderr) and the accuracy results (stdout)
        # both reflect the seeded world.
        assert first.err != second.err
        assert first.out != second.out


class TestQuiet:
    def test_quiet_silences_progress_but_not_results(self, capsys):
        code = main(
            ["--quiet", "validate", "--relays", "4", "--samples", "10"]
        )
        captured = capsys.readouterr()
        assert code == 0
        assert captured.err == ""
        # The measured results are output, not progress chatter.
        assert "within 10% of ping" in captured.out

    def test_quiet_measure_emits_nothing(self, capsys):
        code = main(
            [
                "--quiet",
                "measure",
                "--relays", "4",
                "--network-size", "20",
                "--samples", "10",
            ]
        )
        captured = capsys.readouterr()
        assert code == 0
        assert captured.err == ""
        assert captured.out == ""


class TestLiveTelemetryFlags:
    def test_measure_progress_draws_status_line(self, capsys):
        code = main(
            [
                "measure",
                "--relays", "4",
                "--network-size", "20",
                "--samples", "10",
                "--progress",
            ]
        )
        err = capsys.readouterr().err
        assert code == 0
        assert "pairs 6/6" in err

    def test_measure_events_writes_jsonl(self, tmp_path, capsys):
        import json

        events = tmp_path / "events.jsonl"
        code = main(
            [
                "measure",
                "--relays", "4",
                "--network-size", "20",
                "--samples", "10",
                "--events", str(events),
            ]
        )
        assert code == 0
        records = [
            json.loads(line) for line in events.read_text().splitlines()
        ]
        assert records
        kinds = {(r["category"], r["kind"]) for r in records}
        assert ("campaign", "pair_measured") in kinds
        assert ("probe", "round_finished") in kinds

    def test_report_streams_events_and_progress(self, tmp_path, capsys):
        import json

        events = tmp_path / "events.jsonl"
        code = main(
            [
                "report",
                "--relays", "4",
                "--network-size", "20",
                "--samples", "5",
                "--workers", "2",
                "--no-ground-truth",
                "--progress",
                "--events", str(events),
                "--worker-timeout", "300",
            ]
        )
        captured = capsys.readouterr()
        assert code == 0
        assert "pairs " in captured.err
        assert "== campaign ==" in captured.out
        records = [
            json.loads(line) for line in events.read_text().splitlines()
        ]
        shards = {r["shard"] for r in records}
        # Leg-phase events stream under the LEG_PHASE sentinel (-1);
        # the 6 pairs fit one steal chunk, so one worker claims them all.
        assert shards == {-1, 0}


class TestTail:
    @pytest.fixture
    def events_file(self, tmp_path):
        from repro.obs import EventBus, JsonlSink

        path = tmp_path / "events.jsonl"
        bus = EventBus()
        with JsonlSink(path) as sink:
            bus.add_sink(sink)
            bus.debug("probe", "round_started", pair="A:B")
            bus.info("campaign", "pair_measured", x="A", y="B", rtt_ms=12.5)
            bus.warning("relay", "queue_saturated", backlog_ms=61.0)
        return path

    def test_tail_renders_all_lines(self, events_file, capsys):
        code = main(["tail", str(events_file)])
        out = capsys.readouterr().out
        assert code == 0
        assert "campaign.pair_measured" in out
        assert "probe.round_started" in out
        assert "relay.queue_saturated" in out

    def test_tail_min_severity_filter(self, events_file, capsys):
        code = main(["tail", str(events_file), "--min-severity", "warning"])
        out = capsys.readouterr().out
        assert code == 0
        assert "relay.queue_saturated" in out
        assert "pair_measured" not in out

    def test_tail_category_and_kind_filters(self, events_file, capsys):
        main(["tail", str(events_file), "--category", "campaign"])
        out = capsys.readouterr().out
        assert out.count("\n") == 1 and "campaign.pair_measured" in out
        main(["tail", str(events_file), "--kind", "round_started"])
        out = capsys.readouterr().out
        assert out.count("\n") == 1 and "probe.round_started" in out

    def test_tail_missing_file_fails(self, tmp_path, capsys):
        code = main(["tail", str(tmp_path / "nope.jsonl")])
        assert code == 2
        assert "not found" in capsys.readouterr().err

    def test_tail_skips_malformed_lines(self, events_file, capsys):
        with events_file.open("a") as handle:
            handle.write("this is not json\n")
        code = main(["tail", str(events_file)])
        captured = capsys.readouterr()
        assert code == 0
        assert "skipping malformed line" in captured.err
        assert "relay.queue_saturated" in captured.out


class TestDatasetRoundTrip:
    def test_adaptive_provenance_survives_save_load_report(
        self, tmp_path, capsys
    ):
        from repro.core.dataset import CampaignDataset

        dataset_path = tmp_path / "ds.json"
        code = main(
            [
                "report",
                "--relays", "4",
                "--network-size", "40",
                "--samples", "50",
                "--policy", "adaptive-1ms",
                "--workers", "2",
                "--no-ground-truth",
                "--output", str(dataset_path),
            ]
        )
        capsys.readouterr()
        assert code == 0

        dataset = CampaignDataset.load(dataset_path)
        records = dataset.provenance.records()
        assert records
        # The adaptive-policy provenance fields must survive the trip.
        assert any(r.samples_saved > 0 for r in records)
        assert any(r.stop_reason == "converged" for r in records)

        code = main(["report", "--input", str(dataset_path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "probe cost" in out
        assert "saved" in out


class TestJsonDatasetRefused:
    """Every command that reads a dataset reads it through
    ``CampaignDataset.load``, so a JSON one fails each of them the same
    way: the ``MeasurementError`` that names the conversion, printed by
    ``main`` as one ``repro:`` line on stderr with exit status 1
    (``tail``'s case is ``TestTailDatasetReplay``'s)."""

    @pytest.mark.parametrize("document", sorted(JSON_DATASETS))
    @pytest.mark.parametrize(
        "argv",
        [
            ["tiv", "{}"],
            ["deanon", "{}", "--runs", "5"],
            ["report", "--input", "{}"],
            ["plan", "--relays", "3", "--network-size", "10", "--input", "{}"],
            ["health", "--input", "{}"],
            ["health", "--input", "NPZ", "--baseline", "{}"],
            ["serve", "--input", "{}", "freshness"],
            ["serve", "--input", "{}", "--mmap", "freshness"],
        ],
        ids=lambda argv: " ".join(arg for arg in argv if arg not in ("{}", "NPZ")),
    )
    def test_a_json_dataset_names_the_conversion(self, tmp_path, capsys, argv, document):
        path = tmp_path / "campaign.json"
        path.write_text(JSON_DATASETS[document])
        npz = tmp_path / "ds.npz"
        _synthetic_dataset(n=5).save(npz)
        paths = {"{}": str(path), "NPZ": str(npz)}
        assert main([paths.get(arg, arg) for arg in argv]) == 1
        err = capsys.readouterr().err.splitlines()
        # One line after any progress chatter, no traceback: the loader's
        # MeasurementError, named.
        assert err[-1].startswith("repro: ") and "Converting a JSON dataset" in err[-1]
        assert not any(line.startswith("repro: ") for line in err[:-1])
        assert "Traceback" not in "\n".join(err)


class TestOneWorldPerCommand:
    """``stats --workers N``, ``report`` and ``plan --run`` build one world:
    the relay selection and the sharded run share it, so a forked run
    leaves no second world kept that nothing takes."""

    ARGS = ["--network-size", "20", "--samples", "3", "--workers", "2"]

    @pytest.fixture
    def builds(self, monkeypatch):
        calls = []
        build = LiveTorTestbed.build

        def counted(**kwargs):
            calls.append(kwargs)
            return build(**kwargs)

        monkeypatch.setattr(LiveTorTestbed, "build", counted)
        return calls

    def fresh_matrix(self, nodes, pairs=None):
        """The matrix a run on a world of its own measures."""
        return ShardedCampaign(
            functools.partial(LiveTorTestbed.build, seed=7, n_relays=20),
            nodes,
            policy=resolve_policy("fixed", 3),
            workers=2,
            pairs=pairs,
            observe=True,
            clamp_to_cpus=True,
        ).run().matrix.matrix

    def test_stats(self, builds, capsys):
        assert main(["--seed", "7", "stats", "--relays", "4", *self.ARGS]) == 0
        capsys.readouterr()
        assert builds == [{"seed": 7, "n_relays": 20}]
        assert shard._kept is None

    def test_report(self, builds, tmp_path, capsys):
        output = tmp_path / "report.npz"
        code = main(["--seed", "7", "report", "--relays", "4", *self.ARGS, "--output", str(output)])
        capsys.readouterr()
        assert code == 0
        assert builds == [{"seed": 7, "n_relays": 20}]
        assert shard._kept is None
        saved = CampaignDataset.load(output).matrix
        assert np.array_equal(
            saved.matrix, self.fresh_matrix(saved.nodes), equal_nan=True
        )

    def test_plan_run(self, builds, tmp_path, capsys):
        output, plan = tmp_path / "plan.npz", tmp_path / "plan.json"
        code = main([
            "--seed", "7", "plan", "--relays", "6", *self.ARGS, "--budget", "5", "--run",
            "--output", str(output), "--json", str(plan),
        ])
        capsys.readouterr()
        assert code == 0
        assert builds == [{"seed": 7, "n_relays": 20}]
        assert shard._kept is None
        saved = CampaignDataset.load(output).matrix
        planned = [(a, b) for a, b, _ in json.loads(plan.read_text())["pairs"]]
        assert np.array_equal(
            saved.matrix, self.fresh_matrix(saved.nodes, planned), equal_nan=True
        )


class TestPlanCommand:
    def test_cold_start_plan_prints_summary(self, capsys):
        code = main(
            [
                "plan",
                "--relays", "6",
                "--network-size", "20",
                "--budget", "5",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "plan: 5 of 15 candidate pairs" in out
        assert "unmeasured=15" in out

    def test_run_then_refresh_roundtrip(self, tmp_path, capsys):
        from repro.core.dataset import CampaignDataset

        dataset_path = tmp_path / "plan_ds.npz"
        code = main(
            [
                "plan",
                "--relays", "6",
                "--network-size", "20",
                "--budget", "8",
                "--samples", "3",
                "--run",
                "--output", str(dataset_path),
            ]
        )
        capsys.readouterr()
        assert code == 0
        # Binary by suffix; the planner campaign measured the budget.
        assert dataset_path.read_bytes()[:4] == b"PK\x03\x04"
        dataset = CampaignDataset.load(dataset_path)
        assert dataset.matrix.num_measured == 8
        assert len(dataset.provenance) == 8

        # Second pass refreshes the stale dataset incrementally.
        code = main(
            [
                "plan",
                "--relays", "6",
                "--network-size", "20",
                "--budget", "4",
                "--samples", "3",
                "--input", str(dataset_path),
                "--run",
                "--output", str(dataset_path),
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "refreshed 4 pair entries" in out
        refreshed = CampaignDataset.load(dataset_path)
        assert refreshed.matrix.num_measured > 8
        assert len(refreshed.provenance) == 12

    def test_plan_json_artifact(self, tmp_path, capsys):
        import json as json_mod

        out_path = tmp_path / "plan.json"
        code = main(
            [
                "plan",
                "--relays", "5",
                "--network-size", "20",
                "--budget", "3",
                "--json", str(out_path),
            ]
        )
        capsys.readouterr()
        assert code == 0
        payload = json_mod.loads(out_path.read_text())
        assert payload["summary"]["planned"] == 3
        assert len(payload["pairs"]) == 3

    def test_negative_budget_is_refused(self, capsys):
        # `--budget -1` used to plan all but one pair (a Python slice).
        code = main(
            ["plan", "--relays", "6", "--network-size", "20", "--budget", "-1"]
        )
        captured = capsys.readouterr()
        assert code == 2
        assert "--budget must be zero or more" in captured.err
        assert "plan:" not in captured.out

    def test_predict_requires_input(self, capsys):
        code = main(
            ["plan", "--relays", "5", "--network-size", "20", "--predict"]
        )
        err = capsys.readouterr().err
        assert code == 2
        assert "--predict needs --input" in err

    def test_quality_requires_input(self, capsys):
        code = main(
            ["plan", "--relays", "5", "--network-size", "20", "--quality"]
        )
        err = capsys.readouterr().err
        assert code == 2
        assert "--quality needs --input" in err

    def test_quality_axis_feeds_replan(self, tmp_path, capsys):
        dataset_path = tmp_path / "plan_ds.npz"
        code = main(
            [
                "plan",
                "--relays", "6",
                "--network-size", "20",
                "--budget", "8",
                "--samples", "3",
                "--run",
                "--output", str(dataset_path),
            ]
        )
        capsys.readouterr()
        assert code == 0
        code = main(
            [
                "plan",
                "--relays", "6",
                "--network-size", "20",
                "--budget", "4",
                "--input", str(dataset_path),
                "--quality",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        # Every measured pair got a quality deficit in the breakdown.
        assert "with_quality=8" in out


def _synthetic_dataset(n=8, negative_pair=None):
    """A saved-dataset builder for health/tail command tests."""
    import numpy as np_mod

    from repro.core.dataset import (
        CampaignDataset,
        PairProvenance,
        ProvenanceLog,
        RttMatrix,
    )

    nodes = [f"N{i:02d}" for i in range(n)]
    matrix = RttMatrix(nodes)
    log = ProvenanceLog()
    rng = np_mod.random.default_rng(3)
    for i in range(n):
        for j in range(i + 1, n):
            rtt = float(rng.uniform(20, 200))
            matrix.set(nodes[i], nodes[j], rtt)
            log.add(
                PairProvenance(
                    x=nodes[i], y=nodes[j], status="measured", rtt_ms=rtt,
                    samples_requested=6, samples_kept=6, shard=(i + j) % 2,
                )
            )
    log.add(
        PairProvenance(
            x=nodes[0], y=nodes[1], status="failed",
            failure_category="timeout", retries=1,
        )
    )
    if negative_pair is not None:
        # Bypass RttMatrix.set's validation to plant the anomaly.
        values = matrix.copy_matrix()
        i, j = negative_pair
        values[i, j] = values[j, i] = -5.0
        matrix = RttMatrix.from_array(nodes, values)
    return CampaignDataset(matrix=matrix, provenance=log)


class TestHealthCommand:
    def test_scorecard_on_clean_dataset(self, tmp_path, capsys):
        path = tmp_path / "ds.npz"
        _synthetic_dataset().save(path)
        code = main(["health", "--input", str(path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "== matrix health ==" in out
        assert "== checks ==" in out
        assert "== pair quality ==" in out

    def test_check_passes_on_clean_dataset(self, tmp_path, capsys):
        path = tmp_path / "ds.json"
        _synthetic_dataset().save(path)
        code = main(["health", "--input", str(path), "--check"])
        capsys.readouterr()
        assert code == 0

    def test_check_fails_on_negative_rtt(self, tmp_path, capsys):
        path = tmp_path / "broken.npz"
        _synthetic_dataset(negative_pair=(2, 5)).save(path)
        code = main(["health", "--input", str(path), "--check"])
        captured = capsys.readouterr()
        assert code == 1
        assert "negative_rtt" in captured.out
        assert "health check FAILED" in captured.err
        assert "plausibility" in captured.err

    def test_without_check_anomalies_do_not_gate(self, tmp_path, capsys):
        path = tmp_path / "broken.npz"
        _synthetic_dataset(negative_pair=(2, 5)).save(path)
        code = main(["health", "--input", str(path)])
        out = capsys.readouterr().out
        assert code == 0  # report-only mode
        assert "FAIL" in out

    def test_stale_after_gates_old_pairs(self, tmp_path, capsys):
        path = tmp_path / "ds.npz"
        _synthetic_dataset().save(path)
        code = main(
            ["health", "--input", str(path), "--stale-after", "5", "--check"]
        )
        captured = capsys.readouterr()
        assert code == 1
        assert "stale_pair" in captured.out
        assert "staleness" in captured.err

    def test_baseline_emits_drift_section(self, tmp_path, capsys):
        from repro.core.dataset import (
            PairProvenance,
            ProvenanceLog,
            RttMatrix,
        )

        base_path = tmp_path / "base.npz"
        cur_path = tmp_path / "cur.npz"
        baseline = _synthetic_dataset()
        baseline.save(base_path)
        current = _synthetic_dataset()
        fresh = RttMatrix(current.matrix.nodes)
        fresh.set("N00", "N03", 400.0)
        log = ProvenanceLog()
        log.add(
            PairProvenance(x="N00", y="N03", status="measured", rtt_ms=400.0)
        )
        current.absorb(fresh, provenance=log)
        current.save(cur_path)
        code = main(
            [
                "health",
                "--input", str(cur_path),
                "--baseline", str(base_path),
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "== dataset drift ==" in out
        assert "1 changed" in out
        assert "remeasured" in out

    def test_json_artifact_holds_health_and_drift(self, tmp_path, capsys):
        import json as json_mod

        base_path = tmp_path / "base.npz"
        out_path = tmp_path / "health.json"
        _synthetic_dataset().save(base_path)
        code = main(
            [
                "health",
                "--input", str(base_path),
                "--baseline", str(base_path),
                "--json", str(out_path),
            ]
        )
        capsys.readouterr()
        assert code == 0
        payload = json_mod.loads(out_path.read_text())
        assert payload["health"]["format"] == "ting-health/1"
        assert payload["drift"]["format"] == "ting-drift/1"
        assert payload["drift"]["pairs"]["changed"] == 0

    def test_missing_input_fails(self, tmp_path, capsys):
        code = main(["health", "--input", str(tmp_path / "nope.npz")])
        assert code == 2
        assert "not found" in capsys.readouterr().err


class TestTailDatasetReplay:
    def test_dataset_provenance_replays_as_events(self, tmp_path, capsys):
        path = tmp_path / "ds.npz"
        _synthetic_dataset(n=5).save(path)
        code = main(["tail", str(path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "campaign.pair_measured" in out
        assert "campaign.pair_failed" in out
        # 10 measured + 1 failed provenance rows, one line each.
        assert out.count("\n") == 11

    @pytest.mark.parametrize("document", sorted(JSON_DATASETS))
    def test_a_json_dataset_is_refused_not_replayed(self, tmp_path, capsys, document):
        # Sniffed as a dataset, either goes to the loader, which refuses
        # it. Read as JSONL, the tagged one would print one bogus event
        # line, and the bare matrix printed nothing and exited 0.
        path = tmp_path / "campaign.json"
        path.write_text(JSON_DATASETS[document])
        assert main(["tail", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("repro: ") and captured.err.count("\n") == 1
        assert "Converting a JSON dataset" in captured.err

    def test_since_filters_provenance_rows(self, tmp_path, capsys):
        path = tmp_path / "ds.npz"
        _synthetic_dataset(n=5).save(path)
        code = main(["tail", str(path), "--since", "9"])
        out = capsys.readouterr().out
        assert code == 0
        # Rows 9 and 10 of the 11-row history remain.
        assert out.count("\n") == 2

    def test_severity_filter_applies_to_replay(self, tmp_path, capsys):
        path = tmp_path / "ds.npz"
        _synthetic_dataset(n=5).save(path)
        code = main(["tail", str(path), "--min-severity", "warning"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.count("\n") == 1
        assert "campaign.pair_failed" in out
        assert "cause=timeout" in out

    def test_follow_is_ignored_with_notice(self, tmp_path, capsys):
        path = tmp_path / "ds.npz"
        _synthetic_dataset(n=5).save(path)
        code = main(["tail", str(path), "--follow"])
        captured = capsys.readouterr()
        assert code == 0
        assert "--follow is ignored" in captured.err
        assert "campaign.pair_measured" in captured.out


class TestServeCommand:
    def _dataset_path(self, tmp_path, suffix=".npz"):
        path = tmp_path / f"ds{suffix}"
        _synthetic_dataset().save(path)
        return path

    def test_point_query(self, tmp_path, capsys):
        import json as json_mod

        path = self._dataset_path(tmp_path)
        code = main(["-q", "serve", "--input", str(path), "point", "N00", "N01"])
        answer = json_mod.loads(capsys.readouterr().out)
        assert code == 0
        assert answer["op"] == "point"
        assert answer["measured"] is True
        assert answer["rtt_ms"] > 0
        assert "quality" in answer and "version" in answer

    def test_knn_query_with_k(self, tmp_path, capsys):
        import json as json_mod

        path = self._dataset_path(tmp_path)
        code = main(["-q", "serve", "--input", str(path), "knn", "N02", "3"])
        answer = json_mod.loads(capsys.readouterr().out)
        assert code == 0
        assert len(answer["neighbors"]) == 3
        rtts = [p["rtt_ms"] for p in answer["neighbors"]]
        assert rtts == sorted(rtts)

    def test_via_and_path_queries(self, tmp_path, capsys):
        import json as json_mod

        path = self._dataset_path(tmp_path)
        code = main(["-q", "serve", "--input", str(path), "via", "N00", "N05"])
        answer = json_mod.loads(capsys.readouterr().out)
        assert code == 0
        assert answer["detours"][0]["via"] is not None
        code = main(
            ["-q", "serve", "--input", str(path), "path", "N00", "N03", "N06"]
        )
        answer = json_mod.loads(capsys.readouterr().out)
        assert code == 0
        assert answer["rtt_ms"] > 0

    def test_freshness_query(self, tmp_path, capsys):
        import json as json_mod

        path = self._dataset_path(tmp_path)
        code = main(["-q", "serve", "--input", str(path), "freshness"])
        info = json_mod.loads(capsys.readouterr().out)
        assert code == 0
        assert info["nodes"] == 8
        assert info["measured_pairs"] == 28

    def test_unknown_node_exits_nonzero(self, tmp_path, capsys):
        path = self._dataset_path(tmp_path)
        code = main(["-q", "serve", "--input", str(path), "point", "ghost", "N01"])
        capsys.readouterr()
        assert code == 1

    def test_bad_grammar_exits_2(self, tmp_path, capsys):
        path = self._dataset_path(tmp_path)
        code = main(["-q", "serve", "--input", str(path), "point", "N00"])
        captured = capsys.readouterr()
        assert code == 2
        assert "bad query" in captured.err

    def test_batch_jsonl_mode(self, tmp_path, capsys):
        import json as json_mod

        path = self._dataset_path(tmp_path)
        batch = tmp_path / "queries.jsonl"
        batch.write_text(
            '{"op": "point", "x": "N00", "y": "N01"}\n'
            '{"op": "knn", "x": "N02", "k": 2}\n'
            "garbage line\n"
            '{"op": "via", "x": "N03", "y": "N04"}\n'
        )
        code = main(
            ["-q", "serve", "--input", str(path), "--batch", str(batch),
             "--workers", "2", "--mmap"]
        )
        out = capsys.readouterr().out
        assert code == 0
        answers = [json_mod.loads(line) for line in out.splitlines()]
        assert len(answers) == 4
        assert answers[0]["op"] == "point" and "error" not in answers[0]
        assert answers[1]["op"] == "knn"
        assert "error" in answers[2]  # the garbage line, in input order
        assert answers[3]["op"] == "via"

    def test_batch_output_is_strict_json_for_a_non_finite_rank(
        self, tmp_path, capsys
    ):
        import json as json_mod

        path = self._dataset_path(tmp_path)
        batch = tmp_path / "queries.jsonl"
        batch.write_text(
            '{"op": "rank", "x": "N00", "rtt_ms": NaN}\n'
            '{"op": "rank", "x": "N00", "rtt_ms": Infinity}\n'
            '{"op": "rank", "x": "N00", "rtt_ms": "nan"}\n'
            '{"op": "rank", "x": "N00", "rtt_ms": 40.0}\n'
        )
        code = main(["-q", "serve", "--input", str(path), "--batch", str(batch)])
        out = capsys.readouterr().out
        assert code == 0

        def refuse(token):
            raise AssertionError(f"non-finite token {token!r} on the serve wire")

        answers = [
            json_mod.loads(line, parse_constant=refuse) for line in out.splitlines()
        ]
        assert [a.get("category") for a in answers] == ["bad_arg"] * 3 + [None]
        assert 0.0 <= answers[3]["rank"] <= 1.0

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_batch_answers_non_object_lines(self, tmp_path, capsys, workers):
        import json as json_mod

        path = self._dataset_path(tmp_path)
        batch = tmp_path / "queries.jsonl"
        good = '{"op": "point", "x": "N00", "y": "N01"}\n'
        batch.write_text(
            good + "[1, 2]\n" + '"abc"\n' + "42\n" + "null\n" + good
        )
        code = main(["-q", "serve", "--input", str(path), "--batch", str(batch),
                     "--workers", workers])
        out = capsys.readouterr().out
        assert code == 0
        answers = [json_mod.loads(line) for line in out.splitlines()]
        assert [a.get("category") for a in answers] == [None] + ["bad_arg"] * 4 + [None]
        assert all(a["op"] is None for a in answers[1:5])
        assert answers[0] == answers[5] and answers[0]["rtt_ms"] > 0

    def test_batch_answers_a_query_whatever_keys_it_carries(self, tmp_path, capsys):
        import json as json_mod

        path = self._dataset_path(tmp_path)
        batch = tmp_path / "queries.jsonl"
        batch.write_text(
            '{"op": "point", "x": "N00", "y": "N01", "_parse": "mine"}\n'
            "not json\n"
            '{"op": "knn", "x": "N02", "k": 2, "_parse": 1}\n'
        )
        code = main(["-q", "serve", "--input", str(path), "--batch", str(batch)])
        out = capsys.readouterr().out
        assert code == 0
        answers = [json_mod.loads(line) for line in out.splitlines()]
        assert [a["op"] for a in answers] == ["point", None, "knn"]
        assert "error" not in answers[0] and "error" not in answers[2]
        assert answers[1]["error"].startswith("bad JSONL <line 2>: ")

    def test_exactly_one_mode_required(self, tmp_path, capsys):
        path = self._dataset_path(tmp_path)
        code = main(["-q", "serve", "--input", str(path)])
        captured = capsys.readouterr()
        assert code == 2
        assert "exactly one" in captured.err

    def test_missing_dataset_exits_2(self, tmp_path, capsys):
        code = main(
            ["-q", "serve", "--input", str(tmp_path / "no.npz"), "freshness"]
        )
        captured = capsys.readouterr()
        assert code == 2
        assert "not found" in captured.err


class TestServeTelemetryCli:
    def _dataset_path(self, tmp_path):
        path = tmp_path / "ds.npz"
        _synthetic_dataset().save(path)
        return path

    def _batch_path(self, tmp_path):
        import json as json_mod

        batch = tmp_path / "queries.jsonl"
        queries = [
            {"op": "point", "x": "N00", "y": "N01"},
            {"op": "knn", "x": "N02", "k": 2},
            {"op": "percentile", "x": "N03", "q": 50.0},
            {"op": "teleport"},
            {"op": "via", "x": "N04", "y": "N05"},
            {"op": "point", "x": "N06", "y": "N07"},
        ]
        batch.write_text(
            "\n".join(json_mod.dumps(q) for q in queries) + "\n"
        )
        return batch

    def test_stats_prints_summary_on_stderr(self, tmp_path, capsys):
        code = main([
            "serve", "--input", str(self._dataset_path(tmp_path)),
            "--batch", str(self._batch_path(tmp_path)),
            "--workers", "2", "--stats",
        ])
        captured = capsys.readouterr()
        assert code == 0
        assert "serve telemetry:" in captured.err
        assert "queries 6, errors 1" in captured.err
        assert "errors.unknown_op" in captured.err
        assert "point" in captured.err and "p99=" in captured.err
        # stdout stays a clean answer stream.
        assert all(line.startswith("{") for line in captured.out.splitlines())

    def test_telemetry_jsonl_artifact(self, tmp_path, capsys):
        import json as json_mod

        artifact = tmp_path / "telemetry.jsonl"
        code = main([
            "-q", "serve", "--input", str(self._dataset_path(tmp_path)),
            "--batch", str(self._batch_path(tmp_path)),
            "--workers", "2", "--telemetry", str(artifact),
            "--slow-ms", "0", "--sample-every", "1",
        ])
        capsys.readouterr()
        assert code == 0
        records = [json_mod.loads(line)
                   for line in artifact.read_text().splitlines()]
        summary = records[0]
        assert summary["record"] == "summary"
        assert summary["queries"] == 6
        assert summary["errors_by_category"] == {"unknown_op": 1}
        assert summary["per_op"]["point"]["count"] == 2
        kinds = {r["record"] for r in records[1:]}
        assert kinds == {"event", "span"}
        # slow_ms=0 rings every success; sample_every=1 spans everything.
        events = [r for r in records if r["record"] == "event"]
        spans = [r for r in records if r["record"] == "span"]
        assert len(events) == 6
        assert len(spans) == 6
        assert {s["args"]["sample_index"] for s in spans} == set(range(6))

    def test_telemetry_prom_artifact(self, tmp_path, capsys):
        artifact = tmp_path / "serve.prom"
        code = main([
            "-q", "serve", "--input", str(self._dataset_path(tmp_path)),
            "--batch", str(self._batch_path(tmp_path)),
            "--telemetry", str(artifact),
        ])
        capsys.readouterr()
        assert code == 0
        text = artifact.read_text()
        assert "ting_serve_queries_total 6" in text
        assert "ting_serve_errors_unknown_op_total 1" in text
        assert 'ting_serve_latency_ms_point_bucket{le="+Inf"} 2' in text

    def test_one_shot_query_with_stats(self, tmp_path, capsys):
        code = main([
            "serve", "--input", str(self._dataset_path(tmp_path)),
            "--stats", "point", "N00", "N01",
        ])
        captured = capsys.readouterr()
        assert code == 0
        assert "queries 1, errors 0" in captured.err

    def test_no_flags_means_null_telemetry(self, tmp_path, capsys):
        code = main([
            "serve", "--input", str(self._dataset_path(tmp_path)),
            "point", "N00", "N01",
        ])
        captured = capsys.readouterr()
        assert code == 0
        assert "serve telemetry:" not in captured.err


class TestStatsPromFormat:
    def test_prom_exposition_on_stdout(self, capsys):
        code = main([
            "-q", "stats",
            "--relays", "4", "--network-size", "20", "--samples", "10",
            "--format", "prom",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "ting_tor_circuits_built_total" in out
        assert 'ting_echo_rtt_ms_bucket{le="+Inf"}' in out
        assert out.endswith("\n")
        # Pure exposition: no human table mixed into the scrape.
        assert "campaign metrics:" not in out

    def test_prom_format_still_writes_json_snapshot(self, tmp_path, capsys):
        import json as json_mod

        output = tmp_path / "metrics.json"
        code = main([
            "-q", "stats",
            "--relays", "3", "--network-size", "20", "--samples", "10",
            "--format", "prom", "--output", str(output),
        ])
        capsys.readouterr()
        assert code == 0
        snapshot = json_mod.loads(output.read_text())
        assert snapshot["counters"]["tor.circuits_built"] > 0
