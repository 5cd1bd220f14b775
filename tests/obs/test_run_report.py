"""Tests for the fused run report and its CLI command."""

import json

import pytest

from repro.cli import main
from repro.core.dataset import PairProvenance, ProvenanceLog, RttMatrix
from repro.obs import EventBus
from repro.obs.report import REPORT_FORMAT, build_report


def _matrix(values) -> RttMatrix:
    nodes = sorted({n for pair in values for n in pair})
    matrix = RttMatrix(nodes)
    for (a, b), rtt in values.items():
        matrix.set(a, b, rtt)
    return matrix


@pytest.fixture
def fixture_inputs():
    matrix = _matrix({("A", "B"): 10.0, ("A", "C"): 20.0, ("B", "C"): 30.0})
    truth = _matrix({("A", "B"): 10.5, ("A", "C"): 20.0, ("B", "C"): 60.0})
    provenance = ProvenanceLog()
    provenance.add(
        PairProvenance(
            x="A", y="B", status="measured", rtt_ms=10.0,
            samples_kept=10, duration_ms=2000.0, shard=0,
        )
    )
    provenance.add(
        PairProvenance(
            x="A", y="C", status="measured", rtt_ms=20.0,
            samples_kept=10, duration_ms=9000.0, shard=1,
        )
    )
    provenance.add(
        PairProvenance(
            x="B", y="C", status="measured", rtt_ms=30.0,
            samples_kept=8, duration_ms=4000.0, shard=0,
        )
    )
    provenance.add(
        PairProvenance(
            x="C", y="D", status="failed", failure_category="timeout",
            reason="probe timed out", duration_ms=15000.0, shard=1,
        )
    )
    metrics = {
        "counters": {
            "campaign.pairs_attempted": 4,
            "campaign.pairs_measured": 3,
            "ting.leg_cache_hits": 6,
        },
        "gauges": {},
        "histograms": {},
    }
    return matrix, truth, provenance, metrics


class TestBuildReport:
    def test_sections_and_accuracy(self, fixture_inputs):
        matrix, truth, provenance, metrics = fixture_inputs
        report = build_report(
            matrix,
            metrics=metrics,
            provenance=provenance,
            ground_truth=truth,
        )
        data = report.to_dict()
        assert data["format"] == REPORT_FORMAT
        assert data["pairs"]["attempted"] == 4
        assert data["pairs"]["measured"] == 3
        accuracy = data["accuracy"]
        assert accuracy["pairs_compared"] == 3
        # A-B within 5%, A-C exact, B-C off by 50%.
        assert accuracy["within_10pct"] == pytest.approx(2 / 3)
        assert accuracy["median_abs_error_ms"] == pytest.approx(0.5)
        assert data["failures"] == {
            "total": 1,
            "by_category": {"timeout": 1},
        }

    def test_slowest_pairs_ranked_by_duration(self, fixture_inputs):
        matrix, _, provenance, _ = fixture_inputs
        report = build_report(matrix, provenance=provenance, top_n=2)
        slowest = report.to_dict()["slowest_pairs"]
        assert [e["duration_ms"] for e in slowest] == [15000.0, 9000.0]
        assert slowest[0]["status"] == "failed"

    def test_json_is_loadable_and_text_has_sections(self, fixture_inputs):
        matrix, truth, provenance, metrics = fixture_inputs
        report = build_report(
            matrix, metrics=metrics, provenance=provenance, ground_truth=truth
        )
        assert json.loads(report.to_json())["format"] == REPORT_FORMAT
        text = report.render_text()
        for heading in (
            "== campaign ==",
            "== accuracy vs ground truth ==",
            "== failures ==",
            "== slowest pairs (simulated time) ==",
            "== headline counters ==",
        ):
            assert heading in text

    def test_golden_text_output(self):
        matrix = _matrix({("A", "B"): 10.0})
        provenance = ProvenanceLog()
        provenance.add(
            PairProvenance(
                x="AAAAAAAAAA", y="BBBBBBBBBB", status="measured",
                rtt_ms=10.0, duration_ms=2000.0,
            )
        )
        report = build_report(
            matrix, provenance=provenance, pairs_attempted=1
        )
        assert report.render_text() == "\n".join(
            [
                "== campaign ==",
                "  relays                 2",
                "  pairs measured         1/1",
                "  mean RTT               10.0 ms",
                "== failures ==",
                "  none",
                "== slowest pairs (simulated time) ==",
                "  AAAAAAAA..BBBBBBBB  2.0 s  (10.0 ms)",
            ]
        )

    def test_events_section_says_what_the_bus_saw(self):
        # Counts, not the ring, are the totals: a two-slot ring that saw
        # four events reports four, keeps two and admits to two dropped.
        worker = EventBus(capacity=2)
        for _ in range(3):
            worker.info("campaign", "pair_measured")
        worker.warning("campaign", "pair_failed")
        merged = EventBus(capacity=2).merge_snapshot(worker.snapshot(), shard=1)
        matrix = _matrix({("A", "B"): 10.0})
        report = build_report(matrix, events=merged)
        assert report.to_dict()["events"] == {
            "emitted": 4,
            "retained": 2,
            "dropped": 2,
            "counts": [
                {"category": "campaign", "severity": "INFO", "count": 3},
                {"category": "campaign", "severity": "WARNING", "count": 1},
            ],
        }
        assert report.render_text().splitlines()[-6:] == [
            "== events ==",
            "  emitted                4",
            "  retained               2",
            "  dropped                2",
            "  campaign/INFO          3",
            "  campaign/WARNING       1",
        ]
        assert "events" not in build_report(matrix).to_dict()

    def test_matrix_only_report(self):
        matrix = _matrix({("A", "B"): 10.0})
        data = build_report(matrix).to_dict()
        assert data["pairs"]["measured"] == 1
        assert data["failures"]["total"] == 0
        assert "accuracy" not in data
        assert "spans" not in data

    def test_failures_fall_back_to_counters(self):
        matrix = _matrix({("A", "B"): 10.0})
        metrics = {
            "counters": {
                "campaign.pairs_attempted": 2,
                "campaign.failures.timeout": 1,
            },
            "gauges": {},
            "histograms": {},
        }
        data = build_report(matrix, metrics=metrics).to_dict()
        assert data["failures"]["by_category"] == {"timeout": 1}

    def test_probe_cost_reports_flown_over_sent(self):
        matrix = _matrix({("A", "B"): 10.0})
        metrics = {
            "counters": {
                "echo.probes_sent": 200,
                "echo.probes_flown": 150,
                "echo.flight_rollbacks": 3,
            },
            "gauges": {},
            "histograms": {},
        }
        report = build_report(matrix, metrics=metrics)
        cost = report.to_dict()["cost"]
        assert (cost["probes_flown"], cost["flown_fraction"]) == (150, 0.75)
        assert cost["flight_rollbacks"] == 3
        assert (
            "  probes flown           150 (75.0% of sent; 3 flights rolled back)"
            in report.render_text()
        )

    def test_shard_balance(self, fixture_inputs):
        matrix, _, _, _ = fixture_inputs

        class Shard:
            def __init__(self, index, makespan):
                self.shard_index = index
                self.pairs_attempted = 2
                self.makespan_ms = makespan
                self.wall_s = 0.5
                self.events_processed = 1000

        data = build_report(
            matrix, shards=[Shard(0, 60000.0), Shard(1, 90000.0)]
        ).to_dict()
        balance = data["shard_balance"]
        assert balance["makespan_imbalance"] == pytest.approx(1.5)
        assert [s["shard"] for s in balance["shards"]] == [0, 1]


class TestFixedTerms:
    """The shard-balance section shows what a run pays whatever its pair
    budget — straight from fields ``ShardedReport`` already has."""

    @pytest.mark.parametrize("force_inline", [False, True])
    def test_fixed_line_from_a_sharded_run(self, force_inline):
        import functools
        import re

        from repro.core.sampling import SamplePolicy
        from repro.core.shard import ShardedCampaign
        from repro.testbeds.livetor import LiveTorTestbed

        factory = functools.partial(LiveTorTestbed.build, seed=3, n_relays=16)
        testbed = factory()
        relays = testbed.random_relays(4, testbed.streams.get("t.pick"))
        sharded = ShardedCampaign(
            factory,
            [d.fingerprint for d in relays],
            policy=SamplePolicy(3, 2.0),
            workers=2,
            force_inline=force_inline,
        ).run()
        report = build_report(
            sharded.matrix, shards=sharded.shards, sharded_run=sharded
        )
        fixed = report.to_dict()["shard_balance"]["fixed"]
        assert fixed == {
            "build_s": round(sharded.build_s, 4),
            "leg_round_s": round(sharded.leg_phase.wall_s, 4),
            "wall_s": round(sharded.wall_s, 4),
        }
        assert 0 < fixed["build_s"] < fixed["wall_s"]
        assert 0 < fixed["leg_round_s"] < fixed["wall_s"]
        json.loads(report.to_json())
        line = next(
            l for l in report.render_text().splitlines() if "fixed:" in l
        )
        assert re.fullmatch(
            r"  fixed: build \d+\.\d{3} s, leg round \d+\.\d{3} s "
            r"of \d+\.\d{3} s wall",
            line,
        )

    def test_no_fixed_line_without_a_run(self, fixture_inputs):
        matrix, _, _, _ = fixture_inputs

        class Shard:
            shard_index, pairs_attempted, makespan_ms = 0, 2, 60000.0
            wall_s, events_processed = 0.5, 1000

        report = build_report(matrix, shards=[Shard()])
        assert "fixed" not in report.to_dict()["shard_balance"]
        assert "fixed:" not in report.render_text()


class TestReportCommand:
    def test_end_to_end(self, tmp_path, capsys):
        json_path = tmp_path / "report.json"
        spans_path = tmp_path / "spans.json"
        dataset_path = tmp_path / "dataset.json"
        code = main(
            [
                "--seed", "3",
                "report",
                "--relays", "4",
                "--network-size", "16",
                "--samples", "3",
                "--workers", "2",
                "--json", str(json_path),
                "--spans", str(spans_path),
                "--output", str(dataset_path),
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "== campaign ==" in out
        assert "== accuracy vs ground truth ==" in out
        assert "== shard balance ==" in out
        assert "  fixed: build " in out

        payload = json.loads(json_path.read_text())
        assert set(payload["shard_balance"]["fixed"]) == {
            "build_s", "leg_round_s", "wall_s",
        }
        assert payload["format"] == REPORT_FORMAT
        assert payload["pairs"]["measured"] == 6
        assert payload["metrics"]["campaign.pairs_measured"] == 6
        assert "== events ==" in out and "trace" not in payload
        bus = payload["events"]
        assert bus["emitted"] == bus["retained"] + bus["dropped"]
        assert bus["emitted"] == sum(row["count"] for row in bus["counts"])
        assert {"category": "campaign", "severity": "INFO", "count": 12} in bus["counts"]

        # The span export must be a valid Chrome trace-event file:
        # Perfetto's legacy JSON importer needs exactly these keys.
        trace = json.loads(spans_path.read_text())
        assert isinstance(trace["traceEvents"], list) and trace["traceEvents"]
        shards_seen = set()
        for event in trace["traceEvents"]:
            assert event["ph"] == "X"
            assert isinstance(event["name"], str)
            assert isinstance(event["cat"], str)
            assert isinstance(event["pid"], int)
            assert isinstance(event["tid"], int)
            assert isinstance(event["ts"], float)
            assert isinstance(event["dur"], float)
            assert event["dur"] >= 0.0
            shards_seen.add(event["pid"])
        # The leg phase traces under the LEG_PHASE sentinel (-1); the 6
        # pairs fit one steal chunk, so a single worker claims them all.
        assert shards_seen == {-1, 0}

        dataset = json.loads(dataset_path.read_text())
        assert dataset["format"] == "ting-campaign/1"
        assert len(dataset["provenance"]) == 6

    def test_flight_counters_merge_across_shards(self, tmp_path, capsys):
        json_path = tmp_path / "report.json"
        code = main(
            [
                "report",
                "--relays", "4",
                "--network-size", "16",
                "--samples", "6",
                "--policy", "adaptive-1ms",  # ping-pong: every probe flies
                "--workers", "2",
                "--no-ground-truth",
                "--json", str(json_path),
            ]
        )
        assert code == 0
        assert "  probes flown  " in capsys.readouterr().out
        cost = json.loads(json_path.read_text())["cost"]
        assert cost["probes_flown"] == cost["probes_sent"] > 0
        assert cost["flight_rollbacks"] == 0

    def test_report_from_saved_dataset(self, tmp_path, capsys):
        dataset_path = tmp_path / "dataset.json"
        main(
            [
                "--seed", "3",
                "report",
                "--relays", "4",
                "--network-size", "16",
                "--samples", "3",
                "--output", str(dataset_path),
            ]
        )
        capsys.readouterr()
        code = main(["report", "--input", str(dataset_path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "== campaign ==" in out
        assert "pairs measured         6/6" in out
