"""Matrix health: quality scores, scorecards, drift diffs.

Four contracts pinned here:

* :func:`pair_quality` turns provenance history into a symmetric
  per-pair score matrix whose every low score is attributable to a
  named component (support / debias / history / staleness).
* :func:`health_report` grades a clean dataset ``ok`` and catches each
  injected anomaly class — a negative RTT, a sub-light-time pair, a
  block of artificially stale pairs — with the right category and a
  failing gate.
* :func:`diff_datasets` attributes **every** changed pair: refreshed
  pairs as ``remeasured``, silent mutations as ``unexplained``.
* The scorecard is a property of the *data*, not the campaign that
  produced it: invariant to worker count {1, 2, 4} and to JSON vs npz
  on-disk format.
"""

import copy

import numpy as np
import pytest
from conftest import legacy_dataset

from repro.core.dataset import (
    CampaignDataset,
    PairProvenance,
    ProvenanceLog,
    RttMatrix,
)
from repro.obs.health import (
    COMPONENTS,
    HealthThresholds,
    QualityWeights,
    diff_datasets,
    health_report,
    pair_quality,
)


def _build_dataset(n=8, seed=5, with_failures=False, geo=False):
    """A fully measured synthetic dataset with one record per pair."""
    nodes = [f"N{i:03d}" for i in range(n)]
    matrix = RttMatrix(nodes)
    log = ProvenanceLog()
    rng = np.random.default_rng(seed)
    for i in range(n):
        for j in range(i + 1, n):
            rtt = float(rng.uniform(20, 250))
            matrix.set(nodes[i], nodes[j], rtt)
            log.add(
                PairProvenance(
                    x=nodes[i],
                    y=nodes[j],
                    status="measured",
                    rtt_ms=rtt,
                    cxy_ms=rtt * 2,
                    samples_requested=10,
                    samples_kept=9,
                )
            )
    if with_failures:
        log.add(
            PairProvenance(
                x=nodes[0],
                y=nodes[1],
                status="failed",
                failure_category="timeout",
                retries=2,
            )
        )
    meta = {}
    if geo:
        # Spread nodes along one meridian 0.4° (~44 km) apart. The
        # worst-case pair spans under 2700 km — a light-time floor below
        # 18 ms — so every honest RTT (>= 20 ms) clears the floor and
        # the clean scorecard stays green.
        meta["geo"] = {
            node: [float(i * 0.4 - 12.0), 10.0] for i, node in enumerate(nodes)
        }
    return CampaignDataset(matrix=matrix, provenance=log, meta=meta)


def _with_value(dataset, x, y, value):
    """A dataset whose matrix holds ``value`` for one pair, bypassing
    ``RttMatrix.set`` validation so impossible values can be injected."""
    values = dataset.matrix.copy_matrix()
    i = dataset.matrix.index_of(x)
    j = dataset.matrix.index_of(y)
    values[i, j] = values[j, i] = value
    return CampaignDataset(
        matrix=RttMatrix.from_array(dataset.matrix.nodes, values),
        provenance=dataset.provenance,
        meta=dataset.meta,
    )


class TestQualityScores:
    def test_scores_symmetric_and_in_range(self):
        quality = pair_quality(_build_dataset())
        finite = ~np.isnan(quality.scores)
        assert np.array_equal(finite, finite.T)
        assert np.allclose(
            quality.scores[finite],
            quality.scores.T[finite],
        )
        values = quality.scored_values()
        assert values.size == 28
        assert np.all((values >= 0.0) & (values <= 1.0))

    def test_unmeasured_pairs_stay_nan(self):
        nodes = ["a", "b", "c"]
        matrix = RttMatrix(nodes)
        matrix.set("a", "b", 10.0)
        log = ProvenanceLog()
        log.add(PairProvenance(x="a", y="b", status="measured", rtt_ms=10.0))
        quality = pair_quality(CampaignDataset(matrix=matrix, provenance=log))
        assert quality.score_for("a", "b") is not None
        assert quality.score_for("a", "c") is None
        assert quality.scored_values().size == 1

    def test_empty_log_scores_nothing(self):
        matrix = RttMatrix(["a", "b"])
        matrix.set("a", "b", 5.0)
        quality = pair_quality(CampaignDataset(matrix=matrix))
        assert quality.scored_values().size == 0
        assert quality.summary()["mean"] is None
        assert quality.percentiles() == {}

    def test_failure_history_lowers_score(self):
        clean = pair_quality(_build_dataset(with_failures=False))
        scarred = pair_quality(_build_dataset(with_failures=True))
        # N000:N001 has a failed retry-laden record on top of its history.
        assert scarred.score_for("N000", "N001") < clean.score_for(
            "N000", "N001"
        )
        # The drop is attributable to the history component.
        worst = scarred.worst(top_n=1)[0]
        assert {worst["x"], worst["y"]} == {"N000", "N001"}
        assert worst["components"]["history"] == 1.0

    def test_latest_record_wins(self):
        dataset = _build_dataset(n=4, with_failures=True)
        # A pristine re-measurement after the failure clears support but
        # not the lifetime failure history.
        dataset.provenance.add(
            PairProvenance(
                x="N000",
                y="N001",
                status="measured",
                rtt_ms=50.0,
                samples_requested=10,
                samples_kept=10,
            )
        )
        quality = pair_quality(dataset)
        i, j = 0, 1
        assert quality.components["support"][i, j] == 0.0
        assert quality.components["history"][i, j] > 0.0

    def test_staleness_penalty_uses_insertion_order(self):
        dataset = _build_dataset(n=6)
        quality = pair_quality(dataset, stale_after_rows=3)
        # First-inserted pair is oldest; last-inserted is age zero.
        oldest = quality.components["staleness"][0, 1]
        newest = quality.components["staleness"][4, 5]
        assert oldest == 1.0  # clipped at the stale horizon
        assert newest == 0.0
        stale = quality.stale_pairs()
        assert stale, "pairs past the horizon must be reported"
        # Oldest first, and every listed age exceeds the horizon.
        ages = [age for _, _, age in stale]
        assert ages == sorted(ages, reverse=True)
        assert min(ages) > 3

    def test_default_stale_horizon_is_one_sweep(self):
        dataset = _build_dataset(n=6)
        quality = pair_quality(dataset)
        assert quality.stale_after_rows == dataset.matrix.num_measured
        # One record per pair means nothing exceeds a full sweep.
        assert quality.stale_pairs() == []

    def test_weights_change_blend(self):
        dataset = _build_dataset(with_failures=True)
        default = pair_quality(dataset)
        no_history = pair_quality(
            dataset, weights=QualityWeights(history=0.0)
        )
        assert no_history.score_for("N000", "N001") > default.score_for(
            "N000", "N001"
        )

    def test_worst_and_percentiles_shapes(self):
        quality = pair_quality(_build_dataset())
        worst = quality.worst(top_n=3)
        assert len(worst) == 3
        assert set(worst[0]["components"]) == set(COMPONENTS)
        scores = [entry["score"] for entry in worst]
        assert scores == sorted(scores)
        cuts = quality.percentiles()
        assert set(cuts) == {"p5", "p25", "p50", "p75", "p95"}
        assert cuts["p5"] <= cuts["p50"] <= cuts["p95"]

    def test_dataset_quality_is_cached_until_absorb(self):
        dataset = _build_dataset(n=4)
        first = dataset.quality()
        assert dataset.quality() is first
        fresh = RttMatrix(dataset.matrix.nodes)
        fresh.set("N000", "N001", 42.0)
        dataset.absorb(fresh)
        assert dataset.quality() is not first

    def test_planner_consumes_quality_as_refresh_axis(self):
        from repro.core.planner import CampaignPlanner

        dataset = _build_dataset(n=6, with_failures=True)
        nodes = dataset.matrix.nodes
        plan = CampaignPlanner(
            nodes, dataset=dataset, seed=3, quality=dataset.quality()
        ).plan()
        assert plan.summary()["with_quality"] == 15
        # The failure-scarred pair outranks pristine same-age pairs.
        ranked = [frozenset(pair) for pair in plan.pairs]
        assert ranked.index(frozenset({"N000", "N001"})) == 0


class TestHealthReport:
    @pytest.fixture(scope="class")
    def dataset60(self):
        """The 60-relay reference dataset of the acceptance criteria."""
        return _build_dataset(n=60, seed=2015, geo=True)

    def test_clean_dataset_grades_ok(self, dataset60):
        report = health_report(dataset60)
        assert report.grade == "ok"
        assert report.ok
        assert report.anomaly_counts == {}
        statuses = {c["name"]: c["status"] for c in report.data["checks"]}
        assert statuses == {
            "coverage": "ok",
            "symmetry": "ok",
            "plausibility": "ok",
            "light_time": "ok",
            "tiv": "ok",
            "staleness": "ok",
            "quality": "ok",
        }

    def test_scorecard_renders_all_sections(self, dataset60):
        text = health_report(dataset60).render_text()
        assert "== matrix health ==" in text
        assert "grade                  OK" in text
        assert "== checks ==" in text
        assert "light_time" in text
        assert "== pair quality ==" in text

    def test_report_is_json_ready(self, dataset60):
        import json

        payload = json.loads(health_report(dataset60).to_json())
        assert payload["format"] == "ting-health/1"
        assert payload["dataset"]["relays"] == 60
        assert payload["dataset"]["total_pairs"] == 1770
        assert payload["quality"]["scored_pairs"] == 1770

    def test_negative_rtt_detected(self, dataset60):
        broken = _with_value(dataset60, "N003", "N007", -4.0)
        report = health_report(broken)
        assert not report.ok
        assert report.anomaly_counts["negative_rtt"] == 1
        listed = [
            a
            for a in report.data["anomalies"]["listed"]
            if a["category"] == "negative_rtt"
        ]
        assert {listed[0]["x"], listed[0]["y"]} == {"N003", "N007"}

    def test_zero_rtt_warns_but_does_not_fail(self, dataset60):
        # The Ting subtraction legitimately clamps nearly co-located
        # pairs to 0.0 (TingResult.rtt_clamped_ms), so a zero estimate
        # is a warn — only negatives (impossible through the normal
        # pipeline) fail the gate.
        zeroed = _with_value(dataset60, "N003", "N007", 0.0)
        report = health_report(zeroed)
        assert report.ok
        assert report.grade == "warn"
        assert report.anomaly_counts["zero_rtt"] == 1
        checks = {c["name"]: c["status"] for c in report.data["checks"]}
        assert checks["plausibility"] == "warn"

    def test_sub_light_time_pair_detected(self, dataset60):
        # N000 and N059 sit ~23.6° of latitude apart on the synthetic
        # meridian — roughly 2600 km, a ~17.5 ms light-time floor.
        # 1 ms is impossibly fast for that distance.
        broken = _with_value(dataset60, "N000", "N059", 1.0)
        report = health_report(broken)
        assert not report.ok
        assert report.anomaly_counts["sub_light_time"] == 1
        hit = [
            a
            for a in report.data["anomalies"]["listed"]
            if a["category"] == "sub_light_time"
        ][0]
        assert hit["floor_ms"] > hit["value"]

    def test_light_time_skipped_without_coordinates(self):
        report = health_report(_build_dataset(n=6, geo=False))
        statuses = {c["name"]: c["status"] for c in report.data["checks"]}
        assert statuses["light_time"] == "skip"
        assert report.grade == "ok"  # a skip never drags the grade down

    def test_explicit_positions_override_meta(self, dataset60):
        # Hand the checker coordinates that make one measured RTT
        # impossible without touching the dataset's own meta.
        broken = _with_value(dataset60, "N000", "N001", 1.0)
        positions = {
            "N000": (0.0, 0.0),
            "N001": (0.0, 180.0),  # antipodal: ~133 ms floor
        }
        report = health_report(broken, positions=positions)
        # Only the explicitly placed pair is checked — and it fails.
        assert report.anomaly_counts["sub_light_time"] == 1
        light = [
            c for c in report.data["checks"] if c["name"] == "light_time"
        ][0]
        assert light["status"] == "fail"
        assert "of 1 geolocated pairs" in light["detail"]

    def test_fifty_stale_pairs_detected(self):
        dataset = _build_dataset(n=60, seed=2015)
        # Tighten the horizon so exactly the 50 oldest records fall
        # outside it: ages run 0..1769, so age > 1719 ⇔ the first 50.
        thresholds = HealthThresholds(stale_after_rows=1719)
        report = health_report(dataset, thresholds=thresholds)
        assert not report.ok
        assert report.anomaly_counts["stale_pair"] == 50
        statuses = {c["name"]: c["status"] for c in report.data["checks"]}
        assert statuses["staleness"] == "fail"

    def test_asymmetry_detected(self):
        dataset = _build_dataset(n=6)
        dataset.matrix._matrix[0, 1] = 10.0
        dataset.matrix._matrix[1, 0] = 30.0
        report = health_report(dataset)
        assert not report.ok
        assert report.anomaly_counts["asymmetry"] == 1

    def test_empty_matrix_fails_coverage(self):
        report = health_report(CampaignDataset(matrix=RttMatrix(["a", "b"])))
        assert not report.ok
        statuses = {c["name"]: c["status"] for c in report.data["checks"]}
        assert statuses["coverage"] == "fail"

    def test_sparse_coverage_warns_not_fails(self):
        nodes = [f"R{i}" for i in range(40)]
        matrix = RttMatrix(nodes)
        matrix.set(nodes[0], nodes[1], 50.0)  # 1 of 780 pairs ≈ 0.13%
        report = health_report(CampaignDataset(matrix=matrix))
        statuses = {c["name"]: c["status"] for c in report.data["checks"]}
        assert statuses["coverage"] == "warn"
        assert report.grade == "warn"
        assert report.ok  # warn does not trip the gate

    def test_anomaly_listing_capped_counts_exact(self):
        dataset = _build_dataset(n=60, seed=2015)
        thresholds = HealthThresholds(
            stale_after_rows=1719, max_listed_anomalies=10
        )
        report = health_report(dataset, thresholds=thresholds)
        assert report.anomaly_counts["stale_pair"] == 50
        assert len(report.data["anomalies"]["listed"]) == 10
        assert report.data["anomalies"]["truncated"] is True

    def test_tiv_check_is_informational(self, dataset60):
        report = health_report(dataset60)
        tiv = [c for c in report.data["checks"] if c["name"] == "tiv"][0]
        # Random matrices violate triangle inequality freely; the check
        # reports the rate without failing the scorecard.
        assert tiv["status"] in {"ok", "warn"}
        assert 0.0 <= tiv["value"] <= 1.0


class TestDriftDiff:
    def test_refresh_changes_attributed_remeasured(self):
        baseline = _build_dataset(n=10, seed=7)
        current = copy.deepcopy(baseline)
        fresh = RttMatrix(current.matrix.nodes)
        log = ProvenanceLog()
        refreshed = [("N000", "N001"), ("N002", "N005"), ("N003", "N008")]
        for x, y in refreshed:
            new_rtt = current.matrix.get(x, y) + 25.0
            fresh.set(x, y, new_rtt)
            log.add(
                PairProvenance(
                    x=x, y=y, status="measured", rtt_ms=new_rtt,
                    samples_requested=10, samples_kept=10,
                )
            )
        current.absorb(fresh, provenance=log)
        drift = diff_datasets(baseline, current)
        pairs = drift.data["pairs"]
        assert pairs["changed"] == len(refreshed)
        assert pairs["unexplained"] == 0
        changed = drift.data["changed"]
        assert len(changed) == len(refreshed)
        assert all(e["attribution"] == "remeasured" for e in changed)
        assert {frozenset((e["x"], e["y"])) for e in changed} == {
            frozenset(p) for p in refreshed
        }

    def test_silent_mutation_attributed_unexplained(self):
        baseline = _build_dataset(n=6, seed=7)
        current = copy.deepcopy(baseline)
        current.matrix.set("N001", "N004", 999.0)  # no provenance record
        drift = diff_datasets(baseline, current)
        assert drift.data["pairs"]["changed"] == 1
        assert drift.data["pairs"]["unexplained"] == 1
        assert drift.data["changed"][0]["attribution"] == "unexplained"

    def test_node_churn_reported(self):
        baseline = _build_dataset(n=5, seed=7)
        current = copy.deepcopy(baseline)
        fresh = RttMatrix(["N001", "NEW"])
        fresh.set("N001", "NEW", 77.0)
        current.absorb(fresh)
        drift = diff_datasets(baseline, current)
        nodes = drift.data["nodes"]
        assert nodes["added"] == ["NEW"]
        assert nodes["removed"] == []
        assert nodes["common"] == 5

    def test_gained_and_lost_pairs_counted(self):
        nodes = ["a", "b", "c"]
        base_matrix = RttMatrix(nodes)
        base_matrix.set("a", "b", 10.0)
        cur_matrix = RttMatrix(nodes)
        cur_matrix.set("a", "c", 20.0)
        drift = diff_datasets(
            CampaignDataset(matrix=base_matrix),
            CampaignDataset(matrix=cur_matrix),
        )
        assert drift.data["pairs"]["gained"] == 1
        assert drift.data["pairs"]["lost"] == 1
        assert drift.data["pairs"]["changed"] == 0

    def test_quality_regression_attributed_to_component(self):
        baseline = _build_dataset(n=6, seed=7)
        current = copy.deepcopy(baseline)
        # A string of failed retries tanks N000:N001's history component.
        for _ in range(3):
            current.provenance.add(
                PairProvenance(
                    x="N000", y="N001", status="failed",
                    failure_category="timeout", retries=3,
                )
            )
        drift = diff_datasets(baseline, current)
        regressions = drift.data["quality"]["listed"]
        assert any(
            {r["x"], r["y"]} == {"N000", "N001"}
            and r["component"] in {"history", "support"}
            for r in regressions
        )

    def test_identical_datasets_show_no_drift(self):
        dataset = _build_dataset(n=6, seed=7)
        drift = diff_datasets(dataset, dataset)
        pairs = drift.data["pairs"]
        assert pairs["changed"] == 0
        assert pairs["gained"] == 0
        assert pairs["lost"] == 0
        assert drift.data["quality"]["regressed"] == 0

    def test_render_text_mentions_attribution(self):
        baseline = _build_dataset(n=6, seed=7)
        current = copy.deepcopy(baseline)
        current.matrix.set("N001", "N004", 999.0)
        text = diff_datasets(baseline, current).render_text()
        assert "== dataset drift ==" in text
        assert "unexplained" in text


class TestInvariance:
    @pytest.mark.parametrize("source", ["built", "legacy"])
    def test_health_invariant_to_on_disk_format(self, tmp_path, source):
        """A dataset grades as its npz reload."""
        if source == "built":
            dataset = _build_dataset(n=12, seed=9, with_failures=True, geo=True)
        else:
            dataset = legacy_dataset()
        dataset.save(tmp_path / "ds.npz")
        reloaded = CampaignDataset.load(tmp_path / "ds.npz")
        assert health_report(dataset).to_dict() == health_report(reloaded).to_dict()

    def test_drift_invariant_to_on_disk_format(self, tmp_path):
        baseline = legacy_dataset()
        current = copy.deepcopy(baseline)
        fresh = RttMatrix(current.matrix.nodes)
        fresh.set("R0", "R3", 500.0)
        log = ProvenanceLog()
        log.add(PairProvenance(x="R0", y="R3", status="measured", rtt_ms=500.0))
        current.absorb(fresh, provenance=log)
        paths = {}
        for name, ds in (("base", baseline), ("cur", current)):
            paths[name] = p = tmp_path / f"{name}.npz"
            ds.save(p)
        drift_built = diff_datasets(baseline, current)
        drift_npz = diff_datasets(
            CampaignDataset.load(paths["base"]), CampaignDataset.load(paths["cur"])
        )
        assert drift_built.to_dict() == drift_npz.to_dict()
