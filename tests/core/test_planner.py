"""Tests for the budgeted campaign planner.

The planner's contract is determinism plus sensible prioritization:
the same fingerprints, dataset, predictions, and seed must produce the
identical pair order (it feeds the shard engine's chunk queue, so plan
order is part of the campaign's reproducibility story), and the
scoring axes — coverage, failure retry, staleness, model disagreement
— must rank pairs the way the docstrings promise.
"""

import numpy as np
import pytest

from repro.core.dataset import (
    CampaignDataset,
    PairProvenance,
    ProvenanceLog,
    RttMatrix,
)
from repro.core.planner import CampaignPlan, CampaignPlanner, PlannerWeights
from repro.util.errors import MeasurementError

FPS = [f"N{i}" for i in range(6)]


def _measured(x, y, rtt=50.0):
    return PairProvenance(x=x, y=y, status="measured", rtt_ms=rtt)


def _failed(x, y):
    return PairProvenance(x=x, y=y, status="failed", failure_category="timeout")


def _dataset(entries=(), records=()):
    matrix = RttMatrix(FPS)
    for a, b, rtt in entries:
        matrix.set(a, b, rtt)
    log = ProvenanceLog()
    for record in records:
        log.add(record)
    return CampaignDataset(matrix=matrix, provenance=log)


class TestColdStart:
    def test_every_pair_is_a_coverage_candidate(self):
        plan = CampaignPlanner(FPS).plan()
        n = len(FPS)
        assert plan.candidates == n * (n - 1) // 2
        assert len(plan.pairs) == plan.candidates
        assert plan.breakdown["unmeasured"] == plan.candidates
        assert np.all(plan.scores == pytest.approx(1.0))

    def test_budget_cuts_the_list(self):
        plan = CampaignPlanner(FPS).plan(budget_pairs=4)
        assert len(plan.pairs) == 4
        assert plan.budget == 4
        assert plan.candidates == 15

    def test_duplicate_fingerprints_rejected(self):
        with pytest.raises(MeasurementError):
            CampaignPlanner(["A", "A", "B"])

    def test_negative_or_fractional_budget_rejected(self):
        # budget_pairs=-1 used to be a Python slice: 14 of the 15 pairs.
        planner = CampaignPlanner(FPS)
        for bad in (-1, -15, 2.0, "3"):
            with pytest.raises(MeasurementError, match="budget_pairs"):
                planner.plan(budget_pairs=bad)

    def test_zero_budget_is_an_empty_plan(self):
        plan = CampaignPlanner(FPS).plan(budget_pairs=0)
        assert plan.pairs == [] and plan.scores.size == 0
        assert plan.candidates == 15 and plan.breakdown["unmeasured"] == 15
        assert len(CampaignPlanner(FPS).plan(budget_pairs=np.int64(4)).pairs) == 4


class TestDeterminism:
    def test_same_seed_same_order(self):
        dataset = _dataset(
            entries=[("N0", "N1", 40.0), ("N2", "N3", 60.0)],
            records=[_measured("N0", "N1", 40.0), _measured("N2", "N3", 60.0)],
        )
        plans = [
            CampaignPlanner(FPS, dataset=dataset, seed=7).plan(budget_pairs=8)
            for _ in range(3)
        ]
        assert plans[0].pairs == plans[1].pairs == plans[2].pairs
        assert np.array_equal(plans[0].scores, plans[2].scores)

    def test_different_seed_may_reorder_ties(self):
        # All pairs tie at the coverage score; the seeded jitter is the
        # only thing separating them, so different seeds give different
        # (but internally deterministic) orders.
        a = CampaignPlanner(FPS, seed=1).plan(budget_pairs=10)
        b = CampaignPlanner(FPS, seed=2).plan(budget_pairs=10)
        assert a.pairs != b.pairs
        assert sorted(a.scores) == sorted(b.scores)

    def test_jitter_never_crosses_score_steps(self):
        # Jitter is 1e-6 — far below the smallest weight — so the
        # ordering between *different* base scores is jitter-proof.
        dataset = _dataset(
            entries=[("N0", "N1", 40.0)], records=[_measured("N0", "N1", 40.0)]
        )
        for seed in range(5):
            plan = CampaignPlanner(FPS, dataset=dataset, seed=seed).plan()
            # The sole measured pair is the newest record (staleness
            # 0.0) -> score 0.0 -> cut by min_score at every seed; the
            # jitter can never lift it back above an unmeasured pair.
            assert ("N0", "N1") not in plan.pairs
            assert len(plan.pairs) == plan.candidates - 1


class TestScoringAxes:
    def test_unmeasured_beats_measured(self):
        dataset = _dataset(
            entries=[("N0", "N1", 40.0)], records=[_measured("N0", "N1", 40.0)]
        )
        plan = CampaignPlanner(FPS, dataset=dataset).plan()
        assert ("N0", "N1") not in plan.pairs[:-1]
        assert plan.breakdown["unmeasured"] == plan.candidates - 1

    def test_failed_pair_outranks_other_unmeasured(self):
        dataset = _dataset(records=[_failed("N0", "N1")])
        plan = CampaignPlanner(FPS, dataset=dataset).plan()
        assert plan.pairs[0] == ("N0", "N1")
        assert plan.breakdown["failed"] == 1

    def test_staleness_ranks_older_records_higher(self):
        # Three measured pairs, inserted oldest-first; among measured
        # pairs the oldest must be planned first.
        records = [
            _measured("N0", "N1", 40.0),
            _measured("N0", "N2", 50.0),
            _measured("N1", "N2", 60.0),
        ]
        dataset = _dataset(
            entries=[("N0", "N1", 40.0), ("N0", "N2", 50.0), ("N1", "N2", 60.0)],
            records=records,
        )
        plan = CampaignPlanner(FPS, dataset=dataset).plan()
        measured_order = [p for p in plan.pairs if p in {("N0", "N1"), ("N0", "N2"), ("N1", "N2")}]
        assert measured_order[0] == ("N0", "N1")
        # The newest record has staleness 0.0 -> score 0.0 -> cut by
        # min_score; only two of the three measured pairs survive.
        assert ("N1", "N2") not in plan.pairs

    def test_matrix_only_pairs_treated_fully_stale(self):
        # A measured matrix entry with no provenance history has
        # unknown age: it must still be eligible for refresh.
        dataset = _dataset(entries=[("N0", "N1", 40.0)])
        plan = CampaignPlanner(FPS, dataset=dataset).plan()
        assert ("N0", "N1") in plan.pairs

    def test_disagreement_steers_toward_model_misses(self):
        entries = [("N0", "N1", 50.0), ("N0", "N2", 50.0)]
        records = [_measured(*e[:2], e[2]) for e in entries]
        dataset = _dataset(entries=entries, records=records)
        predicted = RttMatrix(FPS)
        for a, b in [("N0", "N1"), ("N0", "N2")]:
            predicted.set(a, b, 50.0)
        predicted.set("N0", "N2", 100.0)  # model is 100% off here
        plan = CampaignPlanner(FPS, dataset=dataset, predicted=predicted).plan()
        measured_order = [p for p in plan.pairs if p in {("N0", "N1"), ("N0", "N2")}]
        assert measured_order[0] == ("N0", "N2")
        assert plan.breakdown["with_predictions"] == 2

    def test_min_score_drops_fresh_pairs(self):
        entries = [("N0", "N1", 40.0)]
        dataset = _dataset(entries=entries, records=[_measured("N0", "N1", 40.0)])
        # With staleness weight zeroed, the single measured pair scores
        # exactly 0.0 and must not be planned even without a budget.
        weights = PlannerWeights(staleness=0.0)
        plan = CampaignPlanner(FPS, dataset=dataset, weights=weights).plan()
        assert ("N0", "N1") not in plan.pairs
        assert len(plan.pairs) == plan.candidates - 1


class TestPredictions:
    def test_ndarray_shape_checked(self):
        with pytest.raises(MeasurementError):
            CampaignPlanner(FPS, predicted=np.zeros((3, 3)))

    def test_rtt_matrix_aligned_by_name(self):
        # Predictions over a superset in a different order still land
        # on the right pairs.
        names = ["X", *reversed(FPS)]
        predicted = RttMatrix(names)
        for i, a in enumerate(names):
            for b in names[i + 1 :]:
                predicted.set(a, b, 80.0)
        entries = [("N0", "N1", 40.0)]
        dataset = _dataset(entries=entries, records=[_measured("N0", "N1", 40.0)])
        plan = CampaignPlanner(FPS, dataset=dataset, predicted=predicted).plan()
        assert plan.breakdown["with_predictions"] == 1

    def test_partial_predictions_only_count_overlap(self):
        predicted = RttMatrix(["N0", "N1"])
        predicted.set("N0", "N1", 80.0)
        entries = [("N0", "N1", 40.0), ("N2", "N3", 60.0)]
        dataset = _dataset(
            entries=entries, records=[_measured(*e[:2], e[2]) for e in entries]
        )
        plan = CampaignPlanner(FPS, dataset=dataset, predicted=predicted).plan()
        assert plan.breakdown["with_predictions"] == 1


class TestQualityAxis:
    def _measured_dataset(self):
        entries = [
            (a, b, 50.0) for i, a in enumerate(FPS) for b in FPS[i + 1 :]
        ]
        return _dataset(
            entries=entries, records=[_measured(*e[:2], e[2]) for e in entries]
        )

    def test_low_quality_pair_moves_up(self):
        dataset = self._measured_dataset()
        n = len(FPS)
        quality = np.ones((n, n))
        # N4:N5 is the *newest* record (least stale) — without the
        # quality axis it ranks last; a rotten score must pull it up.
        quality[4, 5] = quality[5, 4] = 0.0
        without = CampaignPlanner(FPS, dataset=dataset, seed=1).plan()
        with_q = CampaignPlanner(
            FPS, dataset=dataset, seed=1, quality=quality
        ).plan()
        target = ("N4", "N5")
        # Without the axis the freshest pair scores 0 and is dropped
        # outright; the quality deficit alone makes it the top refresh.
        assert target not in without.pairs
        assert with_q.pairs.index(target) == 0

    def test_duck_typed_scores_aligned_by_name(self):
        dataset = self._measured_dataset()
        plan = CampaignPlanner(
            FPS, dataset=dataset, seed=1, quality=dataset.quality()
        ).plan()
        assert plan.summary()["with_quality"] == 15

    def test_partial_node_overlap_scores_partially(self):
        class Scores:
            nodes = ["N0", "N1", "UNKNOWN"]
            matrix = np.zeros((3, 3))

        dataset = self._measured_dataset()
        plan = CampaignPlanner(
            FPS, dataset=dataset, seed=1, quality=Scores()
        ).plan()
        # Only N0:N1 overlaps both the target set and the score source.
        assert plan.summary()["with_quality"] == 1

    def test_quality_shape_checked(self):
        with pytest.raises(MeasurementError):
            CampaignPlanner(FPS, quality=np.ones((2, 2)))

    def test_quality_ignored_for_unmeasured_pairs(self):
        # Cold start: no measured entries, so the deficit never fires.
        n = len(FPS)
        plan = CampaignPlanner(FPS, quality=np.zeros((n, n))).plan()
        assert plan.summary()["with_quality"] == 0


class TestPlanSummary:
    def test_summary_is_json_ready(self):
        plan = CampaignPlanner(FPS).plan(budget_pairs=3)
        summary = plan.summary()
        assert summary["planned"] == 3
        assert summary["candidates"] == 15
        assert summary["budget"] == 3
        assert summary["score_max"] >= summary["score_min"]

    def test_empty_plan_summary(self):
        plan = CampaignPlan(pairs=[], scores=np.array([]), candidates=0, budget=None)
        summary = plan.summary()
        assert summary["planned"] == 0
        assert summary["score_max"] is None
