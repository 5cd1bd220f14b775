"""``CampaignDataset.absorb`` edge cases.

The incremental-refresh path has three awkward corners the happy-path
tests never hit: refresh campaigns whose node set overlaps-but-differs
from the standing dataset, refresh runs that measured nothing at all,
and the interaction with the cached per-pair quality scores (an absorb
must invalidate them — stale scores would silently mis-prioritize the
next planner pass).
"""

import numpy as np
import pytest

from repro.core.dataset import (
    CampaignDataset,
    PairProvenance,
    ProvenanceLog,
    RttMatrix,
)


def _dataset(nodes, entries=(), records=()):
    matrix = RttMatrix(list(nodes))
    for a, b, rtt in entries:
        matrix.set(a, b, rtt)
    log = ProvenanceLog()
    for record in records:
        log.add(record)
    return CampaignDataset(matrix=matrix, provenance=log)


def _measured(x, y, rtt=50.0):
    return PairProvenance(x=x, y=y, status="measured", rtt_ms=rtt)


class TestOverlappingNodeSets:
    def test_overlap_preserves_old_and_adopts_new(self):
        dataset = _dataset(
            ["a", "b", "c"],
            entries=[("a", "b", 10.0), ("b", "c", 20.0)],
        )
        fresh = RttMatrix(["b", "c", "d"])  # shares b, c; brings d
        fresh.set("b", "c", 25.0)  # refreshes a standing entry
        fresh.set("c", "d", 35.0)  # new node, new pair
        updated = dataset.absorb(fresh)
        assert updated == 2
        assert dataset.matrix.nodes == ["a", "b", "c", "d"]
        assert dataset.matrix.get("a", "b") == pytest.approx(10.0)  # kept
        assert dataset.matrix.get("b", "c") == pytest.approx(25.0)  # refreshed
        assert dataset.matrix.get("c", "d") == pytest.approx(35.0)  # adopted
        assert not dataset.matrix.has("a", "d")  # never measured

    def test_overlap_counts_stay_consistent(self):
        dataset = _dataset(["a", "b", "c"], entries=[("a", "b", 10.0)])
        fresh = RttMatrix(["c", "d", "e"])
        fresh.set("c", "d", 30.0)
        fresh.set("d", "e", 40.0)
        dataset.absorb(fresh)
        assert len(dataset.matrix.nodes) == 5
        assert dataset.matrix.num_measured == 3
        assert dataset.matrix.missing_count == 10 - 3

    def test_disjoint_refresh_is_pure_growth(self):
        dataset = _dataset(["a", "b"], entries=[("a", "b", 10.0)])
        fresh = RttMatrix(["x", "y"])
        fresh.set("x", "y", 99.0)
        updated = dataset.absorb(fresh)
        assert updated == 1
        assert dataset.matrix.get("a", "b") == pytest.approx(10.0)
        assert dataset.matrix.get("x", "y") == pytest.approx(99.0)

    def test_overlap_provenance_appends_in_order(self):
        dataset = _dataset(
            ["a", "b"],
            entries=[("a", "b", 10.0)],
            records=[_measured("a", "b", 10.0)],
        )
        log = ProvenanceLog()
        log.add(_measured("b", "c", 30.0))
        fresh = RttMatrix(["b", "c"])
        fresh.set("b", "c", 30.0)
        dataset.absorb(fresh, provenance=log)
        records = dataset.provenance.records()
        assert len(records) == 2
        # Refresh history lands *after* the standing history — insertion
        # order is the staleness clock.
        assert (records[1].x, records[1].y) == ("b", "c")


class TestEmptyRefresh:
    def test_empty_matrix_absorbs_nothing(self):
        dataset = _dataset(["a", "b", "c"], entries=[("a", "b", 10.0)])
        before = dataset.matrix.copy_matrix()
        updated = dataset.absorb(RttMatrix(["a", "b", "c"]))
        assert updated == 0
        assert np.array_equal(
            dataset.matrix.matrix, before, equal_nan=True
        )

    def test_empty_refresh_still_merges_meta_and_provenance(self):
        dataset = _dataset(["a", "b"], entries=[("a", "b", 10.0)])
        log = ProvenanceLog()
        log.add(
            PairProvenance(
                x="a", y="b", status="failed", failure_category="timeout"
            )
        )
        updated = dataset.absorb(
            RttMatrix(["a", "b"]), provenance=log, meta={"attempt": 2}
        )
        # The run measured nothing, but its history and metadata count.
        assert updated == 0
        assert len(dataset.provenance) == 1
        assert dataset.meta["attempt"] == 2

    def test_empty_refresh_with_new_nodes_grows_matrix(self):
        dataset = _dataset(["a", "b"], entries=[("a", "b", 10.0)])
        updated = dataset.absorb(RttMatrix(["b", "c"]))
        assert updated == 0
        assert dataset.matrix.nodes == ["a", "b", "c"]
        assert dataset.matrix.num_measured == 1


class TestQualityInvalidation:
    def test_absorb_invalidates_quality_cache(self):
        dataset = _dataset(
            ["a", "b", "c"],
            entries=[("a", "b", 10.0)],
            records=[_measured("a", "b", 10.0)],
        )
        stale_scores = dataset.quality()
        assert dataset.quality() is stale_scores  # cached between reads

        log = ProvenanceLog()
        log.add(_measured("a", "c", 60.0))
        fresh = RttMatrix(["a", "b", "c"])
        fresh.set("a", "c", 60.0)
        dataset.absorb(fresh, provenance=log)

        rescored = dataset.quality()
        assert rescored is not stale_scores
        # The newly measured pair is scored now; it was NaN before.
        assert stale_scores.score_for("a", "c") is None
        assert rescored.score_for("a", "c") is not None

    def test_even_empty_absorb_invalidates(self):
        dataset = _dataset(
            ["a", "b"],
            entries=[("a", "b", 10.0)],
            records=[_measured("a", "b", 10.0)],
        )
        first = dataset.quality()
        dataset.absorb(RttMatrix(["a", "b"]))
        # Conservative contract: any absorb drops the cache, even one
        # that wrote nothing (its provenance may still shift ages).
        assert dataset.quality() is not first

    def test_refresh_forces_recompute(self):
        dataset = _dataset(
            ["a", "b"],
            entries=[("a", "b", 10.0)],
            records=[_measured("a", "b", 10.0)],
        )
        first = dataset.quality()
        assert dataset.quality(refresh=True) is not first

    def test_quality_scores_follow_grown_node_set(self):
        dataset = _dataset(
            ["a", "b"],
            entries=[("a", "b", 10.0)],
            records=[_measured("a", "b", 10.0)],
        )
        assert dataset.quality().nodes == ["a", "b"]
        log = ProvenanceLog()
        log.add(_measured("b", "c", 30.0))
        fresh = RttMatrix(["b", "c"])
        fresh.set("b", "c", 30.0)
        dataset.absorb(fresh, provenance=log)
        rescored = dataset.quality()
        assert rescored.nodes == ["a", "b", "c"]
        assert rescored.score_for("b", "c") is not None


# ----------------------------------------------------------------------
# absorb and submatrix write whole entry sets in one scatter; the
# reference is ``RttMatrix.set`` applied entry by entry.


def _random_matrix(nodes, rng, fraction):
    matrix = RttMatrix(list(nodes))
    for i, a in enumerate(nodes):
        for b in nodes[i + 1 :]:
            if rng.random() < fraction:
                matrix.set(a, b, float(rng.uniform(1.0, 300.0)))
    return matrix


def _absorb_by_set(standing: RttMatrix, fresh: RttMatrix):
    """What ``absorb`` must leave behind, one ``set`` at a time."""
    nodes = standing.nodes + [n for n in fresh.nodes if n not in standing]
    expected = RttMatrix(nodes)
    for a, b, rtt in standing.measured_pairs():
        expected.set(a, b, rtt)
    overwritten = sum(
        standing.has(a, b)
        for a, b, _ in fresh.measured_pairs()
        if a in standing and b in standing
    )
    for a, b, rtt in fresh.measured_pairs():
        expected.set(a, b, rtt)
    return expected, overwritten


class TestScatterMatchesSetBySet:
    @pytest.mark.parametrize("seed", range(6))
    def test_overlapping_plus_new_nodes_in_another_order(self, seed):
        rng = np.random.default_rng(seed)
        standing_nodes = [f"S{k}" for k in range(9)]
        # Shares five nodes (shuffled), brings three the dataset lacks.
        fresh_nodes = list(rng.permutation(standing_nodes[:5] + ["n0", "n1", "n2"]))
        standing = _random_matrix(standing_nodes, rng, 0.5)
        fresh = _random_matrix(fresh_nodes, rng, 0.6)
        expected, overwritten = _absorb_by_set(standing, fresh)

        dataset = CampaignDataset(matrix=standing)
        before = dataset.matrix.num_measured
        written = dataset.absorb(fresh)

        assert written == fresh.num_measured
        assert dataset.matrix.nodes == expected.nodes
        assert np.array_equal(
            dataset.matrix.matrix, expected.matrix, equal_nan=True
        )
        # Overwrites leave the count alone, fills raise it: the scatter
        # counts new entries from the targets *before* the write.
        assert dataset.matrix.num_measured == expected.num_measured
        assert dataset.matrix.num_measured == before + written - overwritten
        assert overwritten > 0 and written > overwritten

    def test_aligned_overwrite_and_fill_counts(self):
        nodes = ["a", "b", "c", "d"]
        dataset = _dataset(nodes, entries=[("a", "b", 10.0), ("c", "d", 20.0)])
        fresh = RttMatrix(nodes)
        fresh.set("a", "b", 11.0)  # overwrite
        fresh.set("a", "c", 30.0)  # fill
        fresh.set("b", "d", 40.0)  # fill
        assert dataset.absorb(fresh) == 3
        assert dataset.matrix.num_measured == 4
        assert dataset.matrix.get("a", "b") == 11.0
        assert dataset.matrix.get("d", "c") == 20.0  # untouched, symmetric
        assert dataset.matrix.get("c", "a") == 30.0
        # Absorbing the same refresh again only overwrites.
        assert dataset.absorb(fresh) == 3
        assert dataset.matrix.num_measured == 4

    @pytest.mark.parametrize("aligned", [True, False])
    def test_mmap_backed_target_is_copied_out_then_written(self, tmp_path, aligned):
        rng = np.random.default_rng(11)
        nodes = [f"S{k}" for k in range(7)]
        path = tmp_path / "standing.npz"
        CampaignDataset(matrix=_random_matrix(nodes, rng, 0.5)).save(path)
        on_disk = path.read_bytes()
        loaded = CampaignDataset.load(path, mmap=True)
        assert loaded.matrix.is_readonly
        fresh_nodes = nodes if aligned else nodes[4:1:-1] + ["new"]
        fresh = _random_matrix(fresh_nodes, rng, 0.8)
        expected, _ = _absorb_by_set(CampaignDataset.load(path).matrix, fresh)

        written = loaded.absorb(fresh)

        assert written == fresh.num_measured > 0
        assert not loaded.matrix.is_readonly
        assert loaded.matrix.nodes == expected.nodes
        assert np.array_equal(loaded.matrix.matrix, expected.matrix, equal_nan=True)
        assert loaded.matrix.num_measured == expected.num_measured
        assert path.read_bytes() == on_disk  # the file is never written

    @pytest.mark.parametrize("seed", range(4))
    def test_submatrix_is_set_by_set_over_the_subset(self, seed):
        rng = np.random.default_rng(100 + seed)
        nodes = [f"S{k}" for k in range(10)]
        matrix = _random_matrix(nodes, rng, 0.5)
        subset = list(rng.permutation(nodes)[:6])  # any order, not a slice
        expected = RttMatrix(subset)
        for i, a in enumerate(subset):
            for b in subset[i + 1 :]:
                if matrix.has(a, b):
                    expected.set(a, b, matrix.get(a, b))
        sub = matrix.submatrix(subset)
        assert sub.nodes == subset
        assert np.array_equal(sub.matrix, expected.matrix, equal_nan=True)
        assert sub.num_measured == expected.num_measured
        assert sub.is_complete == expected.is_complete
        # The subset owns its storage.
        sub.set(subset[0], subset[1], 1.0)
        assert not matrix.has(subset[0], subset[1]) or matrix.get(
            subset[0], subset[1]
        ) != 1.0

    def test_submatrix_refuses_unknown_and_duplicate_nodes(self):
        from repro.util.errors import MeasurementError

        matrix = _random_matrix(["a", "b", "c"], np.random.default_rng(0), 1.0)
        with pytest.raises(MeasurementError, match="unknown node"):
            matrix.submatrix(["a", "zz"])
        with pytest.raises(MeasurementError, match="unique"):
            matrix.submatrix(["a", "a"])
        assert matrix.submatrix([]).nodes == []
