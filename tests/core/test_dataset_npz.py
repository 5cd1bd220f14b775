"""Binary dataset persistence, the zero-copy matrix view, and absorb.

Three contracts pinned here:

* ``.npz`` round-trips are **bit-for-bit stable** — save, load, save
  again and the bytes match (deterministic zip metadata), so dataset
  files diff cleanly under version control and content-addressed
  storage.
* JSON and npz are **interchangeable**: the same dataset written both
  ways loads back with the same matrix content hash and identical
  provenance, and pre-existing JSON datasets keep loading.
* ``RttMatrix.matrix`` is a read-only view with O(1) cached
  completeness counters, and ``CampaignDataset.absorb`` folds fresh
  results into a standing dataset.
"""

import hashlib
import json

import numpy as np
import pytest

from repro.core.dataset import (
    CampaignDataset,
    LegProvenance,
    PairProvenance,
    ProvenanceLog,
    RttMatrix,
)
from repro.util.errors import MeasurementError


def _build_dataset(n=5, with_failures=True):
    nodes = [f"N{i}" for i in range(n)]
    matrix = RttMatrix(nodes)
    log = ProvenanceLog()
    rng = np.random.default_rng(11)
    for i in range(n):
        log.add_leg(
            LegProvenance(
                relay=nodes[i],
                rtt_ms=float(rng.uniform(20, 80)),
                samples_requested=4,
                samples_kept=4,
            )
        )
        for j in range(i + 1, n):
            rtt = float(rng.uniform(10, 200))
            matrix.set(nodes[i], nodes[j], rtt)
            log.add(
                PairProvenance(
                    x=nodes[i],
                    y=nodes[j],
                    status="measured",
                    rtt_ms=rtt,
                    cxy_ms=rtt * 2,
                    samples_requested=6,
                    samples_kept=5,
                    shard=(i + j) % 3,
                )
            )
    if with_failures:
        log.add(
            PairProvenance(
                x=nodes[0],
                y=nodes[1],
                status="failed",
                failure_category="timeout",
                reason="probe timed out",
                retries=2,
            )
        )
    return CampaignDataset(
        matrix=matrix, provenance=log, meta={"seed": 3, "samples": 6}
    )


def _sha(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


class TestNpzRoundtrip:
    def test_save_load_save_is_bit_stable(self, tmp_path):
        dataset = _build_dataset()
        first = tmp_path / "a.npz"
        second = tmp_path / "b.npz"
        dataset.save(first)
        CampaignDataset.load(first).save(second)
        assert _sha(first) == _sha(second)

    def test_npz_roundtrip_preserves_everything(self, tmp_path):
        dataset = _build_dataset()
        path = tmp_path / "campaign.npz"
        dataset.save(path)
        restored = CampaignDataset.load(path)
        assert restored.meta == dataset.meta
        assert restored.matrix.nodes == dataset.matrix.nodes
        assert np.array_equal(
            restored.matrix.matrix, dataset.matrix.matrix, equal_nan=True
        )
        assert restored.provenance.to_list() == dataset.provenance.to_list()
        assert restored.provenance.legs_to_list() == dataset.provenance.legs_to_list()

    def test_json_and_npz_agree(self, tmp_path):
        dataset = _build_dataset()
        as_json = tmp_path / "campaign.json"
        as_npz = tmp_path / "campaign.npz"
        dataset.save(as_json)
        dataset.save(as_npz)
        from_json = CampaignDataset.load(as_json)
        from_npz = CampaignDataset.load(as_npz)
        assert from_json.matrix.content_hash() == from_npz.matrix.content_hash()
        assert len(from_json.provenance) == len(from_npz.provenance)
        assert from_json.provenance.failure_breakdown() == (
            from_npz.provenance.failure_breakdown()
        )
        assert from_json.meta == from_npz.meta

    def test_auto_format_follows_suffix(self, tmp_path):
        dataset = _build_dataset(n=3)
        as_npz = tmp_path / "x.npz"
        as_json = tmp_path / "x.json"
        dataset.save(as_npz)
        dataset.save(as_json)
        assert as_npz.read_bytes()[:4] == b"PK\x03\x04"
        assert as_json.read_bytes()[:1] == b"{"

    def test_explicit_format_overrides_suffix(self, tmp_path):
        dataset = _build_dataset(n=3)
        path = tmp_path / "oddly.json"
        dataset.save(path, format="npz")
        # Load sniffs the magic bytes, not the suffix.
        restored = CampaignDataset.load(path)
        assert restored.matrix.nodes == dataset.matrix.nodes

    def test_unknown_format_rejected(self, tmp_path):
        dataset = _build_dataset(n=3)
        with pytest.raises(MeasurementError):
            dataset.save(tmp_path / "x.bin", format="parquet")

    def test_empty_provenance_dataset_roundtrips(self, tmp_path):
        matrix = RttMatrix(["A", "B"])
        matrix.set("A", "B", 12.5)
        dataset = CampaignDataset(matrix=matrix)
        path = tmp_path / "bare.npz"
        dataset.save(path)
        restored = CampaignDataset.load(path)
        assert restored.matrix.get("A", "B") == pytest.approx(12.5)
        assert len(restored.provenance) == 0

    def test_reason_text_survives(self, tmp_path):
        dataset = _build_dataset()
        path = tmp_path / "campaign.npz"
        dataset.save(path)
        restored = CampaignDataset.load(path)
        failed = restored.provenance.by_status("failed")
        assert failed[0].reason == "probe timed out"


class TestMatrixView:
    def test_view_is_read_only(self):
        matrix = RttMatrix(["a", "b"])
        matrix.set("a", "b", 10.0)
        view = matrix.matrix
        assert view.flags.writeable is False
        with pytest.raises(ValueError):
            view[0, 1] = 99.0

    def test_view_is_zero_copy_and_live(self):
        matrix = RttMatrix(["a", "b"])
        view = matrix.matrix
        assert matrix.matrix is view  # same object every access
        matrix.set("a", "b", 10.0)
        assert view[0, 1] == 10.0  # tracks later writes

    def test_copy_matrix_is_writable_and_detached(self):
        matrix = RttMatrix(["a", "b"])
        matrix.set("a", "b", 10.0)
        copy = matrix.copy_matrix()
        copy[0, 1] = 99.0
        assert matrix.get("a", "b") == 10.0

    def test_as_array_still_returns_a_copy(self):
        matrix = RttMatrix(["a", "b"])
        matrix.set("a", "b", 10.0)
        arr = matrix.as_array()
        arr[0, 1] = 99.0
        assert matrix.get("a", "b") == 10.0


def _whole_array_hash(matrix):
    """``content_hash`` as one pass over the whole array (three full
    copies): the digest the blocked hash must keep."""
    digest = hashlib.sha256()
    for node in matrix.nodes:
        digest.update(node.encode("utf-8") + b"\x00")
    rounded = np.nan_to_num(np.round(matrix.matrix, 6), nan=-1.0)
    digest.update(np.ascontiguousarray(rounded).tobytes())
    return digest.hexdigest()


def _random_matrix(n, seed=3):
    rng = np.random.default_rng(seed)
    values = rng.uniform(1.0, 300.0, (n, n)).round(9)
    values[rng.random((n, n)) < 0.2] = np.nan
    values = np.triu(values, 1)
    values = values + values.T
    return [f"N{i}" for i in range(n)], values


class TestContentHash:
    @pytest.mark.parametrize("n", [0, 1, 2, 15, 16, 17, 33, 100])
    def test_the_blocked_digest_is_the_whole_arrays(self, n):
        nodes, values = _random_matrix(n)
        matrix = RttMatrix.from_array(nodes, values)
        assert matrix.content_hash() == _whole_array_hash(matrix)
        # Adopted in Fortran order, it still hashes its C-order values.
        adopted = RttMatrix.from_array(nodes, np.asfortranarray(matrix.matrix), copy=False)
        assert adopted.content_hash() == matrix.content_hash()

    def test_hashing_allocates_at_most_an_eighth_of_the_matrix(self):
        import tracemalloc

        nodes, values = _random_matrix(1_000)
        matrix = RttMatrix.from_array(nodes, values)
        tracemalloc.start()
        try:
            matrix.content_hash()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= matrix.matrix.nbytes / 8


class TestCachedCounts:
    def test_counts_track_sets(self):
        matrix = RttMatrix(["a", "b", "c"])
        assert matrix.num_measured == 0
        assert matrix.missing_count == 3
        assert not matrix.is_complete
        matrix.set("a", "b", 1.0)
        matrix.set("a", "b", 2.0)  # overwrite must not double-count
        assert matrix.num_measured == 1
        assert matrix.missing_count == 2
        matrix.set("a", "c", 1.0)
        matrix.set("b", "c", 1.0)
        assert matrix.is_complete
        assert matrix.missing_count == 0

    def test_counts_survive_json_roundtrip(self):
        matrix = RttMatrix(["a", "b", "c"])
        matrix.set("a", "b", 1.0)
        restored = RttMatrix.from_json(matrix.to_json())
        assert restored.num_measured == 1
        assert restored.missing_count == 2


class TestAbsorb:
    def test_aligned_overwrite(self):
        dataset = _build_dataset(n=3, with_failures=False)
        fresh = RttMatrix(dataset.matrix.nodes)
        fresh.set("N0", "N1", 123.0)
        updated = dataset.absorb(fresh)
        assert updated == 1
        assert dataset.matrix.get("N0", "N1") == pytest.approx(123.0)
        # Entries the refresh did not measure keep their old values.
        assert dataset.matrix.is_complete

    def test_absorb_grows_nodes(self):
        matrix = RttMatrix(["a", "b"])
        matrix.set("a", "b", 10.0)
        dataset = CampaignDataset(matrix=matrix)
        fresh = RttMatrix(["b", "c"])
        fresh.set("b", "c", 20.0)
        updated = dataset.absorb(fresh)
        assert updated == 1
        assert dataset.matrix.nodes == ["a", "b", "c"]
        assert dataset.matrix.get("a", "b") == pytest.approx(10.0)
        assert dataset.matrix.get("b", "c") == pytest.approx(20.0)

    def test_absorb_merges_provenance_and_meta(self):
        dataset = _build_dataset(n=3, with_failures=False)
        before = len(dataset.provenance)
        fresh = RttMatrix(dataset.matrix.nodes)
        fresh.set("N0", "N2", 55.0)
        log = ProvenanceLog()
        log.add(
            PairProvenance(x="N0", y="N2", status="measured", rtt_ms=55.0)
        )
        dataset.absorb(fresh, provenance=log, meta={"refreshed": 1})
        assert len(dataset.provenance) == before + 1
        assert dataset.meta["refreshed"] == 1
        assert dataset.meta["seed"] == 3  # pre-existing meta survives

    def test_absorb_updates_cached_counts(self):
        matrix = RttMatrix(["a", "b", "c"])
        dataset = CampaignDataset(matrix=matrix)
        fresh = RttMatrix(["a", "b", "c"])
        fresh.set("a", "b", 10.0)
        fresh.set("a", "c", 20.0)
        dataset.absorb(fresh)
        assert dataset.matrix.num_measured == 2
        assert dataset.matrix.missing_count == 1
