"""Binary dataset persistence, the zero-copy matrix view, and absorb.

Three contracts pinned here:

* ``.npz`` round-trips are **bit-for-bit stable** — save, load, save
  again and the bytes match (deterministic zip metadata), so dataset
  files diff cleanly under version control and content-addressed
  storage.
* npz is the **one format**, written whatever the suffix and the only
  one read: ``load`` tells it by the zip magic, not the suffix (what
  it says of any other file is ``test_dataset_mmap.py``'s).
* ``RttMatrix.matrix`` is a read-only view with O(1) cached
  completeness counters — a deep copy's or an unpickled matrix's over
  its own backing — and ``CampaignDataset.absorb`` folds fresh results
  into a standing dataset.
"""

import copy
import hashlib
import pickle
import tempfile
from pathlib import Path

import numpy as np
import pytest
from conftest import legacy_dataset
from hypothesis import given, settings, strategies as st

from repro.core.dataset import (
    CampaignDataset,
    LegProvenance,
    PairProvenance,
    ProvenanceLog,
    RttMatrix,
)


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
        assert restored.provenance.records() == dataset.provenance.records()
        assert restored.provenance.legs() == dataset.provenance.legs()

    def test_save_writes_npz_whatever_the_suffix(self, tmp_path):
        dataset = _build_dataset(n=3)
        paths = [tmp_path / name for name in ("x.npz", "x.json", "x")]
        for path in paths:
            dataset.save(path)
        assert {path.read_bytes() for path in paths} == {paths[0].read_bytes()}
        assert paths[0].read_bytes()[:4] == b"PK\x03\x04"
        # Load sniffs the magic bytes, not the suffix.
        assert CampaignDataset.load(paths[1]).matrix.nodes == dataset.matrix.nodes

    def test_save_takes_no_format(self, tmp_path):
        with pytest.raises(TypeError):
            _build_dataset(n=3).save(tmp_path / "x.json", format="json")

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


#: Text as the npz string tables hold it: no NUL, which numpy's
#: fixed-width ``str`` arrays drop from the end of an entry.
_TEXT = st.text(
    st.characters(blacklist_categories=("Cs",), blacklist_characters="\x00"), max_size=6
)
_COUNT = st.integers(0, 2**31 - 1)
_MS = st.floats(allow_nan=False)
_SHARD = st.none() | st.integers(np.iinfo(np.int32).min + 1, 2**31 - 1)

_PAIRS = st.builds(
    PairProvenance, x=_TEXT, y=_TEXT, status=_TEXT, rtt_ms=st.none() | _MS,
    cxy_ms=st.none() | _MS, leg_x_ms=st.none() | _MS, leg_y_ms=st.none() | _MS,
    samples_requested=_COUNT, samples_kept=_COUNT, samples_saved=_COUNT,
    stop_reason=st.none() | _TEXT, leg_cache_hits=_COUNT, retries=_COUNT,
    failure_category=st.none() | _TEXT, reason=st.none() | _TEXT, duration_ms=_MS,
    shard=_SHARD,
)
_LEGS = st.builds(
    LegProvenance, relay=_TEXT, rtt_ms=st.none() | _MS, samples_requested=_COUNT,
    samples_kept=_COUNT, samples_saved=_COUNT, stop_reason=st.none() | _TEXT,
    duration_ms=_MS, shard=_SHARD,
)


class TestEveryRecordRoundTrips:
    """Whatever a log holds — any text in its tables, any count a column
    stores, ``None`` in every field that takes it — a save gives back
    on both load paths, field for field."""

    @staticmethod
    def _round_trip(log, mmap):
        with tempfile.TemporaryDirectory() as directory:
            path = Path(directory) / "ds.npz"
            CampaignDataset(matrix=RttMatrix(["a"]), provenance=log).save(path)
            return CampaignDataset.load(path, mmap=mmap).provenance

    @pytest.mark.parametrize("mmap", [False, True])
    @settings(max_examples=60, deadline=None)
    @given(records=st.lists(_PAIRS, max_size=4))
    def test_pair_records(self, records, mmap):
        log = ProvenanceLog()
        for record in records:
            log.add(record)
        assert self._round_trip(log, mmap).records() == records

    @pytest.mark.parametrize("mmap", [False, True])
    @settings(max_examples=60, deadline=None)
    @given(records=st.lists(_LEGS, max_size=4))
    def test_leg_records(self, records, mmap):
        log = ProvenanceLog()
        for record in records:
            log.add_leg(record)
        assert self._round_trip(log, mmap).legs() == records


def _holes_300():
    """A 300-node matrix with about 30% of its pairs unmeasured."""
    rng = np.random.default_rng(300)
    n = 300
    values = np.triu(rng.uniform(5.0, 300.0, (n, n)), 1)
    values += values.T
    hole = np.triu(rng.random((n, n)) < 0.3, 1)
    values[hole | hole.T] = np.nan
    np.fill_diagonal(values, 0.0)
    nodes = [f"N{i:03d}" for i in range(n)]
    return CampaignDataset(
        matrix=RttMatrix.from_array(nodes, values), meta={"relays": n}
    )


#: SHA-256 of two saved files as written when each entry was first built
#: whole in memory (``np.lib.format.write_array`` into a buffer, then
#: ``ZipFile.writestr``). The streamed writer keeps every byte.
PINNED_FILES = {
    "legacy": (
        legacy_dataset,
        "6e05c0e85846b779ec07d17d156a7ccfe9139cfe757c398b3d34d1209caccc45",
    ),
    "holes_300": (
        _holes_300,
        "d8d4a24aeb6ffbc92855447e1ee54bbd55c298efe6f697c92c6698f0381c522d",
    ),
}


@pytest.mark.parametrize("name", sorted(PINNED_FILES))
def test_the_streamed_file_keeps_its_bytes(tmp_path, name):
    build, digest = PINNED_FILES[name]
    dataset = build()
    path = tmp_path / "ds.npz"
    dataset.save(path)
    assert _sha(path) == digest
    for mmap in (False, True):
        loaded = CampaignDataset.load(path, mmap=mmap)
        assert loaded.matrix.nodes == dataset.matrix.nodes
        assert loaded.matrix.matrix.tobytes() == dataset.matrix.matrix.tobytes()
        assert loaded.provenance.records() == dataset.provenance.records()
        assert loaded.provenance.legs() == dataset.provenance.legs()
        assert loaded.meta == dataset.meta


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

    @pytest.mark.parametrize("mapped", [False, True], ids=["owned", "mapped"])
    @pytest.mark.parametrize(
        "duplicate",
        [copy.deepcopy, lambda dataset: pickle.loads(pickle.dumps(dataset))],
        ids=["deepcopy", "pickle"],
    )
    def test_a_copy_reads_its_own_writes(self, tmp_path, duplicate, mapped):
        dataset = _build_dataset(n=4)
        if mapped:
            dataset.save(tmp_path / "ds.npz")
            dataset = CampaignDataset.load(tmp_path / "ds.npz", mmap=True)
        before = dataset.matrix.copy_matrix()
        twin = duplicate(dataset)
        twin.matrix.set("N0", "N1", 5.0)
        fresh = RttMatrix(["N2", "N3"])
        fresh.set("N2", "N3", 7.0)
        twin.absorb(fresh)
        view = twin.matrix.matrix
        assert view.flags.writeable is False
        assert (view[0, 1], view[1, 0], view[2, 3]) == (5.0, 5.0, 7.0)
        assert twin.matrix.get("N0", "N1") == 5.0
        i, j, values = twin.matrix.measured_entries()
        assert np.array_equal(view[i, j], values)
        assert np.array_equal(dataset.matrix.matrix, before, equal_nan=True)

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

    @pytest.mark.parametrize("mmap", [False, True])
    def test_counts_survive_a_load(self, tmp_path, mmap):
        path = tmp_path / "ds.npz"
        legacy_dataset().save(path)
        restored = CampaignDataset.load(path, mmap=mmap).matrix
        assert restored.num_measured == 9
        assert restored.missing_count == 1


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
