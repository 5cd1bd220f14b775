"""Memory-mapped dataset loads, their copy-on-write semantics, and
damaged or foreign files on both load paths."""

import hashlib
import io
import tempfile
import zipfile
from pathlib import Path

import numpy as np
import pytest
from conftest import JSON_DATASETS
from hypothesis import example, given, settings, strategies as st

from repro.core.dataset import (
    CampaignDataset,
    LegProvenance,
    PairProvenance,
    ProvenanceLog,
    RttMatrix,
    _write_npz,
)
from repro.util.errors import MeasurementError


def build_dataset(n=10, seed=2, holes=True):
    rng = np.random.default_rng(seed)
    nodes = [f"N{i:02d}" for i in range(n)]
    matrix = RttMatrix(nodes)
    log = ProvenanceLog()
    for i in range(n):
        for j in range(i + 1, n):
            if holes and rng.random() < 0.2:
                continue
            rtt = float(rng.uniform(10, 250))
            matrix.set(nodes[i], nodes[j], rtt)
            log.add(PairProvenance(
                x=nodes[i], y=nodes[j], status="measured", rtt_ms=rtt,
                samples_requested=4, samples_kept=4,
            ))
    return CampaignDataset(matrix=matrix, provenance=log)


def file_digest(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def held(dataset):
    """What a dataset holds, as a load must give it back."""
    return dataset.matrix.content_hash(), dataset.provenance.records(), dataset.meta


def _saved_three_nodes():
    dataset = build_dataset(n=3)
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "ds.npz"
        dataset.save(path)
        return path.read_bytes(), held(dataset)


#: A saved 3-node dataset's bytes, and what it holds.
SAVED, HELD = _saved_three_nodes()


def _escaped_at_bit_0():
    """Where four flips of bit 0x01 in :data:`SAVED` sit that once
    escaped ``load`` uncategorized, each naming what it raised."""
    with zipfile.ZipFile(io.BytesIO(SAVED)) as archive:
        matrix = archive.getinfo("matrix.npy")
    central = SAVED.find(b"PK\x01\x02")  # the first entry's directory record
    return {
        # The matrix entry's npy header length: on the mmap path the
        # header parse ran past it (tokenize.TokenError).
        "npy header length": matrix.header_offset + 30 + len(matrix.filename) + 9,
        "encryption flag": central + 8,  # RuntimeError: password required
        "compression method": central + 10,  # NotImplementedError
        "central directory offset": SAVED.rfind(b"PK\x05\x06") + 17,  # OSError
    }


ESCAPED = _escaped_at_bit_0()


def loads_the_same_or_raises(damaged, mmap):
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "ds.npz"
        path.write_bytes(damaged)
        try:
            loaded = CampaignDataset.load(path, mmap=mmap)
        except MeasurementError as exc:
            assert "cannot load dataset" in str(exc)
            return
        assert held(loaded) == HELD


class TestMmapLoad:
    def test_matrix_is_memmap_backed(self, tmp_path):
        path = tmp_path / "ds.npz"
        build_dataset().save(path)
        mapped = CampaignDataset.load(path, mmap=True)
        assert isinstance(mapped.matrix._matrix, np.memmap)
        assert mapped.matrix.is_readonly
        assert not mapped.matrix._matrix.flags.writeable

    def test_values_bit_identical_to_eager_load(self, tmp_path):
        path = tmp_path / "ds.npz"
        build_dataset().save(path)
        eager = CampaignDataset.load(path)
        mapped = CampaignDataset.load(path, mmap=True)
        assert eager.matrix.nodes == mapped.matrix.nodes
        np.testing.assert_array_equal(
            np.asarray(eager.matrix.matrix), np.asarray(mapped.matrix.matrix)
        )
        assert eager.matrix.content_hash() == mapped.matrix.content_hash()
        assert eager.matrix.num_measured == mapped.matrix.num_measured

    def test_eager_load_stays_plain_ndarray(self, tmp_path):
        path = tmp_path / "ds.npz"
        build_dataset().save(path)
        eager = CampaignDataset.load(path)
        assert not isinstance(eager.matrix._matrix, np.memmap)
        assert not eager.matrix.is_readonly


class TestCopyOnWrite:
    def test_set_materializes_private_copy(self, tmp_path):
        path = tmp_path / "ds.npz"
        build_dataset(holes=False).save(path)
        before = file_digest(path)
        mapped = CampaignDataset.load(path, mmap=True)
        nodes = mapped.matrix.nodes
        mapped.matrix.set(nodes[0], nodes[1], 1.25)
        assert not mapped.matrix.is_readonly
        assert not isinstance(mapped.matrix._matrix, np.memmap)
        assert mapped.matrix.get(nodes[0], nodes[1]) == 1.25
        assert file_digest(path) == before  # on-disk npz untouched

    def test_absorb_materializes_then_merges(self, tmp_path):
        path = tmp_path / "ds.npz"
        build_dataset(holes=False).save(path)
        before = file_digest(path)
        mapped = CampaignDataset.load(path, mmap=True)
        nodes = mapped.matrix.nodes

        refresh = RttMatrix(nodes)
        refresh.set(nodes[2], nodes[3], 99.5)
        log = ProvenanceLog()
        log.add(PairProvenance(
            x=nodes[2], y=nodes[3], status="measured", rtt_ms=99.5,
            samples_requested=4, samples_kept=4,
        ))
        updated = mapped.absorb(refresh, provenance=log)
        assert updated == 1
        assert not mapped.matrix.is_readonly
        assert mapped.matrix.get(nodes[2], nodes[3]) == 99.5
        assert file_digest(path) == before  # copy-on-write, not write-through

        # A fresh mmap of the same file still sees the original value.
        fresh = CampaignDataset.load(path, mmap=True)
        assert fresh.matrix.get(nodes[2], nodes[3]) != 99.5

    def test_readonly_rejects_direct_view_mutation(self, tmp_path):
        path = tmp_path / "ds.npz"
        build_dataset().save(path)
        mapped = CampaignDataset.load(path, mmap=True)
        with pytest.raises(ValueError):
            mapped.matrix.matrix[0, 1] = 7.0


def _matrix_end(path):
    """The offset just past the matrix entry's bytes (its last value's)."""
    with zipfile.ZipFile(path) as archive:
        info = archive.getinfo("matrix.npy")
    return info.header_offset + 30 + len(info.filename) + info.file_size


def _header_lying(path, n=40):
    """Save an ``n``-node dataset whose matrix entry's npy header says
    ``(n, n)`` but which stores ``(n - 1)²`` zeros (its CRC-32 valid),
    followed by a zero-filled entry; returns ``n``."""
    build_dataset(n=n, holes=False).save(path)
    with zipfile.ZipFile(path) as archive:
        entries = [(info, archive.read(info)) for info in archive.infolist()]
    with zipfile.ZipFile(path, "w", zipfile.ZIP_STORED) as archive:
        for info, stored in entries:
            if info.filename == "matrix.npy":
                header = stored[: len(stored) - 8 * n * n]
                archive.writestr(info, header + bytes(8 * (n - 1) ** 2))
                archive.writestr("zeros", bytes(8 * n * n))
            else:
                archive.writestr(info, stored)
    return n


def _damaged(path, damage):
    """``path``'s bytes with ``damage`` done to them."""
    raw = path.read_bytes()
    if damage == "truncated":
        return raw[: len(raw) // 2]
    if damage == "not a zip":
        return b"PK\x03\x04" + bytes(len(raw) - 4)
    # A high mantissa bit of the matrix's last off-diagonal value.
    flipped = bytearray(raw)
    flipped[_matrix_end(path) - 8 - 2] ^= 0x40
    return bytes(flipped)


class TestDamagedFiles:
    """A damaged npz fails the same way on both paths — a categorized
    :class:`MeasurementError` — and a mapped matrix is never served from
    bytes that fail the entry's stored CRC-32."""

    @pytest.mark.parametrize("mmap", [False, True])
    @pytest.mark.parametrize("damage", ["truncated", "bit flipped", "not a zip"])
    def test_every_damage_raises_on_both_paths(self, tmp_path, damage, mmap):
        path = tmp_path / "ds.npz"
        build_dataset(n=50, holes=False).save(path)
        path.write_bytes(_damaged(path, damage))
        with pytest.raises(MeasurementError, match="cannot load dataset"):
            CampaignDataset.load(path, mmap=mmap)

    @pytest.mark.parametrize("mmap", [False, True])
    def test_a_header_that_overstates_its_payload_raises_on_both_paths(
        self, tmp_path, mmap
    ):
        path = tmp_path / "ds.npz"
        _header_lying(path)
        with pytest.raises(MeasurementError, match="cannot load dataset"):
            CampaignDataset.load(path, mmap=mmap)

    def test_a_mapping_that_trusted_the_header_would_serve_a_full_matrix(
        self, tmp_path
    ):
        """What the length check keeps out: 39 × 39 stored zeros read as
        40 × 40 run on into the zero-filled entry after them, a matrix
        with every pair measured."""
        path = tmp_path / "ds.npz"
        n = _header_lying(path)
        with zipfile.ZipFile(path) as archive:
            info = archive.getinfo("matrix.npy")
            stored = archive.read(info)
        header = len(stored) - 8 * (n - 1) ** 2
        offset = info.header_offset + 30 + len(info.filename) + header
        raw = np.memmap(path, dtype="<f8", mode="r", offset=offset, shape=(n, n))
        served = RttMatrix.from_array([f"N{i:02d}" for i in range(n)], np.array(raw))
        assert served.num_measured == n * (n - 1) // 2

    def test_the_flipped_bit_moves_the_matrix_a_raw_mapping_would_serve(
        self, tmp_path
    ):
        """What the CRC keeps out: the same bytes mapped without it hash
        differently from the matrix that was saved."""
        path = tmp_path / "ds.npz"
        dataset = build_dataset(n=50, holes=False)
        dataset.save(path)
        path.write_bytes(_damaged(path, "bit flipped"))
        n = len(dataset.matrix.nodes)
        raw = np.memmap(
            path, dtype="<f8", mode="r", offset=_matrix_end(path) - 8 * n * n,
            shape=(n, n),
        )
        served = RttMatrix.from_array(dataset.matrix.nodes, np.array(raw))
        assert served.content_hash() != dataset.matrix.content_hash()

    @settings(max_examples=200, deadline=None)
    @given(
        offset=st.integers(0, len(SAVED) - 1),
        mask=st.integers(1, 255),
        mmap=st.booleans(),
    )
    @example(offset=ESCAPED["npy header length"], mask=0x01, mmap=True)
    @example(offset=ESCAPED["encryption flag"], mask=0x01, mmap=False)
    @example(offset=ESCAPED["compression method"], mask=0x01, mmap=True)
    @example(offset=ESCAPED["central directory offset"], mask=0x01, mmap=False)
    def test_any_byte_flip_loads_the_same_data_or_raises(self, offset, mask, mmap):
        damaged = bytearray(SAVED)
        damaged[offset] ^= mask
        loads_the_same_or_raises(bytes(damaged), mmap)

    @settings(max_examples=60, deadline=None)
    @given(length=st.integers(0, len(SAVED) - 1), mmap=st.booleans())
    def test_any_truncation_loads_the_same_data_or_raises(self, length, mmap):
        loads_the_same_or_raises(SAVED[:length], mmap)

    def test_a_missing_file_is_not_a_damaged_one(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            CampaignDataset.load(tmp_path / "absent.npz", mmap=True)

    def test_an_intact_file_still_maps(self, tmp_path):
        path = tmp_path / "ds.npz"
        dataset = build_dataset(n=50)
        dataset.save(path)
        mapped = CampaignDataset.load(path, mmap=True)
        assert isinstance(mapped.matrix._matrix, np.memmap)
        assert mapped.matrix.content_hash() == dataset.matrix.content_hash()


def _npy_bytes():
    buffer = io.BytesIO()
    np.save(buffer, np.zeros((2, 2)))
    return buffer.getvalue()


#: Files that are no npz dataset: the two JSON documents earlier
#: releases read, a bare array, nothing, less than the magic, noise.
NOT_NPZ = {
    **{name: text.encode() for name, text in JSON_DATASETS.items()},
    "bare npy": _npy_bytes(),
    "empty": b"",
    "three bytes": b"PK\x03",
    "noise": b"\x00\xffnot a dataset",
}


@pytest.mark.parametrize("mmap", [False, True])
@pytest.mark.parametrize("name", sorted(NOT_NPZ))
def test_a_file_that_is_no_npz_names_the_conversion(tmp_path, name, mmap):
    """Told by the 4-byte magic before anything parses the file, which
    is what keeps a bare ``.npy`` out: ``np.load`` hands it back as an
    array, not a container, and the ``with`` around it raises a raw
    ``TypeError``."""
    path = tmp_path / "ds.json"
    path.write_bytes(NOT_NPZ[name])
    with pytest.raises(MeasurementError, match="not an npz dataset") as excinfo:
        CampaignDataset.load(path, mmap=mmap)
    assert '"Converting a JSON dataset"' in str(excinfo.value)


class TestFromArrayAdoption:
    def test_copy_false_adopts_without_copying(self):
        values = np.zeros((3, 3))
        values[0, 1] = values[1, 0] = 5.0
        matrix = RttMatrix.from_array(["a", "b", "c"], values, copy=False)
        assert matrix._matrix is values

    def test_nonzero_diagonal_rejected(self):
        from repro.util.errors import MeasurementError

        values = np.eye(3)
        with pytest.raises(MeasurementError):
            RttMatrix.from_array(["a", "b", "c"], values, copy=False)


def _with_column(path, column, values):
    """Rewrite the dataset at ``path`` with one column replaced."""
    with np.load(path) as data:
        arrays = {name: data[name] for name in data.files}
    arrays[column] = np.asarray(values)
    _write_npz(path, arrays)


class TestProvenanceColumns:
    """Provenance columns hold one row per record, and codes into the
    name and category tables. A code outside its table used to load
    silently re-attributed (a negative index reads from the end) or
    escape as an ``IndexError``; a column of another length was
    broadcast or cut to the first one's."""

    @pytest.mark.parametrize("mmap", [False, True])
    @pytest.mark.parametrize(
        "column, values",
        [
            ("pair_rtt_ms", np.zeros(1)),
            ("pair_duration_ms", np.zeros(5)),
            ("pair_x", np.array(0, dtype=np.int32)),
            ("leg_rtt_ms", np.zeros((1, 1))),
        ],
    )
    def test_a_column_of_another_length_raises(self, tmp_path, column, values, mmap):
        dataset = build_dataset(n=3, holes=False)
        dataset.provenance.add_leg(LegProvenance(relay="N00", rtt_ms=30.0))
        path = tmp_path / "ds.npz"
        dataset.save(path)
        _with_column(path, column, values)
        with pytest.raises(MeasurementError, match="columns have shapes"):
            CampaignDataset.load(path, mmap=mmap)

    @pytest.mark.parametrize("mmap", [False, True])
    @pytest.mark.parametrize(
        "column, codes",
        [
            ("pair_x", [-1, -1, -1]),
            ("pair_y", [1, 2, 99]),
            ("pair_x", [0.0, 0.0, 1.0]),
            ("leg_relay", [-1]),
            ("pair_status", [0, 0, -1]),
            ("pair_failure_category", [-1, -1, 5]),
            ("pair_stop_reason", [-1, -2, -1]),
            ("leg_stop_reason", [1]),
        ],
    )
    def test_a_code_outside_its_table_raises(self, tmp_path, column, codes, mmap):
        dataset = build_dataset(n=3, holes=False)
        dataset.provenance.add_leg(LegProvenance(relay="N00", rtt_ms=30.0))
        path = tmp_path / "ds.npz"
        dataset.save(path)
        _with_column(path, column, codes)
        with pytest.raises(MeasurementError, match=f"'{column}' holds"):
            CampaignDataset.load(path, mmap=mmap)

    def test_codes_inside_their_tables_load(self, tmp_path):
        dataset = build_dataset(n=3, holes=False)
        path = tmp_path / "ds.npz"
        dataset.save(path)
        _with_column(path, "pair_x", np.array([1, 0, 0], dtype=np.int64))
        loaded = CampaignDataset.load(path)
        assert [(r.x, r.y) for r in loaded.provenance] == [
            ("N01", "N01"), ("N00", "N02"), ("N00", "N02"),
        ]
