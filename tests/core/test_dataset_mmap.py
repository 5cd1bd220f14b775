"""Memory-mapped dataset loads and their copy-on-write semantics."""

import hashlib
import zipfile

import numpy as np
import pytest

from repro.core.dataset import (
    CampaignDataset,
    PairProvenance,
    ProvenanceLog,
    RttMatrix,
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

    def test_json_load_ignores_mmap_flag(self, tmp_path):
        path = tmp_path / "ds.json"
        dataset = build_dataset()
        dataset.save(path)
        loaded = CampaignDataset.load(path, mmap=True)
        assert not loaded.matrix.is_readonly
        assert loaded.matrix.content_hash() == dataset.matrix.content_hash()

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

    def test_an_intact_file_still_maps(self, tmp_path):
        path = tmp_path / "ds.npz"
        dataset = build_dataset(n=50)
        dataset.save(path)
        mapped = CampaignDataset.load(path, mmap=True)
        assert isinstance(mapped.matrix._matrix, np.memmap)
        assert mapped.matrix.content_hash() == dataset.matrix.content_hash()

    def test_a_file_that_is_neither_json_nor_npz(self, tmp_path):
        path = tmp_path / "ds.json"
        path.write_bytes(b"\x00\xffnot a dataset")
        for mmap in (False, True):
            with pytest.raises(MeasurementError, match="cannot load dataset"):
                CampaignDataset.load(path, mmap=mmap)


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
