"""Memory-mapped dataset loads, their copy-on-write semantics, and
damaged files on both load paths and in legacy JSON."""

import hashlib
import io
import itertools
import json
import tempfile
import zipfile
from pathlib import Path

import numpy as np
import pytest
from conftest import LEGACY_CAMPAIGN, legacy_dataset
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

    def test_legacy_json_load_ignores_mmap_flag(self):
        loaded = CampaignDataset.load(LEGACY_CAMPAIGN, mmap=True)
        assert not loaded.matrix.is_readonly
        assert loaded.matrix.content_hash() == legacy_dataset().matrix.content_hash()

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

    def test_a_file_that_is_neither_json_nor_npz(self, tmp_path):
        path = tmp_path / "ds.json"
        path.write_bytes(b"\x00\xffnot a dataset")
        for mmap in (False, True):
            with pytest.raises(MeasurementError, match="cannot load dataset"):
                CampaignDataset.load(path, mmap=mmap)


#: One entry of a legacy ``rtts_ms`` row: mostly RTTs and holes, then
#: other JSON values — non-numbers, negatives, infinities, NaN, and
#: integers no float holds.
_LEGACY_ENTRY = st.one_of(
    st.none(),
    st.floats(0.0, 500.0),
    st.floats(allow_nan=True, allow_infinity=True),
    st.integers(),
    st.sampled_from([-1, 10**400, True, "5", {}, [], [1.0]]),
)


@st.composite
def _legacy_documents(draw):
    """A legacy JSON document, a bare matrix or a ``ting-campaign/1``
    dataset, whose ``rtts_ms`` may hold anything at any length."""
    n = draw(st.integers(1, 4))
    row = st.lists(_LEGACY_ENTRY, min_size=n - 1, max_size=n + 1)
    rows = draw(st.one_of(
        st.lists(row, min_size=n, max_size=n),
        st.lists(st.one_of(row, _LEGACY_ENTRY), min_size=n - 1, max_size=n + 1),
        _LEGACY_ENTRY,
    ))
    matrix = {"nodes": [f"R{k}" for k in range(n)], "rtts_ms": rows}
    if draw(st.booleans()):
        return json.dumps(matrix)
    return json.dumps({"format": "ting-campaign/1", "matrix": matrix})


#: JSON values that are not a list of provenance records.
_NOT_RECORDS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.text(max_size=3),
    st.dictionaries(st.text(max_size=2), st.integers(), max_size=2),
    st.lists(
        st.one_of(
            st.none(), st.integers(), st.text(max_size=2), st.lists(st.integers())
        ),
        min_size=1,
        max_size=3,
    ),
)

_CAMPAIGN_HEAD = (
    '{"format": "ting-campaign/1", '
    '"matrix": {"nodes": ["a", "b"], "rtts_ms": [[0, 1], [1, 0]]}'
)


class TestDamagedLegacyJson:
    """A legacy JSON document loads only RTTs ``RttMatrix.set`` takes;
    any other row raises :class:`MeasurementError`."""

    @settings(max_examples=300, deadline=None)
    @given(text=_legacy_documents())
    @example(text='{"nodes": ["a", "b"], "rtts_ms": [[0, {}], [1, 0]]}')
    @example(text='{"nodes": ["a", "b"], "rtts_ms": 5}')
    @example(text='{"nodes": ["a", "b"], "rtts_ms": [[0, -1], [-1, 0]]}')
    @example(text='{"nodes": ["a", "b"], "rtts_ms": [[0, 1e400], [1e400, 0]]}')
    @example(
        text='{"format": "ting-campaign/1", '
        '"matrix": {"nodes": ["a", "b"], "rtts_ms": [[0, {}], [1, 0]]}}'
    )
    def test_loads_what_set_accepts_or_raises(self, text):
        with tempfile.TemporaryDirectory() as directory:
            path = Path(directory) / "legacy.json"
            path.write_text(text)
            try:
                loaded = CampaignDataset.load(path)
            except MeasurementError:
                return
        nodes = loaded.matrix.nodes
        accepting = RttMatrix(nodes)
        for i, j in itertools.permutations(range(len(nodes)), 2):
            value = loaded.matrix.matrix[i, j]
            if not np.isnan(value):
                accepting.set(nodes[i], nodes[j], value)  # raises on a refusal

    @settings(max_examples=100, deadline=None)
    @given(records=_NOT_RECORDS, key=st.sampled_from(["provenance", "legs"]))
    @example(records=[5], key="provenance")
    @example(records="x", key="provenance")
    def test_provenance_not_a_list_of_objects_raises(self, records, key):
        # The provenance half: pair and leg records load only as a list
        # of objects, never as a raw TypeError.
        if key == "legs" and records is None:
            return  # a null leg list is no legs
        text = f'{_CAMPAIGN_HEAD}, "{key}": {json.dumps(records)}}}'
        with pytest.raises(MeasurementError):
            CampaignDataset.from_json(text)

    def test_a_record_missing_its_pair_raises(self):
        text = f'{_CAMPAIGN_HEAD}, "provenance": [{{"y": "b"}}]}}'
        with pytest.raises(MeasurementError, match="malformed provenance"):
            CampaignDataset.from_json(text)

    @pytest.mark.parametrize(
        "record",
        [
            {"x": "a", "y": "b", "status": None},
            {"x": "a", "y": "b", "samples_kept": 1e300},
            {"x": "a", "y": "b", "shard": 2**40},
            {"x": "a", "y": "b", "status": True},
            {"x": "a", "y": "b", "stop_reason": 1e300},
            {"x": "a", "y": "b", "reason": [1.0]},
            {"x": "a", "y": "b", "rtt_ms": "1.5"},
            {"x": "a", "y": "b", "rtt_ms": True},
            {"x": "a", "y": "b", "shard": "3"},
            {"x": "a", "y": "b", "shard": 2.7},
            {"x": "a", "y": "b", "samples_kept": "7"},
            {"x": "a", "y": "b", "samples_kept": 7.5},
            {"x": "a", "y": "b", "samples_kept": True},
            {"x": "a", "y": "b", "shard": True},
            {"x": "a", "y": "b", "duration_ms": "2"},
        ],
        ids=["null_status", "huge_count", "huge_shard", "bool_status",
             "number_stop_reason", "list_reason", "text_rtt", "bool_rtt",
             "text_shard", "fractional_shard", "text_count", "fractional_count",
             "bool_count", "bool_shard", "text_duration"],
    )
    def test_a_record_no_campaign_writes_raises(self, record):
        # Was: a null status loaded, then read back as a raw IndexError
        # (or as another row's category); a count or shard past int32
        # escaped load as a raw OverflowError; a category or reason that
        # is no string loaded as itself and came back from a save as its
        # repr ("True", "1e+300", "['1.0']"); a number given as text or
        # as a bool, or a fractional shard or count, loaded coerced (1.5,
        # 1.0, 3, 2, 7, 7, 1, 1, 2.0).
        text = f'{_CAMPAIGN_HEAD}, "provenance": [{json.dumps(record)}]}}'
        with pytest.raises(MeasurementError, match="malformed provenance"):
            CampaignDataset.from_json(text)

    @pytest.mark.parametrize(
        "text",
        [
            '{"nodes": ["a", "b"], "rtts_ms": [[0, 1], [2, 0]]}',
            '{"nodes": ["a", "b"], "rtts_ms": [[0, 1], [null, 0]]}',
            '{"nodes": [1, 2], "rtts_ms": [[0, 1], [1, 0]]}',
            '{"nodes": "ab", "rtts_ms": [[0, 1], [1, 0]]}',
            _CAMPAIGN_HEAD + ', "meta": [1, 2]}',
        ],
        ids=["asymmetric", "half_measured", "int_nodes", "string_nodes",
             "list_meta"],
    )
    def test_what_set_cannot_produce_raises(self, text):
        # An asymmetric matrix, node ids that are not strings, meta that
        # is not an object: each used to load.
        with pytest.raises(MeasurementError):
            CampaignDataset.from_json(text)
        if '"format"' not in text:
            with pytest.raises(MeasurementError):
                RttMatrix.from_json(text)


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
