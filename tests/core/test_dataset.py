"""Tests for the all-pairs RTT matrix."""

import tempfile
from pathlib import Path

import numpy as np
import pytest
from conftest import legacy_dataset
from hypothesis import given, strategies as st

from repro.core.dataset import CampaignDataset, RttMatrix
from repro.util.errors import MeasurementError


@pytest.fixture
def matrix():
    m = RttMatrix(["a", "b", "c"])
    m.set("a", "b", 10.0)
    m.set("b", "c", 20.0)
    m.set("a", "c", 25.0)
    return m


class TestBasics:
    def test_symmetry(self, matrix):
        assert matrix.get("a", "b") == matrix.get("b", "a") == 10.0

    def test_unmeasured_pair_raises(self):
        m = RttMatrix(["a", "b"])
        with pytest.raises(MeasurementError):
            m.get("a", "b")

    def test_has(self, matrix):
        assert matrix.has("a", "b")
        assert not RttMatrix(["a", "b"]).has("a", "b")

    def test_unknown_node_raises(self, matrix):
        with pytest.raises(MeasurementError):
            matrix.get("a", "zz")

    def test_duplicate_nodes_rejected(self):
        with pytest.raises(MeasurementError):
            RttMatrix(["a", "a"])

    def test_negative_rtt_rejected(self, matrix):
        with pytest.raises(MeasurementError):
            matrix.set("a", "b", -1.0)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_rtt_rejected(self, value):
        # NaN used to slip past ``rtt_ms < 0`` and bump the counter
        # without ``has`` turning true; +inf was stored as a measurement.
        m = RttMatrix(["a", "b", "c"])
        m.set("a", "c", 7.0)
        with pytest.raises(MeasurementError):
            m.set("a", "b", value)
        assert m.num_measured == 1
        assert not m.has("a", "b")
        assert m.missing_count == 2

    def test_diagonal_immutable(self, matrix):
        with pytest.raises(MeasurementError):
            matrix.set("a", "a", 5.0)

    def test_overwrite_updates(self, matrix):
        matrix.set("a", "b", 11.0)
        assert matrix.get("a", "b") == 11.0

    def test_contains_and_len(self, matrix):
        assert "a" in matrix
        assert "zz" not in matrix
        assert len(matrix) == 3


class TestCompleteness:
    def test_complete_detection(self, matrix):
        assert matrix.is_complete

    def test_incomplete_detection(self):
        m = RttMatrix(["a", "b", "c"])
        m.set("a", "b", 1.0)
        assert not m.is_complete
        assert m.num_measured == 1

    def test_pairs_enumeration(self, matrix):
        assert len(list(matrix.pairs())) == 3

    def test_measured_pairs(self, matrix):
        measured = {(a, b): rtt for a, b, rtt in matrix.measured_pairs()}
        assert measured[("a", "b")] == 10.0
        assert len(measured) == 3


class TestStatistics:
    def test_mean_rtt(self, matrix):
        assert matrix.mean_rtt_ms() == pytest.approx((10 + 20 + 25) / 3)

    def test_mean_of_empty_raises(self):
        with pytest.raises(MeasurementError):
            RttMatrix(["a", "b"]).mean_rtt_ms()

    def test_values_vector(self, matrix):
        assert sorted(matrix.values()) == [10.0, 20.0, 25.0]

    def test_as_array_is_copy(self, matrix):
        arr = matrix.as_array()
        arr[0, 1] = 999.0
        assert matrix.get("a", "b") == 10.0


class TestSubmatrix:
    def test_submatrix_keeps_values(self, matrix):
        sub = matrix.submatrix(["a", "c"])
        assert sub.get("a", "c") == 25.0
        assert len(sub) == 2

    def test_submatrix_of_incomplete(self):
        m = RttMatrix(["a", "b", "c"])
        m.set("a", "b", 1.0)
        sub = m.submatrix(["a", "b", "c"])
        assert sub.has("a", "b")
        assert not sub.has("a", "c")


class TestSerialization:
    """A matrix is saved inside a :class:`CampaignDataset` (npz)."""

    def test_save_load(self, matrix, tmp_path):
        path = tmp_path / "matrix.npz"
        CampaignDataset(matrix=matrix).save(path)
        assert CampaignDataset.load(path).matrix.get("b", "c") == pytest.approx(20.0)

    @pytest.mark.parametrize("mmap", [False, True])
    def test_a_failed_pair_stays_missing(self, tmp_path, mmap):
        written = legacy_dataset().matrix
        path = tmp_path / "matrix.npz"
        CampaignDataset(matrix=written).save(path)
        restored = CampaignDataset.load(path, mmap=mmap).matrix
        assert restored.nodes == written.nodes
        assert restored.has("R0", "R1")
        assert not restored.has("R1", "R3")
        assert restored.content_hash() == written.content_hash()

    @given(
        rtts=st.lists(
            st.floats(min_value=0.0, max_value=1e4, allow_nan=False),
            min_size=6,
            max_size=6,
        )
    )
    def test_roundtrip_property(self, rtts):
        nodes = ["n0", "n1", "n2", "n3"]
        m = RttMatrix(nodes)
        idx = 0
        for i, a in enumerate(nodes):
            for b in nodes[i + 1 :]:
                m.set(a, b, rtts[idx])
                idx += 1
        with tempfile.TemporaryDirectory() as directory:
            path = Path(directory) / "matrix.npz"
            CampaignDataset(matrix=m).save(path)
            restored = CampaignDataset.load(path).matrix
        for a, b, rtt in m.measured_pairs():
            assert restored.get(a, b) == rtt
