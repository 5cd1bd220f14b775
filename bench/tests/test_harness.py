"""Best-of-k aggregation and the nearest-rank percentile."""

import gc

import pytest

from bench.harness import aggregate, gc_fence, percentile


def test_best_of_k_is_the_minimum_with_median_and_iqr_beside_it():
    agg = aggregate([7.0, 5.0, 9.0, 6.0, 8.0])
    assert (agg.best, agg.median, agg.k) == (5.0, 7.0, 5)
    assert agg.iqr == pytest.approx(3.0)      # quartiles 5.5 and 8.5
    assert agg.spread == pytest.approx(3.0 / 7.0)


def test_single_repeat_has_no_spread_and_empty_is_an_error():
    agg = aggregate([4.0])
    assert (agg.best, agg.iqr, agg.spread) == (4.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        aggregate([])


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert percentile(values, 50) == 50
    assert percentile(values, 99) == 99
    assert percentile(values, 100) == 100
    assert percentile([3.0], 90) == 3.0
    assert percentile([1, 2, 3, 4], 50) == 2


def test_gc_fence_disables_collection_and_restores_it():
    assert gc.isenabled()
    with gc_fence():
        assert not gc.isenabled()
    assert gc.isenabled()
