"""The parse-free draw helpers against the numpy calls they replace.

Each helper in :mod:`repro.util.rng` relies on how numpy *defines* a
``Generator`` method; the built worlds no longer follow numpy's
internals, so this file is the tripwire for a numpy release that changes
one: equal value **and** equal ``bit_generator.state`` after every draw.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.netsim.geo import TOR_REGION_WEIGHTS
from repro.testbeds.livetor import HOST_TYPE_MIX
from repro.util.rng import (
    categorical_cdf,
    draw_categorical,
    draw_item,
    draw_uniform,
)

seeds = st.integers(min_value=0, max_value=2**63 - 1)
finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)


def _pair(seed: int) -> tuple[np.random.Generator, np.random.Generator]:
    return np.random.default_rng(seed), np.random.default_rng(seed)


def _same_state(a: np.random.Generator, b: np.random.Generator) -> bool:
    return a.bit_generator.state == b.bit_generator.state


@settings(max_examples=60, deadline=None)
@given(
    seed=seeds,
    weights=st.lists(
        st.floats(min_value=1e-6, max_value=1e3), min_size=1, max_size=12
    ),
)
def test_categorical_matches_choice_with_p(seed, weights):
    p = np.array(weights)
    p /= p.sum()
    cdf = categorical_cdf(p)
    ours, numpys = _pair(seed)
    for _ in range(40):
        assert draw_categorical(ours, cdf) == int(numpys.choice(len(p), p=p))
        assert _same_state(ours, numpys)


@settings(max_examples=60, deadline=None)
@given(seed=seeds, items=st.lists(st.integers(0, 10_000), min_size=1, max_size=300))
def test_item_matches_choice_of_list(seed, items):
    ours, numpys = _pair(seed)
    for _ in range(40):
        assert draw_item(ours, items) == int(numpys.choice(items))
        assert _same_state(ours, numpys)


@settings(max_examples=60, deadline=None)
@given(seed=seeds, lo=finite, width=st.floats(min_value=0.0, max_value=1e6))
def test_uniform_matches_uniform(seed, lo, width):
    hi = lo + width
    ours, numpys = _pair(seed)
    for _ in range(40):
        assert draw_uniform(ours, lo, hi) == float(numpys.uniform(lo, hi))
        assert _same_state(ours, numpys)


def test_build_weights_agree_over_100k_draws():
    """The build's own region and host-type vectors, interleaved as
    ``LiveTorTestbed.build`` interleaves them."""
    region_p = np.array(list(TOR_REGION_WEIGHTS.values()))
    region_p /= region_p.sum()
    type_p = np.array([w for _, w in HOST_TYPE_MIX])
    type_p /= type_p.sum()
    region_cdf, type_cdf = categorical_cdf(region_p), categorical_cdf(type_p)
    pool = list(range(17))
    ours, numpys = _pair(2015)
    for _ in range(25_000):
        assert draw_categorical(ours, region_cdf) == int(
            numpys.choice(len(region_p), p=region_p)
        )
        assert draw_item(ours, pool) == int(numpys.choice(pool))
        assert draw_categorical(ours, type_cdf) == int(
            numpys.choice(len(type_p), p=type_p)
        )
        assert draw_uniform(ours, 0.05, 0.45) == float(numpys.uniform(0.05, 0.45))
    assert _same_state(ours, numpys)


@pytest.mark.parametrize("bad", [[], [[0.5, 0.5]], [0.5, -0.1], [0.0, 0.0], [float("nan")]])
def test_cdf_rejects_what_choice_rejects(bad):
    with pytest.raises(ValueError):
        categorical_cdf(bad)
