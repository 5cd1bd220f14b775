"""Unit tests for deterministic random streams."""

import pytest
from conftest import reference_draw, take_draw
from hypothesis import given, strategies as st

from repro.util.rng import RandomStreams


class TestRandomStreams:
    def test_same_name_returns_same_generator(self):
        streams = RandomStreams(seed=1)
        assert streams.get("a") is streams.get("a")

    def test_different_names_are_independent(self):
        streams = RandomStreams(seed=1)
        a_draws = streams.get("a").random(5)
        b_draws = streams.get("b").random(5)
        assert list(a_draws) != list(b_draws)

    def test_reproducible_across_instances(self):
        one = RandomStreams(seed=9).get("jitter").random(10)
        two = RandomStreams(seed=9).get("jitter").random(10)
        assert list(one) == list(two)

    def test_order_of_requests_does_not_matter(self):
        forward = RandomStreams(seed=3)
        forward.get("x")
        fy = forward.get("y").random(4)
        backward = RandomStreams(seed=3)
        by = backward.get("y").random(4)
        backward.get("x")
        assert list(fy) == list(by)

    def test_different_seeds_differ(self):
        a = RandomStreams(seed=1).get("s").random(5)
        b = RandomStreams(seed=2).get("s").random(5)
        assert list(a) != list(b)

    def test_fork_is_deterministic(self):
        a = RandomStreams(seed=5).fork("run-1").get("x").random(3)
        b = RandomStreams(seed=5).fork("run-1").get("x").random(3)
        assert list(a) == list(b)

    def test_fork_differs_from_parent(self):
        parent = RandomStreams(seed=5)
        child = parent.fork("run-1")
        assert parent.seed != child.seed

    def test_non_int_seed_rejected(self):
        with pytest.raises(TypeError):
            RandomStreams(seed="nope")  # type: ignore[arg-type]

    @given(st.integers(min_value=0, max_value=2**32), st.text(max_size=50))
    def test_derive_seed_in_63_bit_range(self, seed, name):
        derived = RandomStreams.derive_seed(seed, name)
        assert 0 <= derived < 2**63

    @given(st.integers(min_value=0, max_value=2**32))
    def test_derive_seed_name_sensitivity(self, seed):
        assert RandomStreams.derive_seed(seed, "a") != RandomStreams.derive_seed(
            seed, "b"
        )


def _take(stream, n):
    """The next ``n`` draws of ``stream``."""
    return [take_draw(stream) for _ in range(n)]


class TestReseed:
    """The isolation boundary of the per-packet draws: ``draws.begin``
    (what ``RandomStreams.reseed`` did for the named generators)."""

    def test_reseed_mutates_existing_generator_in_place(self):
        draws = RandomStreams(seed=11).draws
        held = draws.stream("jitter")
        _take(held, 3)
        draws.begin("task-1")
        # The component's existing reference sees the new sequence.
        assert _take(held, 5) == [
            reference_draw(11, "jitter", "task-1", k) for k in range(5)
        ]

    def test_reseed_is_deterministic(self):
        one = RandomStreams(seed=11).draws
        _take(one.stream("jitter"), 100)  # arbitrary prior history
        one.begin("pair:A:B")
        two = RandomStreams(seed=11).draws
        two.begin("pair:A:B")
        assert _take(one.stream("jitter"), 5) == _take(two.stream("jitter"), 5)

    def test_reseed_context_sensitivity(self):
        draws = RandomStreams(seed=11).draws
        draws.begin("pair:A:B")
        first = _take(draws.stream("jitter"), 5)
        draws.begin("pair:A:C")
        assert _take(draws.stream("jitter"), 5) != first

    def test_reseed_differs_from_initial_stream(self):
        # A task context must not collide with the stream's cold state,
        # or the first task would be indistinguishable from no reseed.
        initial = _take(RandomStreams(seed=11).draws.stream("jitter"), 5)
        reseeded = RandomStreams(seed=11).draws
        reseeded.begin("leg:X")
        assert _take(reseeded.stream("jitter"), 5) != initial
