"""Unit tests for deterministic random streams."""

import ctypes
from unittest.mock import patch

import numpy as np
import pytest
from conftest import reference_draw, take_draw
from hypothesis import given, settings, strategies as st

from repro.util.rng import (
    _PROBE_COUNTER,
    _PROBE_KEY,
    _PROBE_POS,
    BLOCK_DRAWS,
    BLOCK_WORDS,
    DrawLayoutError,
    DrawSource,
    DrawStream,
    RandomStreams,
    hash_words,
    locate_philox_words,
)


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

    def test_numpy_integer_seed_is_its_int(self):
        streams = RandomStreams(seed=np.int64(47))
        assert streams.seed == 47 and type(streams.seed) is int
        assert streams.draws.seed == 47 and type(streams.draws.seed) is int
        assert list(streams.get("x").random(3)) == list(RandomStreams(47).get("x").random(3))
        assert take_draw(streams.draws.stream("relay:A")) == reference_draw(47, "relay:A", None, 0)

    def test_bool_seed_rejected(self):
        # ``True`` would hash as "True:…", not as the seed 1 it equals.
        with pytest.raises(TypeError):
            RandomStreams(seed=True)

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


def _reference_block(seed, name, context, block):
    """Block ``block`` of entity ``name`` as ``(u, e)`` lists, draw by
    draw from a fresh ``Philox`` each (``conftest.reference_draw``)."""
    draws = [
        reference_draw(seed, name, context, k)
        for k in range(block * BLOCK_DRAWS, (block + 1) * BLOCK_DRAWS)
    ]
    return (
        [x for u0, u1, _, _ in draws for x in (u0, u1)],
        [x for _, _, e0, e1 in draws for x in (e0, e1)],
    )


def _sampled_draws(u, e, seed, name, context, first_block):
    """Per block of a run, one draw (a different offset each block)
    next to the same draw from a fresh ``Philox``."""
    got, want = [], []
    for b in range(len(u) // BLOCK_WORDS):
        k = (first_block + b) * BLOCK_DRAWS + b % BLOCK_DRAWS
        i = b * BLOCK_WORDS + 2 * (b % BLOCK_DRAWS)
        got.append((u[i], u[i + 1], e[i], e[i + 1]))
        want.append(reference_draw(seed, name, context, k))
    return got, want


def _run(stream, block, blocks):
    u, e = np.empty(blocks * BLOCK_WORDS), np.empty(blocks * BLOCK_WORDS)
    stream.read_run(block * BLOCK_WORDS, u, e)
    return u, e


_NAMES = st.sampled_from(["link:a>b", "link:b>a", "relay:ABCD", "relay:é"])
_CONTEXTS = st.none() | st.text(max_size=12)


class TestBlockReader:
    """The in-place re-key (``DrawSource``'s located key, counter and
    ``buffer_pos`` words) against a fresh ``Philox`` per block."""

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**63 - 1),
        names=st.lists(_NAMES, min_size=1, max_size=3, unique=True),
        contexts=st.lists(_CONTEXTS, min_size=1, max_size=3),
        block=st.integers(min_value=0, max_value=2**20),
    )
    def test_single_reads_across_begin_and_streams(self, seed, names, contexts, block):
        draws, current = RandomStreams(seed).draws, None
        for context in contexts:
            if context is not None:
                draws.begin(context)
                current = context
            # Interleaved: each stream re-keys the one generator in turn.
            blocks = {name: draws.stream(name).read(block * BLOCK_WORDS) for name in names}
            for name in names:
                u, e = draws.stream(name).read(block * BLOCK_WORDS)
                assert (u.tolist(), e.tolist()) == _reference_block(seed, name, current, block)
                assert (u.tolist(), e.tolist()) == tuple(a.tolist() for a in blocks[name])
            # Streams begun afresh fill block 0 under the new context.
            for name in names:
                draws.stream(name).reset()
                assert take_draw(draws.stream(name)) == reference_draw(seed, name, current, 0)

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**63 - 1),
        names=st.lists(_NAMES, min_size=1, max_size=2, unique=True),
        context=_CONTEXTS,
        block=st.integers(min_value=0, max_value=1000),
        blocks=st.integers(min_value=1, max_value=300),
    )
    def test_runs_are_single_reads_back_to_back(self, seed, names, context, block, blocks):
        draws = RandomStreams(seed).draws
        if context is not None:
            draws.begin(context)
        runs = {name: _run(draws.stream(name), block, blocks) for name in names}
        for name, (u, e) in runs.items():
            stream = draws.stream(name)
            # Each block of the run is what a single read gives, with the
            # other names' runs made in between.
            for b in range(blocks):
                single = stream.read((block + b) * BLOCK_WORDS)
                at = b * BLOCK_WORDS
                assert single[0].tolist() == u[at : at + BLOCK_WORDS].tolist()
                assert single[1].tolist() == e[at : at + BLOCK_WORDS].tolist()
            got, want = _sampled_draws(u, e, seed, name, context, block)
            assert got == want
        if blocks <= 3:
            name = names[0]
            u, e = runs[name]
            assert (u.tolist(), e.tolist()) == tuple(
                sum(parts, [])
                for parts in zip(*(
                    _reference_block(seed, name, context, block + b) for b in range(blocks)
                ))
            )

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**32),
        taken=st.integers(min_value=0, max_value=70),
        words=st.integers(min_value=1, max_value=400),
        kept=st.integers(min_value=0, max_value=400),
        more=st.integers(min_value=1, max_value=400),
        fills=st.integers(min_value=0, max_value=3),
        back=st.integers(min_value=0, max_value=40),
    )
    def test_ahead_takes_spare_blocks_and_reads_the_rest(
        self, seed, taken, words, kept, more, fills, back
    ):
        """A cut walk's spare blocks are used and not read again: ahead,
        seek part of the way, take a few draws (fills may pop a spare
        block) and give some back (a rewind behind the block may leave a
        gap before the spare ones), ahead again — the same words as a
        stream that never walked, and only the blocks not in ``spare`` read."""
        name, kept = "relay:R", min(kept, words) // 2 * 2
        draws = RandomStreams(seed).draws
        stream = draws.stream(name)
        for _ in range(taken):
            stream.take()
        u, e, mark = stream.ahead(words)
        stream.seek(kept, u, e, mark)
        for _ in range(fills * BLOCK_DRAWS):
            stream.take()
        stream.rewind(max(0, stream.base + stream.pos - 2 * back))
        spare_before = {offset for (s, offset) in draws.spare if s is stream}
        read_blocks = []
        read, read_run = DrawStream.read, DrawStream.read_run

        def counted(s, base):
            read_blocks.append(base)
            return read(s, base)

        def counted_run(s, base, u, e):
            read_blocks.extend(range(base, base + len(u), BLOCK_WORDS))
            return read_run(s, base, u, e)

        start = stream.base + stream.pos
        with patch.object(DrawStream, "read", counted), patch.object(
            DrawStream, "read_run", counted_run
        ):
            u, e, _ = stream.ahead(more)
        covered = range(stream.base + BLOCK_WORDS, start + len(u), BLOCK_WORDS)
        assert not set(read_blocks) & spare_before
        assert sorted(read_blocks) == [b for b in covered if b not in spare_before]
        fresh = RandomStreams(seed).draws.stream(name)
        for _ in range(start // 2):
            fresh.take()
        want_u, want_e, _ = fresh.ahead(more)
        assert (u.tolist(), e.tolist()) == (want_u.tolist(), want_e.tolist())
        k = start // 2 + len(u) // 2 - 1  # the last draw ahead covered
        assert (u[-2], u[-1], e[-2], e[-1]) == reference_draw(seed, name, None, k)

    def test_located_words_round_trip_through_the_public_getter(self):
        draws = DrawSource(5)
        key, counter = (2**64 - 1, 12345), (7, 2**63 + 9, 0xABC, 0xDEF)
        draws._words[:] = key + counter
        draws._pos.value = 3
        state = draws._bits.state
        assert state["state"]["key"].tolist() == list(key)
        assert state["state"]["counter"].tolist() == list(counter)
        assert state["buffer_pos"] == 3
        draws.begin("pair:x:y")
        assert tuple(draws._bits.state["state"]["counter"].tolist()[2:]) == hash_words(
            "pair:x:y"
        )

    def test_locator_refuses_bytes_without_the_pattern(self):
        draws = DrawSource(5)
        bits = draws._bits
        size = type(bits).__basicsize__
        with pytest.raises(DrawLayoutError, match=f"numpy {np.__version__}"):
            locate_philox_words(bytes(size))
        # The pattern written, then one word of the counter moved off it.
        draws._words[:] = _PROBE_KEY + _PROBE_COUNTER
        draws._pos.value = _PROBE_POS
        raw = ctypes.string_at(id(bits), size)
        assert locate_philox_words(raw) == (
            ctypes.addressof(draws._words) - id(bits),
            ctypes.addressof(draws._pos) - id(bits),
        )
        draws._words[5] = 0
        with pytest.raises(DrawLayoutError):
            locate_philox_words(ctypes.string_at(id(bits), size))
        with pytest.raises(DrawLayoutError):
            locate_philox_words(raw + raw)
