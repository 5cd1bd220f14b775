"""Deterministic, named random streams.

Every stochastic component in the simulator draws from its own named child
stream of a single root seed. This gives two properties the experiments
rely on:

* **Reproducibility** — the same root seed always produces the same
  simulated network, the same jitter, and the same measurement results.
* **Isolation** — adding draws in one component (say, relay cross-traffic)
  does not perturb the sequence seen by another (say, topology generation),
  so experiments remain comparable across code changes.

The ``draw_*`` helpers make a world build's scalar draws the way numpy
*defines* ``Generator.choice`` / ``uniform`` — the same draw from the same
stream position — without those methods' per-call argument handling.

Per-packet draws (link jitter, relay forwarding delays) do not come from
named generators at all but from :class:`DrawSource`: one counter-based
``Philox`` per world that hands every *entity* — a link direction, a
relay — its own :class:`DrawStream`, a block of draws at a time. A block
is a pure function of ``(root seed, entity name, isolation context, block
number)``, so what an entity draws never depends on who else drew, or
when.
"""

from __future__ import annotations

import hashlib
from bisect import bisect_right
from collections.abc import Sequence
from typing import TypeVar

import numpy as np

_T = TypeVar("_T")

#: Draws per block. Draw ``k`` of a stream owns two uniforms and two
#: standard exponentials — ``u[2k]``, ``u[2k+1]``, ``e[2k]``, ``e[2k+1]``
#: of its block — whether or not its reader uses all four.
BLOCK_DRAWS = 16
#: Length of a block's ``u`` and ``e`` lists (what an inlined ``take`` tests).
BLOCK_WORDS = 2 * BLOCK_DRAWS
_NO_BLOCK: list[float] = []


def categorical_cdf(p: Sequence[float]) -> list[float]:
    """The CDF :func:`draw_categorical` bisects, computed once per ``p``.

    Built as ``Generator.choice(n, p=p)`` builds it on every call
    (``cdf = p.cumsum(); cdf /= cdf[-1]``), so draws agree to the last bit.
    """
    weights = np.asarray(p, dtype=np.float64)
    if weights.ndim != 1 or not (weights >= 0).all() or not weights.sum() > 0:
        raise ValueError("p must be a 1-d vector of non-negative weights, not all zero")
    cdf = weights.cumsum()
    cdf /= cdf[-1]
    return cdf.tolist()


def draw_categorical(rng: np.random.Generator, cdf: Sequence[float]) -> int:
    """``int(rng.choice(len(p), p=p))`` for ``cdf = categorical_cdf(p)``.

    numpy defines that call as ``cdf.searchsorted(rng.random(), "right")``:
    one ``random()`` draw, same value, same generator state afterwards.
    """
    return bisect_right(cdf, rng.random())


def draw_item(rng: np.random.Generator, items: Sequence[_T]) -> _T:
    """``rng.choice(items)``, which numpy defines as
    ``items[rng.integers(0, len(items))]``, without the array round trip."""
    return items[int(rng.integers(0, len(items)))]


def draw_uniform(rng: np.random.Generator, lo: float, hi: float) -> float:
    """``float(rng.uniform(lo, hi))``: numpy computes ``lo + (hi - lo) * random()``."""
    return lo + (hi - lo) * rng.random()


class RandomStreams:
    """A factory of independent ``numpy.random.Generator`` streams.

    Each stream is identified by a string name; the stream's seed is derived
    from the root seed and the name via SHA-256, so streams are stable
    across runs and independent of the order in which they are requested.

    Example::

        streams = RandomStreams(seed=7)
        jitter_rng = streams.get("netsim.jitter")
        topo_rng = streams.get("netsim.topology")
    """

    def __init__(self, seed: int) -> None:
        if not isinstance(seed, int):
            raise TypeError(f"seed must be an int, got {type(seed).__name__}")
        self._seed = seed
        self._streams: dict[str, np.random.Generator] = {}
        #: Where this world's per-packet draws come from.
        self.draws = DrawSource(seed)

    @property
    def seed(self) -> int:
        """The root seed this factory was created with."""
        return self._seed

    def get(self, name: str) -> np.random.Generator:
        """Return the generator for ``name``, creating it on first use.

        Repeated calls with the same name return the *same* generator
        object, so a component that draws repeatedly advances its own
        stream only.
        """
        if name not in self._streams:
            self._streams[name] = np.random.default_rng(
                self.derive_seed(self._seed, name)
            )
        return self._streams[name]

    def fork(self, name: str) -> "RandomStreams":
        """Return a new factory whose root seed is derived from ``name``.

        Useful for giving each experiment repetition its own fully
        independent universe of streams.
        """
        return RandomStreams(self.derive_seed(self._seed, name))

    @staticmethod
    def derive_seed(root_seed: int, name: str) -> int:
        """Derive a 63-bit child seed from ``root_seed`` and ``name``."""
        payload = f"{root_seed}:{name}".encode("utf-8")
        digest = hashlib.sha256(payload).digest()
        return int.from_bytes(digest[:8], "big") & 0x7FFF_FFFF_FFFF_FFFF

    def __repr__(self) -> str:
        return f"RandomStreams(seed={self._seed}, streams={len(self._streams)})"


def hash_words(payload: str) -> np.ndarray:
    """Two ``uint64`` words of SHA-256 over ``payload``."""
    return np.frombuffer(hashlib.sha256(payload.encode("utf-8")).digest()[:16], "<u8")


class DrawStream:
    """One entity's draws, read out of the current block.

    ``u`` (uniforms on [0, 1)) and ``e`` (standard exponentials) hold the
    block; ``pos`` is the offset of the next draw in both, ``base`` the
    offset of the block in the stream, so ``base + pos`` is twice the
    number of draws taken and a whole stream position is that one int
    (:meth:`rewind` takes it back). Hot paths inline :meth:`take`.
    """

    __slots__ = ("name", "u", "e", "pos", "base", "_source", "_key")

    def __init__(self, source: "DrawSource", name: str) -> None:
        self.name = name
        self._source = source
        self._key: np.ndarray | None = None  # derived at the first fill
        self.u: list[float] = _NO_BLOCK
        self.e: list[float] = _NO_BLOCK
        self.reset()

    def reset(self) -> None:
        """Back to before draw 0; the next draw fills block 0 afresh
        (under whatever context the source holds by then)."""
        self.pos = BLOCK_WORDS
        self.base = -BLOCK_WORDS

    def take(self) -> int:
        """Claim the next draw: the offset ``i`` such that the draw owns
        ``u[i]``, ``u[i + 1]``, ``e[i]`` and ``e[i + 1]``."""
        i = self.pos
        if i == BLOCK_WORDS:
            self.fill(self.base + BLOCK_WORDS)
            i = 0
        self.pos = i + 2
        return i

    def fill(self, base: int) -> None:
        """Make the block at stream offset ``base`` current: re-key the
        source's generator (see :class:`DrawSource`) and draw it."""
        source = self._source
        spare = source.spare
        u, e = spare and spare.pop((self, base), None) or self.read(base)
        if self.base < 0:
            source._touched.append(self)
        self.base, self.pos, self.u, self.e = base, 0, u.tolist(), e.tolist()

    def read(self, base: int) -> tuple[np.ndarray, np.ndarray]:
        """The block at stream offset ``base`` — what :meth:`fill` would
        make current — as arrays, without moving the stream."""
        source = self._source
        if self._key is None:
            self._key = hash_words(f"{source.seed}:{self.name}")
        source._counter[1] = base // BLOCK_WORDS
        source._state["state"]["key"] = self._key
        source._bits.state = source._state
        u = source._generator.random(BLOCK_WORDS)
        return u, source._generator.standard_exponential(BLOCK_WORDS)

    def _place(self, base: int, pos: int, u: list[float], e: list[float]) -> None:
        if self.base < 0 <= base:
            self._source._touched.append(self)
        self.base, self.pos, self.u, self.e = base, pos, u, e

    def ahead(self, words: int) -> tuple[list, list, tuple]:
        """The next ``words`` words (or more, to a block's end) of ``u``
        and of ``e`` as pieces to concatenate, read as :meth:`take` would
        fill them without moving the stream; and the mark :meth:`seek` takes."""
        base, pos, spare = self.base, self.pos, self._source.spare
        us, es = [self.u[pos:]], [self.e[pos:]]
        block = base + BLOCK_WORDS
        while block < base + pos + words:
            u, e = spare and spare.pop((self, block), None) or self.read(block)
            us.append(u)
            es.append(e)
            block += BLOCK_WORDS
        return us, es, (base, pos, self.u, self.e)

    def seek(self, words: int, u: np.ndarray, e: np.ndarray, mark: tuple) -> None:
        """Stand ``words`` words past ``mark`` (``u``, ``e``: the pieces of
        its :meth:`ahead`, concatenated) as takes would, reading no block
        again; ``words == 0`` puts back the stream ``ahead`` found. Blocks
        read past the new position go to :attr:`DrawSource.spare`."""
        base, pos, block_u, block_e = mark
        start = base + pos
        if words:
            last = start + words - 1  # the last word taken
            if last - last % BLOCK_WORDS != base:
                base = last - last % BLOCK_WORDS  # a block ``ahead`` read
                block_u = u[base - start : base - start + BLOCK_WORDS].tolist()
                block_e = e[base - start : base - start + BLOCK_WORDS].tolist()
            pos = last - base + 1
        self._place(base, pos, block_u, block_e)
        spare = self._source.spare
        for at in range(base + BLOCK_WORDS - start, len(u), BLOCK_WORDS):
            spare[self, start + at] = u[at : at + BLOCK_WORDS], e[at : at + BLOCK_WORDS]

    def rewind(self, position: int) -> None:
        """Give back every draw taken since ``base + pos`` read ``position``
        (refilling the earlier block if that lies behind this one)."""
        base = position - position % BLOCK_WORDS
        if base != self.base:
            self.fill(base)
        self.pos = position - base


class DrawSource:
    """The one generator behind a world's per-packet draws.

    A single counter-based ``Philox``: before each block of
    ``2 * BLOCK_DRAWS`` uniforms and as many standard exponentials its
    key is set to the entity's (SHA-256 of ``seed:name``) and its
    counter to ``(0, block number, context)``, the context being SHA-256
    of the key the last :meth:`begin` was given (zero before the first).
    Blocks of different entities, contexts and numbers therefore cannot
    overlap, and block ``b`` of an entity is the same floats whoever
    else drew in between. One shared generator rather than one per
    entity because *creating* a ``Generator`` costs 9–12 µs and re-keying
    this one ≈ 2 µs.
    """

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self._bits = np.random.Philox(key=0)
        self._generator = np.random.Generator(self._bits)
        self._counter = np.zeros(4, dtype=np.uint64)
        self._state = self._bits.state
        self._state["state"]["counter"] = self._counter
        self._streams: dict[str, DrawStream] = {}
        # Streams that filled a block since the last ``begin``.
        self._touched: list[DrawStream] = []
        #: Blocks a round walk read past where it left a stream, by
        #: ``(stream, offset)``, for the fill that reaches one (a block is a
        #: function of stream, offset and context only; ``begin`` drops them).
        self.spare: dict[tuple[DrawStream, int], tuple[np.ndarray, np.ndarray]] = {}

    def stream(self, name: str) -> DrawStream:
        """The stream of the entity called ``name`` (one object per name,
        so two writers to one link direction share its draws)."""
        stream = self._streams.get(name)
        if stream is None:
            stream = self._streams[name] = DrawStream(self, name)
        return stream

    def begin(self, context: str) -> None:
        """Start a new isolation context: every stream starts over, on
        blocks keyed by ``context``.

        Only streams drawn from since the last ``begin`` hold anything to
        start over; they are also forgotten by name, so that a campaign's
        link streams live as long as its connections do (a relay keeps
        its own stream and goes on using it).
        """
        self._counter[2:] = hash_words(context)
        self.spare.clear()
        for stream in self._touched:
            stream.reset()
            self._streams.pop(stream.name, None)
        self._touched.clear()
