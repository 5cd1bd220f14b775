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
"""

from __future__ import annotations

import hashlib
from bisect import bisect_right
from collections.abc import Sequence
from typing import TypeVar

import numpy as np

_T = TypeVar("_T")


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

    def reseed(self, name: str, context: str) -> None:
        """Rewind the named stream to a ``context``-derived state, in place.

        The generator object returned by :meth:`get` is mutated, so every
        component already holding a reference to the stream starts drawing
        the new deterministic sequence immediately. Sharded campaigns use
        this to give each measurement task an RNG state that is a pure
        function of ``(root seed, stream name, task key)`` — making task
        results independent of which tasks ran earlier in the process.
        """
        seed = self.derive_seed(self._seed, f"{name}@{context}")
        self.get(name).bit_generator.state = np.random.default_rng(
            seed
        ).bit_generator.state

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
