"""Latency-aware circuit selection: exploiting Ting's data (Section 5.2).

The paper motivates Ting with path-selection proposals (LASTor et al.)
that lacked real inter-relay RTTs and fell back to geographic distance.
This module implements three selection strategies over one relay set so
their end-to-end latency and anonymity cost can be compared:

* ``default`` — Tor's bandwidth-weighted random choice (the baseline).
* ``geographic`` — LASTor-style: prefer circuits with small total
  great-circle distance (a *proxy* that cannot see TIVs).
* ``ting`` — prefer circuits with small measured total RTT from an
  all-pairs Ting matrix, sampling among the best candidates to retain
  entropy.

Anonymity cost is quantified by the entropy of the realized relay-
selection distribution (Gini-style concentration): a selector that
always picks the same fast relays is easier to attack.

The selector accepts either an :class:`~repro.core.dataset.RttMatrix`
or a pre-built :class:`~repro.serve.index.MatrixIndex` and snapshots
the relay-subset RTTs into a contiguous integer-indexed submatrix at
construction, so every per-circuit lookup is plain array indexing —
no name hashing on the sampling hot path.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.dataset import RttMatrix
from repro.netsim.geo import GeoPoint, great_circle_km
from repro.serve.index import MatrixIndex
from repro.util.errors import ConfigurationError, MeasurementError

STRATEGIES = ("default", "geographic", "ting")


@dataclass(frozen=True)
class RelayInfo:
    """What the selector knows about one relay."""

    name: str
    bandwidth_kbps: int
    location: GeoPoint


@dataclass
class SelectionOutcome:
    """The result of sampling many circuits under one strategy."""

    strategy: str
    circuit_rtts_ms: np.ndarray
    selection_counts: np.ndarray  # per relay

    def median_rtt_ms(self) -> float:
        """Median end-to-end RTT over the sampled circuits."""
        return float(np.median(self.circuit_rtts_ms))

    def selection_entropy(self) -> float:
        """Shannon entropy (bits) of the realized relay distribution."""
        total = self.selection_counts.sum()
        if total == 0:
            raise MeasurementError("no selections recorded")
        p = self.selection_counts / total
        p = p[p > 0]
        return float(-(p * np.log2(p)).sum())

    def max_entropy(self) -> float:
        """Entropy of a uniform distribution over the same relay set."""
        return float(np.log2(len(self.selection_counts)))


class CircuitSelector:
    """Samples 3-hop circuits under the three strategies.

    ``matrix`` may be a bare :class:`RttMatrix` or a serve-layer
    :class:`MatrixIndex`; either way the relay subset must be fully
    measured (every off-diagonal pair finite) — latency-aware selection
    over holes would silently degrade to the baseline.
    """

    def __init__(
        self,
        relays: list[RelayInfo],
        matrix: RttMatrix | MatrixIndex,
        rng: np.random.Generator,
        candidate_pool: int = 50,
    ) -> None:
        if len(relays) < 3:
            raise ConfigurationError("need at least three relays")
        names = [r.name for r in relays]
        if len(set(names)) != len(names):
            raise ConfigurationError("relay names must be unique")
        for name in names:
            if name not in matrix:
                raise ConfigurationError(f"matrix lacks relay {name!r}")
        if candidate_pool < 1:
            raise ConfigurationError("candidate_pool must be >= 1")
        self.relays = list(relays)
        self.matrix = matrix
        self._rng = rng
        self.candidate_pool = candidate_pool
        self._index = {r.name: i for i, r in enumerate(self.relays)}
        self._bandwidths = np.array([r.bandwidth_kbps for r in relays], dtype=float)
        # Bandwidth-weighted probabilities, normalized once — not per draw.
        self._p = self._bandwidths / self._bandwidths.sum()
        # Snapshot the relay-subset RTTs into a contiguous submatrix so
        # circuit scoring is integer indexing, not name lookups.
        if isinstance(matrix, MatrixIndex):
            ids = [matrix.index_of(name) for name in names]
            rows = np.stack([np.asarray(matrix.row(name)) for name in names])
            self._rtt = np.ascontiguousarray(rows[:, ids], dtype=np.float64)
        else:
            lookup = {node: i for i, node in enumerate(matrix.nodes)}
            ids = [lookup[name] for name in names]
            full = np.asarray(matrix.matrix, dtype=np.float64)
            self._rtt = np.ascontiguousarray(full[np.ix_(ids, ids)])
        off_diagonal = self._rtt[~np.eye(len(names), dtype=bool)]
        if np.any(np.isnan(off_diagonal)):
            raise MeasurementError("need a complete all-pairs matrix")
        self._dist: np.ndarray | None = None  # lazy geographic submatrix

    # ------------------------------------------------------------------

    def circuit_rtt_ms(self, circuit: tuple[int, int, int]) -> float:
        """Inter-relay RTT of a (guard, middle, exit) index triple."""
        a, b, c = circuit
        rtt = self._rtt
        return float(rtt[a, b] + rtt[b, c])

    def _distances_km(self) -> np.ndarray:
        """The pairwise great-circle submatrix, built on first use."""
        if self._dist is None:
            n = len(self.relays)
            dist = np.zeros((n, n))
            for i in range(n):
                for j in range(i + 1, n):
                    km = great_circle_km(
                        self.relays[i].location, self.relays[j].location
                    )
                    dist[i, j] = dist[j, i] = km
            self._dist = dist
        return self._dist

    def _random_circuits(self, count: int, weighted: bool) -> np.ndarray:
        """``count`` circuits as a (count, 3) int array, one vectorized
        ``rng.choice`` per rejection round (rows with repeated relays
        are redrawn jointly)."""
        n = len(self.relays)
        p = self._p if weighted else None
        out = np.empty((count, 3), dtype=np.int64)
        filled = 0
        while filled < count:
            batch = max(count - filled, 16)
            draw = self._rng.choice(n, size=(batch, 3), p=p)
            distinct = (
                (draw[:, 0] != draw[:, 1])
                & (draw[:, 0] != draw[:, 2])
                & (draw[:, 1] != draw[:, 2])
            )
            good = draw[distinct]
            take = min(count - filled, good.shape[0])
            out[filled : filled + take] = good[:take]
            filled += take
        return out

    def _random_circuit(self, weighted: bool) -> tuple[int, int, int]:
        a, b, c = self._random_circuits(1, weighted)[0]
        return (int(a), int(b), int(c))

    def select(self, strategy: str) -> tuple[int, int, int]:
        """Sample one circuit under ``strategy``."""
        if strategy not in STRATEGIES:
            raise ConfigurationError(
                f"unknown strategy {strategy!r}; expected one of {STRATEGIES}"
            )
        if strategy == "default":
            return self._random_circuit(weighted=True)
        # Informed strategies: draw a candidate pool of bandwidth-weighted
        # circuits, then pick the best by the strategy's metric — this is
        # the "sample then optimize" pattern LASTor-style selectors use
        # to keep some randomness.
        candidates = self._random_circuits(self.candidate_pool, weighted=True)
        metric = self._distances_km() if strategy == "geographic" else self._rtt
        scores = (
            metric[candidates[:, 0], candidates[:, 1]]
            + metric[candidates[:, 1], candidates[:, 2]]
        )
        # Pick uniformly among the best quartile to preserve entropy.
        order = np.argsort(scores, kind="stable")
        top = order[: max(1, order.size // 4)]
        a, b, c = candidates[int(self._rng.choice(top))]
        return (int(a), int(b), int(c))

    # ------------------------------------------------------------------

    def evaluate(self, strategy: str, n_circuits: int = 1000) -> SelectionOutcome:
        """Sample ``n_circuits`` circuits and summarize latency/entropy."""
        if n_circuits < 1:
            raise ConfigurationError("n_circuits must be >= 1")
        if strategy == "default":
            # The baseline needs no scoring pass: one batched draw.
            circuits = self._random_circuits(n_circuits, weighted=True)
        else:
            circuits = np.array(
                [self.select(strategy) for _ in range(n_circuits)],
                dtype=np.int64,
            )
        rtt = self._rtt
        rtts = (
            rtt[circuits[:, 0], circuits[:, 1]]
            + rtt[circuits[:, 1], circuits[:, 2]]
        )
        counts = np.zeros(len(self.relays))
        np.add.at(counts, circuits.ravel(), 1)
        return SelectionOutcome(
            strategy=strategy, circuit_rtts_ms=rtts, selection_counts=counts
        )

    def evaluate_all(self, n_circuits: int = 1000) -> dict[str, SelectionOutcome]:
        """All three strategies over independent draws."""
        return {
            strategy: self.evaluate(strategy, n_circuits)
            for strategy in STRATEGIES
        }
