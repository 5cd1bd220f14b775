"""The read side of the matrix: a frozen, query-optimized index.

A measured all-pairs RTT matrix is only worth its campaign cost if
consumers can ask it questions at *client* rates, not measurement
rates — ShorTor-style via-relay routing and latency-aware circuit
selection both assume a "fastest path / best detour for this pair"
primitive served to millions of users. :class:`MatrixIndex` is that
primitive's data structure: built once from a
:class:`~repro.core.dataset.CampaignDataset`, then immutable.

Build-time precomputation (all O(n²), vectorized):

* a contiguous float64 matrix reference (zero-copy view of the dataset
  matrix — which may itself be a read-only ``np.memmap`` over the npz
  file, so forked query workers share one page-cache copy);
* per-row neighbor rankings: ``argsort`` of each row with the diagonal
  and unmeasured entries pushed past the end, plus a per-row measured
  degree — k-nearest-neighbor queries become an O(k) slice;
* per-row sorted RTT tables — a percentile is two reads and a lerp at
  a computed offset, a rank one ``searchsorted`` over a prefix slice;
* the global sorted value vector, for matrix-wide percentiles;
* an optional quality/freshness join from the dataset's provenance
  (:meth:`~repro.core.dataset.CampaignDataset.quality`): per-pair
  quality scores and age-in-provenance-rows ride along on every
  answer, so a consumer can see *how much* to trust an estimate.

Query surface: :meth:`point`, :meth:`row`, :meth:`k_nearest`,
:meth:`percentile` / :meth:`rank` / :meth:`global_percentile`,
:meth:`path_rtt` (+ vectorized :meth:`batch_path_rtt`), and the
ShorTor-style :meth:`best_via` detour search — one vectorized
``row_a + col_b`` pass and one O(n) selection over all candidate via
relays, whatever ``k`` is.

Unmeasured pairs are first-class: point answers carry
``measured=False`` with ``rtt_ms=None``, k-NN rankings only cover the
measured degree, and a path through an unmeasured hop reports ``None``
rather than NaN-poisoning downstream sums.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Any, Sequence

import numpy as np

from repro.core.dataset import CampaignDataset, RttMatrix
from repro.util.errors import ConfigurationError, MeasurementError


_FLOAT_MAX = sys.float_info.max


class UnknownNodeError(MeasurementError):
    """A query named a node the index has never heard of.

    A distinct subclass so the serve telemetry can count it under its
    own taxonomy bucket (``unknown_node``) — a client typo or a stale
    node list, not a data problem like "no measured neighbors".
    """


def _point_record(
    x: str,
    y: str,
    rtt_ms: float | None,
    measured: bool,
    quality: float | None,
    age_rows: int | None,
    stale: bool | None,
) -> dict[str, Any]:
    """The wire form of one point answer (:meth:`PointAnswer.to_dict`)."""
    record: dict[str, Any] = {
        "x": x,
        "y": y,
        "rtt_ms": rtt_ms,
        "measured": measured,
    }
    if quality is not None:
        record["quality"] = round(quality, 4)
    if age_rows is not None:
        record["age_rows"] = age_rows
    if stale is not None:
        record["stale"] = stale
    return record


@dataclass(slots=True)
class PointAnswer:
    """One pair's RTT plus the trust metadata a consumer needs."""

    x: str
    y: str
    rtt_ms: float | None
    measured: bool
    quality: float | None = None
    age_rows: int | None = None
    stale: bool | None = None

    def to_dict(self) -> dict[str, Any]:
        return _point_record(
            self.x, self.y, self.rtt_ms, self.measured,
            self.quality, self.age_rows, self.stale,
        )


@dataclass(slots=True)
class ViaAnswer:
    """The best ShorTor-style detour for one pair.

    ``improved`` says whether the detour actually beats the direct
    estimate — when the direct pair is unmeasured, any finite detour
    counts as an improvement over nothing.
    """

    x: str
    y: str
    via: str | None
    via_rtt_ms: float | None
    direct_rtt_ms: float | None
    improved: bool

    @property
    def savings_ms(self) -> float | None:
        if self.via_rtt_ms is None or self.direct_rtt_ms is None:
            return None
        return self.direct_rtt_ms - self.via_rtt_ms

    def to_dict(self) -> dict[str, Any]:
        return _via_record(
            self.x, self.y, self.via, self.via_rtt_ms,
            self.direct_rtt_ms, self.improved,
        )


def _via_record(
    x: str,
    y: str,
    via: str | None,
    via_rtt_ms: float | None,
    direct_rtt_ms: float | None,
    improved: bool,
) -> dict[str, Any]:
    """The wire form of one detour (:meth:`ViaAnswer.to_dict`)."""
    record: dict[str, Any] = {
        "x": x,
        "y": y,
        "via": via,
        "via_rtt_ms": via_rtt_ms,
        "direct_rtt_ms": direct_rtt_ms,
        "improved": improved,
    }
    if via_rtt_ms is not None and direct_rtt_ms is not None:
        record["savings_ms"] = round(direct_rtt_ms - via_rtt_ms, 6)
    return record


def _sorted_percentile(ascending: np.ndarray, count: int, q: float) -> float:
    """The ``q``-th percentile of ``ascending[:count]``, already sorted.

    numpy's default (linear) percentile in closed form: the virtual
    index ``(count - 1) * q / 100``, its two neighbouring entries, and
    numpy's own lerp — evaluated from the right-hand entry once the
    weight reaches one half — so the result is numpy's to the bit.
    """
    virtual = (count - 1) * (q / 100.0)
    below = int(virtual)
    if below >= count - 1:
        return ascending.item(count - 1)
    lo = ascending.item(below)
    hi = ascending.item(below + 1)
    weight = virtual - below
    if weight >= 0.5:
        return hi - (hi - lo) * (1.0 - weight)
    return lo + (hi - lo) * weight


class MatrixIndex:
    """A frozen, read-optimized view of one dataset version.

    Construct with :meth:`build`; every query method is then pure
    (no mutation, no caching beyond what build precomputed), which is
    what makes the index trivially shareable across forked workers.
    """

    __slots__ = (
        "nodes",
        "_id",
        "_rtt",
        "_cols",
        "_order",
        "_row_sorted",
        "_degree",
        "_all_sorted",
        "_quality",
        "_age",
        "_stale_after",
        "version",
        "measured_pairs",
        "provenance_rows",
    )

    def __init__(
        self,
        nodes: list[str],
        rtt: np.ndarray,
        order: np.ndarray,
        row_sorted: np.ndarray,
        degree: np.ndarray,
        all_sorted: np.ndarray,
        quality: np.ndarray | None,
        age: np.ndarray | None,
        stale_after: int | None,
        version: str,
        measured_pairs: int,
        provenance_rows: int,
    ) -> None:
        self.nodes = nodes
        self._id = {node: i for i, node in enumerate(nodes)}
        self._rtt = rtt
        # ``_cols[j]`` is column j; :meth:`build` swaps in ``rtt`` itself
        # when the matrix is symmetric, so via reads a contiguous row.
        self._cols = rtt.T
        self._order = order
        self._row_sorted = row_sorted
        self._degree = degree
        self._all_sorted = all_sorted
        self._quality = quality
        self._age = age
        self._stale_after = stale_after
        #: Short content-hash prefix identifying the dataset version
        #: every answer was served from.
        self.version = version
        self.measured_pairs = measured_pairs
        self.provenance_rows = provenance_rows

    # ------------------------------------------------------------------
    # Construction

    @classmethod
    def build(
        cls,
        dataset: CampaignDataset | RttMatrix,
        quality: bool = True,
    ) -> "MatrixIndex":
        """Build the index from a dataset (or a bare matrix).

        ``quality=True`` joins per-pair quality scores and freshness
        ages from the dataset's provenance when it has any; a bare
        :class:`RttMatrix` (or an empty log) serves answers without the
        trust metadata.
        """
        if isinstance(dataset, RttMatrix):
            matrix = dataset
            dataset = None  # type: ignore[assignment]
        else:
            matrix = dataset.matrix
        nodes = list(matrix.nodes)
        n = len(nodes)
        if n < 2:
            raise ConfigurationError("need at least two nodes to index")
        rtt = matrix.matrix  # read-only view; possibly memmap-backed

        # Neighbor ranking scratch: diagonal and unmeasured entries to
        # +inf so they sort past every finite RTT.
        work = np.array(rtt, dtype=np.float64, copy=True)
        # Adopted and memory-mapped arrays never went through
        # ``RttMatrix.set``; an infinity would pass for "unmeasured" in
        # the rankings yet be served by ``point``, a negative RTT is no
        # measurement at all.
        if np.isinf(work).any() or (work < 0.0).any():
            raise MeasurementError(
                "matrix holds infinite or negative RTTs; not indexing it"
            )
        np.fill_diagonal(work, np.inf)
        work[np.isnan(work)] = np.inf
        # Bit for bit (so 0.0 and -0.0 differ): only then is row b of
        # the matrix its column b down to the sign of a zero.
        bits = work.view(np.int64)
        symmetric = bool((bits == bits.T).all())
        # Gathered with the argsort's own int64 ranking, narrowed after.
        ranking = np.argsort(work, axis=1, kind="stable")[:, : n - 1]
        row_sorted = np.take_along_axis(work, ranking, axis=1)
        order = ranking.astype(np.int32)
        del ranking
        degree = (np.isfinite(row_sorted)).sum(axis=1).astype(np.int64)
        # The upper triangle, row by row, through a mask (no index arrays).
        upper = work[~np.tri(n, dtype=bool)]
        all_sorted = np.sort(upper[np.isfinite(upper)])

        quality_matrix = None
        age = None
        stale_after = None
        if quality and dataset is not None and len(dataset.provenance):
            scores = dataset.quality()
            if list(scores.nodes) == nodes:
                quality_matrix = np.asarray(scores.scores, dtype=np.float64)
                age = np.asarray(scores.age_rows, dtype=np.float64)
                stale_after = int(scores.stale_after_rows)

        version = matrix.content_hash()[:12]
        index = cls(
            nodes=nodes,
            rtt=rtt,
            order=order,
            row_sorted=row_sorted,
            degree=degree,
            all_sorted=all_sorted,
            quality=quality_matrix,
            age=age,
            stale_after=stale_after,
            version=version,
            measured_pairs=matrix.num_measured,
            provenance_rows=0 if dataset is None else len(dataset.provenance),
        )
        if symmetric:
            index._cols = rtt
        return index

    # ------------------------------------------------------------------
    # Introspection

    def __len__(self) -> int:
        return len(self.nodes)

    def __contains__(self, node: str) -> bool:
        return node in self._id

    def index_of(self, node: str) -> int:
        """Row index of a node; raises on unknown identifiers."""
        try:
            return self._id[node]
        except KeyError:
            raise UnknownNodeError(f"unknown node {node!r}") from None

    def degree(self, node: str) -> int:
        """How many neighbors of ``node`` have measured RTTs."""
        return int(self._degree[self.index_of(node)])

    def freshness(self) -> dict[str, Any]:
        """Dataset-level freshness/identity metadata for responses."""
        info: dict[str, Any] = {
            "version": self.version,
            "nodes": len(self.nodes),
            "measured_pairs": self.measured_pairs,
            "provenance_rows": self.provenance_rows,
        }
        if self._stale_after is not None:
            info["stale_after_rows"] = self._stale_after
        return info

    def _meta_at(self, i: int, j: int) -> tuple[float | None, int | None, bool | None]:
        """(quality, age_rows, stale) for one pair of a quality-joined
        index (callers test ``self._quality`` once per query), or Nones
        where the join has no score for the pair."""
        q = self._quality.item(i, j)
        if q != q:  # NaN: no score
            return None, None, None
        age = self._age.item(i, j)
        if age != age:
            return q, None, None
        age_rows = int(age)
        stale_after = self._stale_after
        return q, age_rows, None if stale_after is None else age_rows > stale_after

    # ------------------------------------------------------------------
    # Point / row queries

    def point(self, a: str, b: str) -> PointAnswer:
        """R(a, b) with quality/freshness metadata. The hot path."""
        _id = self._id
        try:
            i = _id[a]
            j = _id[b]
        except KeyError as exc:
            raise UnknownNodeError(f"unknown node {exc.args[0]!r}") from None
        rtt_ms = self._rtt.item(i, j)
        measured = rtt_ms == rtt_ms  # NaN: unmeasured
        if not measured:
            rtt_ms = None
        if self._quality is None:
            return PointAnswer(a, b, rtt_ms, measured)
        return PointAnswer(a, b, rtt_ms, measured, *self._meta_at(i, j))

    def _wire_point(self, a: str, b: str) -> dict[str, Any]:
        """``point(a, b).to_dict()``, written without the dataclass (the
        lookup is :meth:`point`'s, repeated: a shared helper is one more
        call on the hottest op)."""
        _id = self._id
        try:
            i = _id[a]
            j = _id[b]
        except KeyError as exc:
            raise UnknownNodeError(f"unknown node {exc.args[0]!r}") from None
        rtt_ms = self._rtt.item(i, j)
        measured = rtt_ms == rtt_ms  # NaN: unmeasured
        if not measured:
            rtt_ms = None
        if self._quality is None:
            return {"x": a, "y": b, "rtt_ms": rtt_ms, "measured": measured}
        return _point_record(a, b, rtt_ms, measured, *self._meta_at(i, j))

    def row(self, a: str) -> np.ndarray:
        """The read-only RTT row for one node (NaN where unmeasured)."""
        return self._rtt[self.index_of(a)]

    # ------------------------------------------------------------------
    # k-nearest / percentile queries

    def k_nearest(self, a: str, k: int = 10) -> list[PointAnswer]:
        """The ``k`` measured neighbors with the smallest RTTs, ascending.

        O(k): the ranking was argsorted at build time. Fewer than ``k``
        measured neighbors returns what exists.
        """
        i, ids, rtts = self._neighbors(a, k)
        nodes = self.nodes
        if self._quality is None:
            return [PointAnswer(a, nodes[r], rtt, True) for r, rtt in zip(ids, rtts)]
        meta_at = self._meta_at
        return [
            PointAnswer(a, nodes[r], rtt, True, *meta_at(i, r))
            for r, rtt in zip(ids, rtts)
        ]

    def _wire_neighbors(self, a: str, k: int) -> list[dict[str, Any]]:
        """``[p.to_dict() for p in k_nearest(a, k)]``, written without
        the dataclasses."""
        i, ids, rtts = self._neighbors(a, k)
        nodes = self.nodes
        if self._quality is None:
            return [
                {"x": a, "y": nodes[r], "rtt_ms": rtt, "measured": True}
                for r, rtt in zip(ids, rtts)
            ]
        meta_at = self._meta_at
        return [
            _point_record(a, nodes[r], rtt, True, *meta_at(i, r))
            for r, rtt in zip(ids, rtts)
        ]

    def _neighbors(self, a: str, k: int) -> tuple[int, list[int], list[float]]:
        """``(i, neighbor ids, rtts)``: row ``a``'s first ``min(k,
        degree)`` ranked neighbors, the two build-time slices as lists —
        what :meth:`k_nearest` and :meth:`_wire_neighbors` share."""
        if k < 1:
            raise ConfigurationError("k must be >= 1")
        i = self.index_of(a)
        count = min(k, self._degree.item(i))
        return (
            i,
            self._order[i, :count].tolist(),
            self._row_sorted[i, :count].tolist(),
        )

    def percentile(self, a: str, q: float) -> float:
        """The ``q``-th percentile RTT among ``a``'s measured neighbors."""
        if not 0.0 <= q <= 100.0:
            raise ConfigurationError("percentile must be in [0, 100]")
        i = self.index_of(a)
        count = int(self._degree[i])
        if count == 0:
            raise MeasurementError(f"node {a!r} has no measured neighbors")
        return _sorted_percentile(self._row_sorted[i], count, q)

    def rank(self, a: str, rtt_ms: float) -> float:
        """The fraction of ``a``'s measured neighbors at or below
        ``rtt_ms`` — where a candidate RTT sits in the row distribution."""
        i = self.index_of(a)
        count = int(self._degree[i])
        if count == 0:
            raise MeasurementError(f"node {a!r} has no measured neighbors")
        pos = int(np.searchsorted(self._row_sorted[i, :count], rtt_ms, side="right"))
        return pos / count

    def global_percentile(self, q: float) -> float:
        """The ``q``-th percentile over every measured pair RTT."""
        if not 0.0 <= q <= 100.0:
            raise ConfigurationError("percentile must be in [0, 100]")
        if self._all_sorted.size == 0:
            raise MeasurementError("matrix has no measurements")
        return _sorted_percentile(self._all_sorted, self._all_sorted.size, q)

    # ------------------------------------------------------------------
    # Path estimates

    def path_rtt(self, hops: Sequence[str]) -> float | None:
        """Total inter-relay RTT along ``hops`` (sum over adjacent
        pairs); ``None`` when any hop pair is unmeasured."""
        if len(hops) < 2:
            raise ConfigurationError("a path needs at least two hops")
        ids = [self.index_of(h) for h in hops]
        total = 0.0
        rtt = self._rtt
        for i, j in zip(ids, ids[1:]):
            value = rtt[i, j]
            if value != value:
                return None
            total += value
        return float(total)

    def batch_path_rtt(self, paths: Sequence[Sequence[str]]) -> np.ndarray:
        """Vectorized :meth:`path_rtt` for same-length paths.

        Returns one float per path, NaN where a hop pair is unmeasured.
        All paths must have the same hop count (the batch is one fancy-
        indexing pass); mixed lengths belong in separate batches.
        """
        if not paths:
            return np.empty(0, dtype=np.float64)
        width = len(paths[0])
        if width < 2:
            raise ConfigurationError("a path needs at least two hops")
        if any(len(p) != width for p in paths):
            raise ConfigurationError("batch paths must share one hop count")
        ids = np.array(
            [[self.index_of(h) for h in path] for path in paths],
            dtype=np.int64,
        )
        legs = self._rtt[ids[:, :-1], ids[:, 1:]]
        return legs.sum(axis=1)

    # ------------------------------------------------------------------
    # ShorTor-style via-relay detours

    def best_via(self, a: str, b: str, k: int = 1) -> list[ViaAnswer]:
        """The best ``k`` via-relay detours for (a, b), ascending.

        One vectorized pass: ``row_a + col_b`` over every candidate
        relay, endpoints and unmeasured legs masked out, then one O(n)
        selection — the same work for any ``k``, plus a sort of the
        answers. Detours are ordered by ``(cost, node index)``, so
        equal costs come back in node order. With no finite detour the
        answer is a single ``via=None`` entry. A detour "improves" when
        it beats the direct estimate (always, when the direct pair is
        unmeasured) — the triangle-inequality-violation exploitation
        Section 5.2.1 measures and ShorTor deploys.
        """
        return [ViaAnswer(a, b, *detour) for detour in self._detours(a, b, k)]

    def _wire_detours(self, a: str, b: str, k: int) -> list[dict[str, Any]]:
        """``[v.to_dict() for v in best_via(a, b, k)]``, written without
        the dataclasses."""
        return [_via_record(a, b, *detour) for detour in self._detours(a, b, k)]

    def _detours(
        self, a: str, b: str, k: int
    ) -> list[tuple[str | None, float | None, float | None, bool]]:
        """``(via, via_rtt_ms, direct_rtt_ms, improved)`` per detour, in
        :meth:`best_via`'s order — the ranking it and
        :meth:`_wire_detours` share."""
        if k < 1:
            raise ConfigurationError("k must be >= 1")
        i = self.index_of(a)
        j = self.index_of(b)
        if i == j:
            raise ConfigurationError("via query needs two distinct nodes")
        direct = self._rtt.item(i, j)
        if direct != direct:
            direct = None
        # Column j: a contiguous row when symmetric, else stride n.
        detour = self._rtt[i] + self._cols[j]
        detour[i] = np.inf
        detour[j] = np.inf
        np.fmin(detour, np.inf, out=detour)  # NaN (an unmeasured leg) -> +inf
        # The k-th smallest cost bounds the answer: the fewer than k
        # nodes strictly under it are ranked as tuples, the rest come
        # from the nodes tied at it in index order — so ties never
        # depend on the selection's internals, and never sort more
        # than k tuples. Clamping the bound to the largest finite
        # float drops the +inf entries when fewer than k exist.
        count = min(k, len(detour))
        bound = min(np.partition(detour, count - 1).item(count - 1), _FLOAT_MAX)
        below = (detour < bound).nonzero()[0]
        tied = (detour == bound).nonzero()[0][: count - len(below)]
        ranked = sorted(zip(detour[below].tolist(), below.tolist()))
        ranked += [(bound, r) for r in tied.tolist()]
        if not ranked:
            return [(None, None, direct, False)]
        nodes = self.nodes
        return [
            (nodes[r], cost, direct, direct is None or cost < direct)
            for cost, r in ranked
        ]
