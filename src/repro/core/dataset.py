"""All-pairs RTT datasets, with per-pair measurement provenance.

:class:`RttMatrix` is the product Ting exists to create: a symmetric
matrix of minimum RTTs between every pair in a relay set. Every
application in Section 5 (deanonymization speedup, TIV hunting, long
low-latency circuits) consumes one of these. Matrices serialize to JSON
so that expensive campaigns can be cached, which Section 4.6 justifies:
Ting's measurements are stable over at least a week.

A bare matrix cannot say *why* an entry is what it is, so instrumented
campaigns also emit one :class:`PairProvenance` record per pair — how
many probe samples were taken and survived, which legs came from cache,
how many retries it took, the residual ``½R_Cx + ½R_Cy`` terms Eq. 4
subtracted, and (on failure) the categorized reason.

At full-network scale (1,000+ relays, ~500k pairs per campaign) a list
of per-pair Python objects is the dominant memory and serialization
cost, so :class:`ProvenanceLog` stores records column-wise: flat numpy
arrays per field, with node identifiers and category strings interned
into small side tables. :class:`PairProvenance` / :class:`LegProvenance`
stay as plain value objects — the log materializes them on demand — so
the public API is unchanged while merges become array concatenation and
the fork-boundary snapshot becomes a handful of buffers.

:class:`CampaignDataset` persists matrix + provenance + run metadata as
one document: JSON for small/debug datasets, or a deterministic ``.npz``
container (matrix + provenance columns + a meta JSON sidecar entry) for
large ones, with format auto-detection on load.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import zipfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterator, NamedTuple, Sequence

import numpy as np

from repro.util.errors import MeasurementError
from repro.util.units import Milliseconds


# ----------------------------------------------------------------------
# The measured set, not the matrix: sparse readers shared by every
# consumer of the write-side tail (planner, quality, health, TIV rate)


def measured_upper(
    values: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The non-NaN entries above the diagonal of an ``n×n`` array, as
    ``(i, j, value)`` in row-major order — the order an upper-triangle
    walk visits them.

    One ``isnan`` read of the array (a memory-mapped one included) and
    one boolean temporary; the index and value arrays are sized by the
    measured set, so a budgeted campaign's 150 entries in a 6,500-relay
    matrix cost 150 rows, not 21M.
    """
    mask = np.isnan(values)
    np.logical_not(mask, out=mask)
    # Both triangles and the diagonal: 2 x measured + n flat positions.
    i, j = np.divmod(np.flatnonzero(mask), values.shape[0])
    above = i < j
    i, j = i[above], j[above]
    return i, j, np.asarray(values[i, j])


def pair_slot(i: Any, j: Any, n: int) -> Any:
    """Position of pair ``(i, j)``, ``i < j``, in the row-major walk of
    the strict upper triangle over ``n`` nodes (scalars or arrays)."""
    return i * n - i * (i + 1) // 2 + j - i - 1


def slot_pair(slot: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Inverse of :func:`pair_slot`: the ``(i, j)`` behind each slot."""
    rows = np.arange(n, dtype=np.int64)
    starts = pair_slot(rows, rows + 1, n)
    i = np.searchsorted(starts, slot, side="right") - 1
    return i, slot - starts[i] + i + 1


def sorted_lookup(
    keys: np.ndarray, values: np.ndarray, wanted: np.ndarray, missing: float
) -> np.ndarray:
    """``values[k]`` where ``keys[k] == wanted`` (``keys`` sorted and
    unique), ``missing`` where no key matches."""
    found_values = np.full(wanted.shape, missing)
    if keys.size:
        at = np.minimum(np.searchsorted(keys, wanted), keys.size - 1)
        found = keys[at] == wanted
        found_values[found] = values[at[found]]
    return found_values


class LatestRows(NamedTuple):
    """:meth:`ProvenanceLog.latest_rows` output: one entry per unordered
    pair with history, sorted row-major by ``(i, j)``."""

    #: Smaller node index of the pair.
    i: np.ndarray
    #: Larger node index (equal to ``i`` for a self-pair record).
    j: np.ndarray
    #: Log row of the pair's latest record.
    row: np.ndarray
    #: Failed-record count over the pair's whole history.
    failures: np.ndarray


class RttMatrix:
    """A symmetric all-pairs RTT matrix keyed by node identifier."""

    def __init__(self, nodes: list[str]) -> None:
        if len(nodes) != len(set(nodes)):
            raise MeasurementError("node identifiers must be unique")
        self.nodes = list(nodes)
        self._index = {node: i for i, node in enumerate(self.nodes)}
        n = len(nodes)
        self._matrix = np.full((n, n), np.nan)
        np.fill_diagonal(self._matrix, 0.0)
        self._num_measured = 0
        self._readonly = False
        self._view = self._matrix.view()
        self._view.flags.writeable = False

    @classmethod
    def from_array(
        cls, nodes: list[str], values: np.ndarray, copy: bool = True
    ) -> "RttMatrix":
        """Adopt an ``n×n`` float array (NaN where unmeasured).

        ``copy=False`` adopts ``values`` as the backing store without
        writing to it — the zero-copy path for memory-mapped datasets,
        where the array is a read-only ``np.memmap`` shared by every
        forked reader through the page cache. A read-only backing flips
        the matrix into copy-on-write mode: the first mutation
        (:meth:`set`, or an :meth:`~CampaignDataset.absorb` into it)
        silently materializes a private writable copy first.
        """
        n = len(nodes)
        if not (isinstance(values, np.ndarray) and values.dtype == np.float64):
            values = np.asarray(values, dtype=float)
        if values.shape != (n, n):
            raise MeasurementError(
                f"matrix shape {values.shape} does not match {n} nodes"
            )
        if copy:
            matrix = cls(nodes)
            matrix._matrix[:, :] = values
            np.fill_diagonal(matrix._matrix, 0.0)
            matrix._recount()
            return matrix
        if np.any(np.diagonal(values) != 0.0):
            raise MeasurementError("adopted matrix must have a zero diagonal")
        matrix = cls.__new__(cls)
        matrix.nodes = list(nodes)
        if len(matrix.nodes) != len(set(matrix.nodes)):
            raise MeasurementError("node identifiers must be unique")
        matrix._index = {node: i for i, node in enumerate(matrix.nodes)}
        matrix._matrix = values
        matrix._readonly = not values.flags.writeable
        matrix._view = values.view()
        matrix._view.flags.writeable = False
        matrix._recount()
        return matrix

    def _materialize(self) -> None:
        """Copy-on-write: replace a read-only backing (a mmapped npz
        entry) with a private writable copy. No-op on owned matrices."""
        if not self._readonly:
            return
        self._matrix = np.array(self._matrix)
        self._readonly = False
        self._view = self._matrix.view()
        self._view.flags.writeable = False

    @property
    def is_readonly(self) -> bool:
        """Whether the backing store is read-only (mmapped). The first
        mutation transparently copies it out (copy-on-write)."""
        return self._readonly

    def _recount(self) -> None:
        n = len(self.nodes)
        missing = int(np.isnan(self._matrix).sum()) // 2
        self._num_measured = n * (n - 1) // 2 - missing

    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.nodes)

    def __contains__(self, node: str) -> bool:
        return node in self._index

    def index_of(self, node: str) -> int:
        """Row/column index of a node identifier."""
        try:
            return self._index[node]
        except KeyError:
            raise MeasurementError(f"unknown node {node!r}") from None

    def set(self, a: str, b: str, rtt_ms: Milliseconds) -> None:
        """Record R(a, b); the matrix stays symmetric.

        Only a finite, non-negative RTT is a measurement: NaN is how
        the matrix spells "unmeasured", and an infinity would reach the
        serve wire as invalid JSON.
        """
        if not math.isfinite(rtt_ms):
            raise MeasurementError(f"non-finite RTT {rtt_ms} for ({a}, {b})")
        if rtt_ms < 0:
            raise MeasurementError(f"negative RTT {rtt_ms} for ({a}, {b})")
        i, j = self.index_of(a), self.index_of(b)
        if i == j:
            raise MeasurementError("diagonal entries are fixed at zero")
        if self._readonly:
            self._materialize()
        if math.isnan(self._matrix[i, j]):
            self._num_measured += 1
        self._matrix[i, j] = rtt_ms
        self._matrix[j, i] = rtt_ms

    def get(self, a: str, b: str) -> Milliseconds:
        """R(a, b); raises if the pair was never measured."""
        value = self._matrix[self.index_of(a), self.index_of(b)]
        if math.isnan(value):
            raise MeasurementError(f"pair ({a}, {b}) has not been measured")
        return float(value)

    def has(self, a: str, b: str) -> bool:
        """Whether the pair has been measured."""
        return not math.isnan(self._matrix[self.index_of(a), self.index_of(b)])

    # ------------------------------------------------------------------

    def pairs(self) -> Iterator[tuple[str, str]]:
        """All unordered node pairs (measured or not)."""
        for i, a in enumerate(self.nodes):
            for b in self.nodes[i + 1 :]:
                yield (a, b)

    def measured_entries(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Every measured pair as index and value arrays ``(i, j,
        value)``, ``i < j``, in row-major order (:func:`measured_upper`
        of the backing array). Sized by the measured set."""
        return measured_upper(self._matrix)

    def _write_entries(
        self, i: np.ndarray, j: np.ndarray, values: np.ndarray
    ) -> None:
        """:meth:`set` for many *distinct* pairs in one scatter; the
        measured count grows by the targets that were NaN before it."""
        if self._readonly:
            self._materialize()
        self._num_measured += int(np.isnan(self._matrix[i, j]).sum())
        self._matrix[i, j] = values
        self._matrix[j, i] = values

    def measured_pairs(self) -> Iterator[tuple[str, str, Milliseconds]]:
        """All measured unordered pairs with their RTTs."""
        nodes = self.nodes
        i, j, values = self.measured_entries()
        for a, b, value in zip(i.tolist(), j.tolist(), values.tolist()):
            yield (nodes[a], nodes[b], value)

    @property
    def is_complete(self) -> bool:
        """Whether every off-diagonal pair has been measured. O(1)."""
        return self._num_measured == len(self.nodes) * (len(self.nodes) - 1) // 2

    @property
    def num_measured(self) -> int:
        """Count of measured (off-diagonal) pairs. O(1) — maintained
        incrementally by :meth:`set` instead of re-scanning for NaNs."""
        return self._num_measured

    @property
    def missing_count(self) -> int:
        """Count of unmeasured (off-diagonal) pairs. O(1)."""
        n = len(self.nodes)
        return n * (n - 1) // 2 - self._num_measured

    def mean_rtt_ms(self) -> Milliseconds:
        """μ — the population mean RTT Algorithm 1 uses to approximate
        the unknown source-to-entry leg."""
        values = self.values()
        if values.size == 0:
            raise MeasurementError("matrix has no measurements")
        return float(np.mean(values))

    def values(self) -> np.ndarray:
        """All measured RTTs as a flat array (one entry per pair)."""
        return self.measured_entries()[2]

    @property
    def matrix(self) -> np.ndarray:
        """A **read-only view** of the underlying ``n×n`` array (NaN
        where unmeasured). No copy — safe for hot readers; callers that
        want to mutate must use :meth:`copy_matrix`."""
        return self._view

    def copy_matrix(self) -> np.ndarray:
        """A mutable copy of the underlying matrix."""
        return self._matrix.copy()

    def as_array(self) -> np.ndarray:
        """A copy of the underlying matrix (NaN where unmeasured)."""
        return self._matrix.copy()

    def submatrix(self, nodes: list[str]) -> "RttMatrix":
        """Restrict to a node subset, keeping measured values."""
        sub = RttMatrix(nodes)
        rows = [self.index_of(node) for node in nodes]
        sub._write_entries(*measured_upper(self._matrix[np.ix_(rows, rows)]))
        return sub

    def content_hash(self) -> str:
        """SHA-256 over nodes + values rounded to the serialization
        precision (6 decimals), so JSON and npz round-trips of the same
        matrix hash identically."""
        digest = hashlib.sha256()
        for node in self.nodes:
            digest.update(node.encode("utf-8"))
            digest.update(b"\x00")
        rounded = np.round(self._matrix, 6)
        # Normalize NaN payloads so the hash only sees "missing".
        rounded = np.nan_to_num(rounded, nan=-1.0)
        digest.update(np.ascontiguousarray(rounded).tobytes())
        return digest.hexdigest()

    # ------------------------------------------------------------------
    # Serialization

    def to_json(self) -> str:
        """Serialize the matrix (nodes + values) to a JSON string."""
        payload = {
            "nodes": self.nodes,
            "rtts_ms": [
                [None if math.isnan(v) else round(float(v), 6) for v in row]
                for row in self._matrix
            ],
        }
        return json.dumps(payload)

    @classmethod
    def from_json(cls, text: str) -> "RttMatrix":
        """Rebuild a matrix from :meth:`to_json` output."""
        payload = json.loads(text)
        matrix = cls(payload["nodes"])
        rows = payload["rtts_ms"]
        n = len(matrix.nodes)
        if len(rows) != n or any(len(row) != n for row in rows):
            raise MeasurementError("malformed RTT matrix JSON")
        values = np.array(
            [[np.nan if v is None else float(v) for v in row] for row in rows],
            dtype=float,
        ).reshape(n, n)
        matrix._matrix[:, :] = values
        np.fill_diagonal(matrix._matrix, 0.0)
        matrix._recount()
        return matrix

    def save(self, path: str | Path) -> None:
        """Write the matrix as JSON to ``path``."""
        Path(path).write_text(self.to_json())

    @classmethod
    def load(cls, path: str | Path) -> "RttMatrix":
        """Read a matrix previously written by :meth:`save`."""
        return cls.from_json(Path(path).read_text())

    def __repr__(self) -> str:
        return (
            f"RttMatrix(nodes={len(self.nodes)}, "
            f"measured={self.num_measured}/{len(self.nodes) * (len(self.nodes) - 1) // 2})"
        )


# ----------------------------------------------------------------------
# Per-pair measurement provenance


@dataclass(slots=True)
class PairProvenance:
    """Why one matrix entry is what it is (or why it is missing).

    One record per attempted pair. ``samples_requested``/``samples_kept``
    expose the min-filter's input and survivors; ``leg_cache_hits`` says
    how many of the two ``R_Cx``/``R_Cy`` legs were reused from an
    earlier pair (Section 4.3's dominant cost saver); ``retries`` counts
    extra attempts beyond the first; ``leg_x_ms``/``leg_y_ms`` are the
    residual one-way-circuit RTTs Eq. 4 subtracts (``residual_ms`` is the
    ``½R_Cx + ½R_Cy`` term itself). Failed pairs carry the categorized
    reason instead of an estimate.

    Value object only: :class:`ProvenanceLog` stores these column-wise
    and materializes records on demand, so mutating a returned record
    does not write back into the log.
    """

    x: str
    y: str
    status: str = "measured"  # "measured" | "failed"
    rtt_ms: float | None = None
    cxy_ms: float | None = None
    leg_x_ms: float | None = None
    leg_y_ms: float | None = None
    samples_requested: int = 0
    samples_kept: int = 0
    #: Probes the cap allowed but an adaptive early stop never sent.
    samples_saved: int = 0
    #: Why the probe round ended short of the cap ("converged",
    #: "deadline", "stream_death"); ``None`` for a full fixed run.
    stop_reason: str | None = None
    leg_cache_hits: int = 0
    retries: int = 0
    failure_category: str | None = None
    reason: str | None = None
    duration_ms: float = 0.0
    shard: int | None = None

    @property
    def residual_ms(self) -> float | None:
        """The ``½R_Cx + ½R_Cy`` term Eq. 4 subtracts from ``R_Cxy``."""
        if self.leg_x_ms is None or self.leg_y_ms is None:
            return None
        return (self.leg_x_ms + self.leg_y_ms) / 2.0

    def to_dict(self) -> dict[str, Any]:
        """A JSON-ready view; ``None`` fields are omitted for compactness."""
        record: dict[str, Any] = {
            "x": self.x,
            "y": self.y,
            "status": self.status,
            "samples_requested": self.samples_requested,
            "samples_kept": self.samples_kept,
            "leg_cache_hits": self.leg_cache_hits,
            "retries": self.retries,
            "duration_ms": round(self.duration_ms, 6),
        }
        for name in ("rtt_ms", "cxy_ms", "leg_x_ms", "leg_y_ms"):
            value = getattr(self, name)
            if value is not None:
                record[name] = round(float(value), 6)
        if self.residual_ms is not None:
            record["residual_ms"] = round(self.residual_ms, 6)
        # Adaptive-only fields stay out of fixed-policy records so the
        # historical provenance schema is byte-stable by default.
        if self.samples_saved:
            record["samples_saved"] = self.samples_saved
        if self.stop_reason is not None:
            record["stop_reason"] = self.stop_reason
        if self.failure_category is not None:
            record["failure_category"] = self.failure_category
        if self.reason is not None:
            record["reason"] = self.reason
        if self.shard is not None:
            record["shard"] = self.shard
        return record

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "PairProvenance":
        """Rebuild a record from :meth:`to_dict` output."""
        return cls(
            x=data["x"],
            y=data["y"],
            status=data.get("status", "measured"),
            rtt_ms=data.get("rtt_ms"),
            cxy_ms=data.get("cxy_ms"),
            leg_x_ms=data.get("leg_x_ms"),
            leg_y_ms=data.get("leg_y_ms"),
            samples_requested=int(data.get("samples_requested", 0)),
            samples_kept=int(data.get("samples_kept", 0)),
            samples_saved=int(data.get("samples_saved", 0)),
            stop_reason=data.get("stop_reason"),
            leg_cache_hits=int(data.get("leg_cache_hits", 0)),
            retries=int(data.get("retries", 0)),
            failure_category=data.get("failure_category"),
            reason=data.get("reason"),
            duration_ms=float(data.get("duration_ms", 0.0)),
            shard=data.get("shard"),
        )


@dataclass(slots=True)
class LegProvenance:
    """Why one relay's shared leg estimate ``R_Cx`` is what it is.

    One record per leg circuit actually built. ``shard`` is ``None``
    when the leg was measured by the campaign-wide leg phase (the
    normal case for shard engine v2: legs belong to the campaign, not
    to any worker); it carries a worker index only when a worker had to
    measure a leg itself.
    """

    relay: str
    rtt_ms: float | None = None
    samples_requested: int = 0
    samples_kept: int = 0
    samples_saved: int = 0
    stop_reason: str | None = None
    duration_ms: float = 0.0
    shard: int | None = None

    def to_dict(self) -> dict[str, Any]:
        """A JSON-ready view; ``None`` fields are omitted for compactness."""
        record: dict[str, Any] = {
            "relay": self.relay,
            "samples_requested": self.samples_requested,
            "samples_kept": self.samples_kept,
            "duration_ms": round(self.duration_ms, 6),
        }
        if self.rtt_ms is not None:
            record["rtt_ms"] = round(float(self.rtt_ms), 6)
        if self.samples_saved:
            record["samples_saved"] = self.samples_saved
        if self.stop_reason is not None:
            record["stop_reason"] = self.stop_reason
        if self.shard is not None:
            record["shard"] = self.shard
        return record

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "LegProvenance":
        """Rebuild a record from :meth:`to_dict` output."""
        return cls(
            relay=data["relay"],
            rtt_ms=data.get("rtt_ms"),
            samples_requested=int(data.get("samples_requested", 0)),
            samples_kept=int(data.get("samples_kept", 0)),
            samples_saved=int(data.get("samples_saved", 0)),
            stop_reason=data.get("stop_reason"),
            duration_ms=float(data.get("duration_ms", 0.0)),
            shard=data.get("shard"),
        )


# ----------------------------------------------------------------------
# Columnar storage


#: ``shard`` column sentinel for "no shard recorded". ``-1`` is a real
#: shard value (the leg-phase sentinel), so the int32 minimum is used.
_NO_SHARD = int(np.iinfo(np.int32).min)

#: Intern-table sentinel for "category is None".
_NO_CAT = -1

_PAIR_SPEC: tuple[tuple[str, type], ...] = (
    ("x", np.int32),
    ("y", np.int32),
    ("status", np.int16),
    ("rtt_ms", np.float64),
    ("cxy_ms", np.float64),
    ("leg_x_ms", np.float64),
    ("leg_y_ms", np.float64),
    ("samples_requested", np.int32),
    ("samples_kept", np.int32),
    ("samples_saved", np.int32),
    ("stop_reason", np.int16),
    ("leg_cache_hits", np.int32),
    ("retries", np.int32),
    ("failure_category", np.int16),
    ("duration_ms", np.float64),
    ("shard", np.int32),
)

_LEG_SPEC: tuple[tuple[str, type], ...] = (
    ("relay", np.int32),
    ("rtt_ms", np.float64),
    ("samples_requested", np.int32),
    ("samples_kept", np.int32),
    ("samples_saved", np.int32),
    ("stop_reason", np.int16),
    ("duration_ms", np.float64),
    ("shard", np.int32),
)


class _ColumnBlock:
    """Capacity-doubling struct-of-arrays storage for one record kind."""

    __slots__ = ("_spec", "_cols", "_n")

    def __init__(self, spec: tuple[tuple[str, type], ...], capacity: int = 16) -> None:
        self._spec = spec
        self._n = 0
        self._cols = {name: np.empty(capacity, dtype=dt) for name, dt in spec}

    def __len__(self) -> int:
        return self._n

    def _reserve(self, extra: int) -> None:
        capacity = self._cols[self._spec[0][0]].shape[0]
        if self._n + extra <= capacity:
            return
        new_capacity = max(capacity * 2, self._n + extra)
        for name, arr in self._cols.items():
            grown = np.empty(new_capacity, dtype=arr.dtype)
            grown[: self._n] = arr[: self._n]
            self._cols[name] = grown

    def append(self, values: dict[str, Any]) -> int:
        """Append one row; returns its index."""
        self._reserve(1)
        i = self._n
        for name, value in values.items():
            self._cols[name][i] = value
        self._n += 1
        return i

    def extend(self, cols: dict[str, np.ndarray]) -> None:
        """Bulk-append trimmed column arrays (all the same length)."""
        count = int(cols[self._spec[0][0]].shape[0])
        if count == 0:
            return
        self._reserve(count)
        for name, _ in self._spec:
            self._cols[name][self._n : self._n + count] = cols[name][:count]
        self._n += count

    def column(self, name: str) -> np.ndarray:
        """Trimmed read view of one column (do not mutate)."""
        return self._cols[name][: self._n]

    def snapshot(self) -> dict[str, np.ndarray]:
        """Trimmed copies of every column — a picklable flat payload."""
        return {name: self._cols[name][: self._n].copy() for name, _ in self._spec}


def _f(value: float | None) -> float:
    return math.nan if value is None else float(value)


def _opt_float(value: float) -> float | None:
    return None if math.isnan(value) else float(value)


class ProvenanceLog:
    """An append-only collection of :class:`PairProvenance` records,
    plus the campaign's :class:`LegProvenance` records.

    Storage is struct-of-arrays: one flat numpy column per field, with
    node identifiers and category strings (status / stop reason /
    failure category) interned into shared side tables, and free-text
    failure reasons kept in a sparse ``{row: text}`` dict. ``records()``
    / iteration / ``get`` materialize lightweight value objects on
    demand; a 500k-pair campaign is a handful of arrays, not 500k dicts.

    Shard workers each build one; the parent folds them together with
    :meth:`merge_snapshot` (array concatenation + intern remap), retagging
    adopted records with the worker index so a fused log still says
    which process measured what. Leg records are kept separately from
    pair records — ``len(log)`` and iteration stay pair-only, so the
    historical per-pair schema is unchanged.
    """

    __slots__ = (
        "_names",
        "_name_ids",
        "_cats",
        "_cat_ids",
        "_pairs",
        "_legs",
        "_reasons",
        "_row_cache",
    )

    def __init__(self) -> None:
        self._names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._cats: list[str] = []
        self._cat_ids: dict[str, int] = {}
        self._pairs = _ColumnBlock(_PAIR_SPEC)
        self._legs = _ColumnBlock(_LEG_SPEC)
        self._reasons: dict[int, str] = {}
        #: Memoized materialized rows, so repeated ``get``/``records``
        #: calls hand back the *same* value object for the same row.
        self._row_cache: dict[int, PairProvenance] = {}

    # -- interning ------------------------------------------------------

    def _intern_name(self, name: str) -> int:
        code = self._name_ids.get(name)
        if code is None:
            code = len(self._names)
            self._names.append(name)
            self._name_ids[name] = code
        return code

    def _intern_cat(self, category: str | None) -> int:
        if category is None:
            return _NO_CAT
        code = self._cat_ids.get(category)
        if code is None:
            code = len(self._cats)
            self._cats.append(category)
            self._cat_ids[category] = code
        return code

    def _cat_at(self, code: int) -> str | None:
        return None if code < 0 else self._cats[code]

    # -- appends --------------------------------------------------------

    def add(self, record: PairProvenance) -> None:
        """Append one pair's provenance."""
        row = self._pairs.append(
            {
                "x": self._intern_name(record.x),
                "y": self._intern_name(record.y),
                "status": self._intern_cat(record.status),
                "rtt_ms": _f(record.rtt_ms),
                "cxy_ms": _f(record.cxy_ms),
                "leg_x_ms": _f(record.leg_x_ms),
                "leg_y_ms": _f(record.leg_y_ms),
                "samples_requested": record.samples_requested,
                "samples_kept": record.samples_kept,
                "samples_saved": record.samples_saved,
                "stop_reason": self._intern_cat(record.stop_reason),
                "leg_cache_hits": record.leg_cache_hits,
                "retries": record.retries,
                "failure_category": self._intern_cat(record.failure_category),
                "duration_ms": float(record.duration_ms),
                "shard": _NO_SHARD if record.shard is None else record.shard,
            }
        )
        if record.reason is not None:
            self._reasons[row] = record.reason

    def add_leg(self, record: LegProvenance) -> None:
        """Append one leg circuit's provenance."""
        self._legs.append(
            {
                "relay": self._intern_name(record.relay),
                "rtt_ms": _f(record.rtt_ms),
                "samples_requested": record.samples_requested,
                "samples_kept": record.samples_kept,
                "samples_saved": record.samples_saved,
                "stop_reason": self._intern_cat(record.stop_reason),
                "duration_ms": float(record.duration_ms),
                "shard": _NO_SHARD if record.shard is None else record.shard,
            }
        )

    # -- materialization ------------------------------------------------

    def _pair_at(self, row: int) -> PairProvenance:
        cached = self._row_cache.get(row)
        if cached is None:
            cached = self._row_cache[row] = self._materialize_pair(row)
        return cached

    def _materialize_pair(self, row: int) -> PairProvenance:
        cols = self._pairs._cols
        shard = int(cols["shard"][row])
        return PairProvenance(
            x=self._names[cols["x"][row]],
            y=self._names[cols["y"][row]],
            status=self._cats[cols["status"][row]],
            rtt_ms=_opt_float(cols["rtt_ms"][row]),
            cxy_ms=_opt_float(cols["cxy_ms"][row]),
            leg_x_ms=_opt_float(cols["leg_x_ms"][row]),
            leg_y_ms=_opt_float(cols["leg_y_ms"][row]),
            samples_requested=int(cols["samples_requested"][row]),
            samples_kept=int(cols["samples_kept"][row]),
            samples_saved=int(cols["samples_saved"][row]),
            stop_reason=self._cat_at(int(cols["stop_reason"][row])),
            leg_cache_hits=int(cols["leg_cache_hits"][row]),
            retries=int(cols["retries"][row]),
            failure_category=self._cat_at(int(cols["failure_category"][row])),
            reason=self._reasons.get(row),
            duration_ms=float(cols["duration_ms"][row]),
            shard=None if shard == _NO_SHARD else shard,
        )

    def _leg_at(self, row: int) -> LegProvenance:
        cols = self._legs._cols
        shard = int(cols["shard"][row])
        return LegProvenance(
            relay=self._names[cols["relay"][row]],
            rtt_ms=_opt_float(cols["rtt_ms"][row]),
            samples_requested=int(cols["samples_requested"][row]),
            samples_kept=int(cols["samples_kept"][row]),
            samples_saved=int(cols["samples_saved"][row]),
            stop_reason=self._cat_at(int(cols["stop_reason"][row])),
            duration_ms=float(cols["duration_ms"][row]),
            shard=None if shard == _NO_SHARD else shard,
        )

    def legs(self) -> list[LegProvenance]:
        """All leg records, in insertion order."""
        return [self._leg_at(i) for i in range(len(self._legs))]

    def leg_for(self, relay: str) -> LegProvenance | None:
        """The leg record for one relay, or ``None``."""
        code = self._name_ids.get(relay)
        if code is None:
            return None
        matches = np.flatnonzero(self._legs.column("relay") == code)
        if matches.size == 0:
            return None
        return self._leg_at(int(matches[0]))

    def records(self) -> list[PairProvenance]:
        """All records, in insertion order (materialized on demand)."""
        return [self._pair_at(i) for i in range(len(self._pairs))]

    def get(self, x: str, y: str) -> PairProvenance | None:
        """The record for an unordered pair, or ``None``."""
        cx = self._name_ids.get(x)
        cy = self._name_ids.get(y)
        if cx is None or cy is None:
            return None
        xs = self._pairs.column("x")
        ys = self._pairs.column("y")
        mask = ((xs == cx) & (ys == cy)) | ((xs == cy) & (ys == cx))
        matches = np.flatnonzero(mask)
        if matches.size == 0:
            return None
        return self._pair_at(int(matches[0]))

    # -- merge / snapshot ----------------------------------------------

    def snapshot(self) -> dict[str, Any]:
        """The whole log as a handful of flat buffers.

        This is what crosses the fork boundary: intern tables, the pair
        and leg column arrays, and the sparse reason texts. Rebuild with
        :meth:`merge_snapshot` (into an existing log) or
        :meth:`from_snapshot` (fresh).
        """
        return {
            "names": list(self._names),
            "cats": list(self._cats),
            "pairs": self._pairs.snapshot(),
            "legs": self._legs.snapshot(),
            "reasons": dict(self._reasons),
        }

    def merge_snapshot(
        self,
        snap: dict[str, Any],
        shard: int | None = None,
        leg_shard: int | None = None,
    ) -> "ProvenanceLog":
        """Adopt a :meth:`snapshot` payload by array concatenation.

        ``shard`` retags adopted *pair* rows whose shard is unset (a row
        that already names its worker keeps it); ``leg_shard`` does the
        same for leg rows and is normally ``None``: an unset shard there
        means "measured by the campaign-wide leg phase", which is an
        attribution, not a gap to fill. Returns self.
        """
        name_map = np.array(
            [self._intern_name(n) for n in snap["names"]], dtype=np.int32
        )
        cat_map = np.array(
            [self._intern_cat(c) for c in snap["cats"]], dtype=np.int16
        )

        def remap_cat(col: np.ndarray) -> np.ndarray:
            if cat_map.size == 0:
                return col.copy()
            return np.where(
                col >= 0, cat_map[np.maximum(col, 0)], np.int16(_NO_CAT)
            ).astype(np.int16)

        def retag(col: np.ndarray, tag: int | None) -> np.ndarray:
            if tag is None:
                return col
            return np.where(col == _NO_SHARD, np.int32(tag), col).astype(np.int32)

        pair_cols = dict(snap["pairs"])
        if name_map.size:
            pair_cols["x"] = name_map[pair_cols["x"]]
            pair_cols["y"] = name_map[pair_cols["y"]]
        for cat_col in ("status", "stop_reason", "failure_category"):
            pair_cols[cat_col] = remap_cat(pair_cols[cat_col])
        pair_cols["shard"] = retag(pair_cols["shard"], shard)
        base_row = len(self._pairs)
        self._pairs.extend(pair_cols)
        for row, text in snap.get("reasons", {}).items():
            self._reasons[base_row + int(row)] = text

        leg_cols = dict(snap["legs"])
        if name_map.size and leg_cols["relay"].shape[0]:
            leg_cols["relay"] = name_map[leg_cols["relay"]]
        leg_cols["stop_reason"] = remap_cat(leg_cols["stop_reason"])
        leg_cols["shard"] = retag(leg_cols["shard"], leg_shard)
        self._legs.extend(leg_cols)
        return self

    @classmethod
    def from_snapshot(cls, snap: dict[str, Any]) -> "ProvenanceLog":
        """Rebuild a log from :meth:`snapshot` output."""
        return cls().merge_snapshot(snap)

    # -- serialization --------------------------------------------------

    def to_list(self) -> list[dict[str, Any]]:
        """JSON-ready list of every pair record."""
        # Bypass the row cache: bulk serialization of a 500k-row log
        # should not pin 500k value objects in memory afterwards.
        return [self._materialize_pair(i).to_dict() for i in range(len(self._pairs))]

    def legs_to_list(self) -> list[dict[str, Any]]:
        """JSON-ready list of every leg record."""
        return [self._leg_at(i).to_dict() for i in range(len(self._legs))]

    @classmethod
    def from_list(
        cls,
        data: list[dict[str, Any]],
        legs: list[dict[str, Any]] | None = None,
    ) -> "ProvenanceLog":
        """Rebuild a log from :meth:`to_list` (+ :meth:`legs_to_list`) output."""
        log = cls()
        for entry in data:
            log.add(PairProvenance.from_dict(entry))
        for entry in legs or []:
            log.add_leg(LegProvenance.from_dict(entry))
        return log

    # -- queries --------------------------------------------------------

    def by_status(self, status: str) -> list[PairProvenance]:
        """Records with the given status (``measured``/``failed``)."""
        code = self._cat_ids.get(status)
        if code is None:
            return []
        rows = np.flatnonzero(self._pairs.column("status") == code)
        return [self._pair_at(int(i)) for i in rows]

    def failure_breakdown(self) -> dict[str, int]:
        """Failed-pair counts keyed by failure category."""
        failed_code = self._cat_ids.get("failed")
        if failed_code is None:
            return {}
        status = self._pairs.column("status")
        category = self._pairs.column("failure_category")
        breakdown: dict[str, int] = {}
        # Preserve first-encounter key order among failed records.
        for code in category[status == failed_code]:
            name = self._cat_at(int(code)) or "other"
            breakdown[name] = breakdown.get(name, 0) + 1
        return breakdown

    def latest_rows(self, nodes: Sequence[str]) -> LatestRows:
        """The latest record of every unordered pair over ``nodes``.

        Insertion order is the only clock the log has, so a pair's
        latest row number is its age (lower row → older measurement) —
        what planner staleness and quality scoring read. Records naming
        a node outside ``nodes`` are skipped; indices are positions in
        ``nodes``. Column reads sized by the history, no record
        materialization and nothing sized by ``len(nodes)²``.
        """
        n = len(nodes)
        node_index = {node: i for i, node in enumerate(nodes)}
        code_map = np.array(
            [node_index.get(name, -1) for name in self._names], dtype=np.int64
        )
        xi = code_map[self._pairs.column("x")]
        yi = code_map[self._pairs.column("y")]
        rows = np.flatnonzero((xi >= 0) & (yi >= 0))
        keys = np.minimum(xi[rows], yi[rows]) * n + np.maximum(xi[rows], yi[rows])
        # First occurrence in the reversed key stream is the last in
        # insertion order.
        uniq, rev_first = np.unique(keys[::-1], return_index=True)
        latest = rows[keys.size - 1 - rev_first]
        failed_code = self._cat_ids.get("failed")
        if failed_code is None:
            failures = np.zeros(uniq.size, dtype=np.int64)
        else:
            # Lifetime failure counts via ranks into the unique-key
            # table (never a dense n² bincount).
            failed = self._pairs.column("status")[rows] == failed_code
            failures = np.bincount(
                np.searchsorted(uniq, keys[failed]), minlength=uniq.size
            )
        return LatestRows(uniq // n, uniq % n, latest, failures)

    def status_codes(self) -> tuple[np.ndarray, dict[str, int]]:
        """The raw status column plus the category→code mapping, for
        vectorized consumers (planner scoring)."""
        return self._pairs.column("status"), dict(self._cat_ids)

    def pair_columns(self, *names: str) -> tuple[np.ndarray, ...]:
        """Trimmed read views of raw pair columns, in request order.

        The vectorized consumer's door into the columnar store (quality
        scoring reads six columns at once instead of materializing
        records). Category-typed columns (``status``, ``stop_reason``,
        ``failure_category``) hold intern codes — decode them with
        :meth:`status_codes`'s mapping. Do not mutate the views.
        """
        return tuple(self._pairs.column(name) for name in names)

    def __len__(self) -> int:
        return len(self._pairs)

    def __iter__(self) -> Iterator[PairProvenance]:
        for i in range(len(self._pairs)):
            yield self._pair_at(i)

    def __repr__(self) -> str:
        failed_code = self._cat_ids.get("failed")
        failed = (
            0
            if failed_code is None
            else int((self._pairs.column("status") == failed_code).sum())
        )
        return f"ProvenanceLog({len(self._pairs)} records, {failed} failed)"


# ----------------------------------------------------------------------
# Matrix + provenance + metadata, as one auditable document


DATASET_FORMAT = "ting-campaign/1"
DATASET_NPZ_FORMAT = "ting-campaign-npz/1"

#: Every zip archive (hence every npz) starts with a local-file header.
_NPZ_MAGIC = b"PK\x03\x04"


def _str_array(values: list[str]) -> np.ndarray:
    if not values:
        return np.empty(0, dtype="<U1")
    return np.array(values, dtype=np.str_)


def _npz_entry_memmap(path: Path, name: str) -> np.ndarray | None:
    """Memory-map one array entry of a :func:`_write_npz` container.

    ``np.load(mmap_mode=...)`` cannot map arrays inside a zip archive,
    but this repo's npz files are deliberately ``ZIP_STORED``: the npy
    payload sits uncompressed at a knowable byte offset. This locates
    the entry's local header, parses the npy header for dtype/shape,
    and hands back a read-only ``np.memmap`` over the raw data bytes —
    zero copies, and every forked process that inherits (or re-opens)
    the mapping shares one page-cache copy of the matrix.

    Returns ``None`` when the entry is absent, compressed, or not a
    plain little-endian npy v1/v2 array — callers fall back to the
    eager load path.
    """
    try:
        with zipfile.ZipFile(path) as archive:
            try:
                info = archive.getinfo(name + ".npy")
            except KeyError:
                return None
            if info.compress_type != zipfile.ZIP_STORED:
                return None
            header_offset = info.header_offset
    except zipfile.BadZipFile:
        return None
    with open(path, "rb") as handle:
        handle.seek(header_offset)
        local = handle.read(30)
        if len(local) < 30 or local[:4] != _NPZ_MAGIC:
            return None
        # Local file header: name and extra lengths live at bytes 26/28.
        name_len = int.from_bytes(local[26:28], "little")
        extra_len = int.from_bytes(local[28:30], "little")
        handle.seek(header_offset + 30 + name_len + extra_len)
        try:
            version = np.lib.format.read_magic(handle)
            if version == (1, 0):
                shape, fortran, dtype = np.lib.format.read_array_header_1_0(handle)
            elif version == (2, 0):
                shape, fortran, dtype = np.lib.format.read_array_header_2_0(handle)
            else:
                return None
        except ValueError:
            return None
        if dtype.hasobject:
            return None
        data_offset = handle.tell()
    return np.memmap(
        path,
        dtype=dtype,
        mode="r",
        offset=data_offset,
        shape=shape,
        order="F" if fortran else "C",
    )


def _write_npz(path: Path, arrays: dict[str, np.ndarray]) -> None:
    """A deterministic ``np.savez``: identical input arrays produce
    byte-identical files. ``np.savez`` itself stamps each zip entry with
    the current time, so two saves of the same dataset differ; here every
    entry gets the zip epoch (1980-01-01) and no compression, and entry
    order is the caller's dict order. Still readable by ``np.load``."""
    with zipfile.ZipFile(path, "w", zipfile.ZIP_STORED) as archive:
        for name, arr in arrays.items():
            buffer = io.BytesIO()
            np.lib.format.write_array(
                buffer, np.ascontiguousarray(arr), allow_pickle=False
            )
            info = zipfile.ZipInfo(name + ".npy", date_time=(1980, 1, 1, 0, 0, 0))
            info.compress_type = zipfile.ZIP_STORED
            archive.writestr(info, buffer.getvalue())


@dataclass(slots=True)
class CampaignDataset:
    """A campaign's full output: matrix, per-pair provenance, metadata.

    The matrix alone answers "what is R(x, y)?"; the dataset also
    answers "how do you know?" — which downstream consumers of
    all-pairs latency data (overlay routing, latency-aware circuit
    construction) need before they build on it.

    Two on-disk formats: the historical JSON document (kept for small /
    debug datasets and external tooling), and a binary ``.npz`` container
    holding the float64 matrix, the provenance columns, and the metadata
    as an embedded JSON entry — no O(n²) Python-float round-trip.
    :meth:`load` auto-detects which one it is reading.
    """

    matrix: RttMatrix
    provenance: ProvenanceLog = field(default_factory=ProvenanceLog)
    meta: dict[str, Any] = field(default_factory=dict)
    _quality_cache: Any = field(default=None, repr=False, compare=False)

    def to_json(self, indent: int | None = None) -> str:
        """One JSON document: format tag, metadata, matrix, provenance."""
        payload = {
            "format": DATASET_FORMAT,
            "meta": self.meta,
            "matrix": json.loads(self.matrix.to_json()),
            "provenance": self.provenance.to_list(),
        }
        # Leg provenance is additive: datasets without it (pre-v2
        # campaigns) serialize byte-identically to the historical schema.
        legs = self.provenance.legs_to_list()
        if legs:
            payload["legs"] = legs
        return json.dumps(payload, indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "CampaignDataset":
        """Rebuild a dataset from :meth:`to_json` output."""
        payload = json.loads(text)
        if payload.get("format") != DATASET_FORMAT:
            raise MeasurementError(
                f"unknown dataset format {payload.get('format')!r}"
            )
        matrix = RttMatrix.from_json(json.dumps(payload["matrix"]))
        provenance = ProvenanceLog.from_list(
            payload.get("provenance", []), legs=payload.get("legs")
        )
        return cls(matrix=matrix, provenance=provenance, meta=payload.get("meta", {}))

    # -- binary format --------------------------------------------------

    def _to_arrays(self) -> dict[str, np.ndarray]:
        header = json.dumps({"format": DATASET_NPZ_FORMAT, "meta": self.meta})
        prov = self.provenance
        reasons = prov._reasons
        arrays: dict[str, np.ndarray] = {
            "header": np.frombuffer(header.encode("utf-8"), dtype=np.uint8),
            "nodes": _str_array(self.matrix.nodes),
            "matrix": self.matrix.copy_matrix(),
            "prov_names": _str_array(prov._names),
            "prov_cats": _str_array(prov._cats),
        }
        for name, _ in _PAIR_SPEC:
            arrays[f"pair_{name}"] = prov._pairs.column(name).copy()
        for name, _ in _LEG_SPEC:
            arrays[f"leg_{name}"] = prov._legs.column(name).copy()
        arrays["reason_rows"] = np.array(sorted(reasons), dtype=np.int64)
        arrays["reason_text"] = _str_array([reasons[k] for k in sorted(reasons)])
        return arrays

    @classmethod
    def _from_arrays(
        cls, data: Any, matrix_values: np.ndarray | None = None
    ) -> "CampaignDataset":
        header = json.loads(bytes(np.asarray(data["header"]).tobytes()).decode("utf-8"))
        if header.get("format") != DATASET_NPZ_FORMAT:
            raise MeasurementError(
                f"unknown dataset format {header.get('format')!r}"
            )
        nodes = [str(n) for n in data["nodes"]]
        if matrix_values is not None:
            # Zero-copy adoption of a memory-mapped matrix entry.
            matrix = RttMatrix.from_array(nodes, matrix_values, copy=False)
        else:
            matrix = RttMatrix.from_array(nodes, data["matrix"])
        snap = {
            "names": [str(n) for n in data["prov_names"]],
            "cats": [str(c) for c in data["prov_cats"]],
            "pairs": {name: data[f"pair_{name}"] for name, _ in _PAIR_SPEC},
            "legs": {name: data[f"leg_{name}"] for name, _ in _LEG_SPEC},
            "reasons": {
                int(row): str(text)
                for row, text in zip(data["reason_rows"], data["reason_text"])
            },
        }
        return cls(
            matrix=matrix,
            provenance=ProvenanceLog.from_snapshot(snap),
            meta=header.get("meta", {}),
        )

    # -- persistence ----------------------------------------------------

    def save(self, path: str | Path, format: str = "auto") -> None:
        """Write the dataset to ``path``.

        ``format`` is ``"json"``, ``"npz"``, or ``"auto"`` (npz when the
        suffix is ``.npz``, JSON otherwise — preserving the historical
        default for every pre-existing call site).
        """
        path = Path(path)
        if format == "auto":
            format = "npz" if path.suffix == ".npz" else "json"
        if format == "json":
            path.write_text(self.to_json())
        elif format == "npz":
            _write_npz(path, self._to_arrays())
        else:
            raise MeasurementError(f"unknown dataset save format {format!r}")

    @classmethod
    def load(cls, path: str | Path, mmap: bool = False) -> "CampaignDataset":
        """Read a dataset previously written by :meth:`save`, sniffing
        the on-disk format (JSON document vs npz container).

        ``mmap=True`` memory-maps the O(n²) matrix entry of an npz
        container instead of copying it into anonymous memory: the
        returned matrix is backed by a **read-only** ``np.memmap``, so N
        forked query workers share one page-cache copy of the file —
        the zero-copy multiprocess serving model ``repro.serve`` is
        built on. The memmap object itself keeps the file mapping alive
        for as long as the matrix is referenced; there is no separate
        handle to manage. Mutations are copy-on-write: :meth:`absorb`
        (and ``RttMatrix.set``) materialize a private writable copy
        before the first write, detaching the dataset from the file.
        Provenance columns and metadata are always loaded eagerly (they
        are small), and JSON documents — which have no binary layout to
        map — ignore the flag.
        """
        path = Path(path)
        with open(path, "rb") as handle:
            magic = handle.read(4)
        if magic == _NPZ_MAGIC:
            matrix_values = _npz_entry_memmap(path, "matrix") if mmap else None
            with np.load(path, allow_pickle=False) as data:
                return cls._from_arrays(data, matrix_values=matrix_values)
        return cls.from_json(path.read_text())

    # -- incremental refresh -------------------------------------------

    def absorb(
        self,
        matrix: RttMatrix,
        provenance: ProvenanceLog | None = None,
        meta: dict[str, Any] | None = None,
    ) -> int:
        """Fold a refresh campaign's results into this dataset.

        Measured entries in ``matrix`` overwrite (or fill) the dataset's
        entries; new nodes grow the dataset matrix; ``provenance``
        records are appended (shard attribution kept), so the log stays
        the dataset's full measurement history in insertion order —
        which is exactly what planner staleness scoring reads. Returns
        the number of pair entries written.

        On a memory-mapped dataset (``load(..., mmap=True)``) the
        matrix backing is read-only, so absorb copies it out of the
        mapping first (copy-on-write) and then writes into the private
        copy — the on-disk file is never mutated, and the dataset is
        detached from the page-cache sharing from that point on.
        """
        # Copy-on-write before any write path below touches the array.
        self.matrix._materialize()
        new_nodes = [n for n in matrix.nodes if n not in self.matrix._index]
        if new_nodes:
            grown = RttMatrix(self.matrix.nodes + new_nodes)
            old_n = len(self.matrix.nodes)
            grown._matrix[:old_n, :old_n] = self.matrix._matrix
            grown._num_measured = self.matrix._num_measured
            self.matrix = grown

        # The incoming measured set, scattered through the node map:
        # cost follows what the refresh measured, whatever the two
        # matrices' sizes and node orders.
        i, j, values = matrix.measured_entries()
        index = self.matrix._index
        rows = np.array([index[node] for node in matrix.nodes], dtype=np.int64)
        self.matrix._write_entries(rows[i], rows[j], values)
        updated = int(values.size)
        if provenance is not None:
            self.provenance.merge_snapshot(provenance.snapshot())
        if meta:
            self.meta.update(meta)
        # Absorbed results change both values and provenance history, so
        # any previously computed quality scores are no longer valid.
        self._quality_cache = None
        return updated

    # -- data quality ---------------------------------------------------

    def quality(self, refresh: bool = False) -> Any:
        """Per-pair quality scores for this dataset (cached).

        Computed lazily by :func:`repro.obs.health.pair_quality` and
        cached until :meth:`absorb` invalidates it. ``refresh=True``
        forces recomputation (e.g. after out-of-band mutation).
        """
        if refresh or self._quality_cache is None:
            from repro.obs.health import pair_quality

            self._quality_cache = pair_quality(self)
        return self._quality_cache

    def __repr__(self) -> str:
        return (
            f"CampaignDataset(matrix={self.matrix!r}, "
            f"provenance={len(self.provenance)} records)"
        )
