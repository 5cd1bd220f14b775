"""The query server: batched dispatch, forked workers.

:class:`QueryServer` turns a :class:`~repro.serve.index.MatrixIndex`
into a request/response surface: each query is a plain dict (the JSONL
wire format of ``repro serve --batch``), each answer a plain dict —
picklable, so batches fan out across forked worker processes with
nothing but slice boundaries crossing the process gap.

The multiprocess model is ``ShardedCampaign``'s fork pool
(:func:`repro.util.cpus.run_pool`): the index is built **once in the
parent** and inherited copy-on-write; when the underlying matrix is a
``load(..., mmap=True)`` memmap, the workers don't even pay the COW —
every process reads the same page-cache copy of the npz file. Queries
are split into contiguous slices (one per worker), answered
independently, and reassembled by position, so results are
bit-identical for any worker count — the invariance the serve tests
pin.

``tests/serve/test_index_differential.py`` holds every answer to plain
numpy on the raw array; ``scripts/serve_smoke.py`` checks, on a saved
dataset, that mmap-backed and forked answers equal in-memory inline ones.
"""

from __future__ import annotations

import math
import pickle
import time
from typing import Any, Callable, Sequence

import numpy as np

from repro.serve.index import MatrixIndex
from repro.serve.telemetry import (
    NULL_SERVE_TELEMETRY,
    QUERY_OPS,
    ServeTelemetry,
    UnknownOpError,
    classify_error,
)
from repro.util.cpus import run_pool
from repro.util.errors import ConfigurationError, MeasurementError

#: A :meth:`QueryServer.batch` worker ships its answers at least every
#: ``SHIP_EVERY_S`` and is wedged once silent for ``PROGRESS_DEADLINE_S``
#: (wall seconds, since its fork or last shipment). Healthy ones were
#: measured silent ≤ 0.35 s (``knn`` / ``via``, ``k = n``; DESIGN §12).
SHIP_EVERY_S = 0.1
PROGRESS_DEADLINE_S = 2.0


def _error_answer(query: Any, exc: Exception) -> dict[str, Any]:
    """The error wire format: echoed op (``None`` for a query that is no
    dict), message, taxonomy category."""
    return {
        "op": query.get("op") if isinstance(query, dict) else None,
        "error": str(exc) or exc.__class__.__name__,
        "category": classify_error(exc),
    }


# ----------------------------------------------------------------------
# One writer per op: query dict -> answer dict (``_dispatch`` appends op
# and version). Point, knn and via records come from the index's
# ``_wire_*`` methods, which write the value API's ``to_dict()`` output
# straight from its arrays.


def _count(query: dict[str, Any], default: int) -> int:
    """The query's ``k``: an integer, never a float or bool cut to one."""
    k = query.get("k", default)
    if k.__class__ is int:
        return k
    if isinstance(k, np.integer):
        return int(k)
    raise ConfigurationError(f"k must be an integer, got {k!r}")


def _number(query: dict[str, Any], key: str) -> float:
    """The query's ``key``: a number, never a bool or a string read as one."""
    value = query[key]
    if value.__class__ is float or value.__class__ is int:
        return float(value)
    if isinstance(value, (np.floating, np.integer)):
        return float(value)
    raise ConfigurationError(f"{key} must be a number, got {value!r}")


def _point(index: MatrixIndex, query: dict[str, Any]) -> dict[str, Any]:
    return index._wire_point(query["x"], query["y"])


def _knn(index: MatrixIndex, query: dict[str, Any]) -> dict[str, Any]:
    k = _count(query, 10)
    a = query["x"]
    return {"x": a, "k": k, "neighbors": index._wire_neighbors(a, k)}


def _via(index: MatrixIndex, query: dict[str, Any]) -> dict[str, Any]:
    k = _count(query, 1)
    return {"detours": index._wire_detours(query["x"], query["y"], k)}


def _percentile(index: MatrixIndex, query: dict[str, Any]) -> dict[str, Any]:
    q = _number(query, "q")
    if "x" in query:
        return {"x": query["x"], "q": q, "rtt_ms": index.percentile(query["x"], q)}
    return {"q": q, "rtt_ms": index.global_percentile(q)}


def _rank(index: MatrixIndex, query: dict[str, Any]) -> dict[str, Any]:
    rtt_ms = _number(query, "rtt_ms")
    if not math.isfinite(rtt_ms):
        # Echoed back, it would put a bare NaN / Infinity token (not
        # JSON) on the wire.
        raise ConfigurationError(f"rtt_ms must be finite, got {rtt_ms}")
    return {"x": query["x"], "rtt_ms": rtt_ms, "rank": index.rank(query["x"], rtt_ms)}


def _path(index: MatrixIndex, query: dict[str, Any]) -> dict[str, Any]:
    hops = query["hops"]
    if not isinstance(hops, (list, tuple)):
        # A string would be walked one character at a time.
        raise ConfigurationError(f"hops must be a list of nodes, got {hops!r}")
    hops = list(hops)
    return {"hops": hops, "rtt_ms": index.path_rtt(hops)}


_WRITERS: dict[str, Callable[[MatrixIndex, dict[str, Any]], dict[str, Any]]] = {
    "point": _point,
    "knn": _knn,
    "percentile": _percentile,
    "rank": _rank,
    "path": _path,
    "via": _via,
}


class QueryServer:
    """Answers query dicts against one frozen :class:`MatrixIndex`.

    ``workers`` sets the default fan-out for :meth:`batch`; 1 means
    inline (no forks). Each answer dict echoes the query's ``op`` and
    carries the dataset ``version`` the answer was served from, so a
    client can detect a refresh between two answers.

    ``telemetry`` defaults to the no-op
    :data:`~repro.serve.telemetry.NULL_SERVE_TELEMETRY`; pass a live
    :class:`~repro.serve.telemetry.ServeTelemetry` to get per-op
    latency histograms, taxonomy-keyed error counters, the slow-query
    access log, and sampled spans — merged across :meth:`batch` workers
    invariantly to the fan-out.
    """

    def __init__(
        self,
        index: MatrixIndex,
        workers: int = 1,
        telemetry: ServeTelemetry = NULL_SERVE_TELEMETRY,
    ) -> None:
        if workers < 1:
            raise ConfigurationError("workers must be >= 1")
        self.index = index
        self.workers = workers
        self.telemetry = telemetry

    # ------------------------------------------------------------------

    def query(self, query: dict[str, Any]) -> dict[str, Any]:
        """Answer one query dict; errors come back as ``{"error": ...,
        "category": <taxonomy>}`` rather than raising, so one bad query
        cannot poison a batch. A query that is not a dict (a JSONL line
        holding an array, string, number or null) answers ``{"op": None,
        ..., "category": "bad_arg"}``."""
        telemetry = self.telemetry
        if not telemetry.enabled:
            try:
                return self._dispatch(query)
            except Exception as exc:  # noqa: BLE001 — answer, don't poison
                return _error_answer(query, exc)
        start_s = telemetry.timer()
        try:
            answer = self._dispatch(query)
        except Exception as exc:  # noqa: BLE001
            answer = _error_answer(query, exc)
            telemetry.record(
                answer["op"], start_s, telemetry.timer(),
                category=answer["category"], detail=answer["error"],
            )
            return answer
        telemetry.record(answer["op"], start_s, telemetry.timer())
        return answer

    def _dispatch(self, query: dict[str, Any]) -> dict[str, Any]:
        """The one seam every op passes through: the op's writer, then
        the echoed op and the dataset version."""
        if not isinstance(query, dict):
            raise ConfigurationError(
                f"a query must be a JSON object, got {type(query).__name__}"
            )
        op = query.get("op")
        try:
            writer = _WRITERS[op]
        except (KeyError, TypeError):  # TypeError: an unhashable op
            raise UnknownOpError(
                f"unknown op {op!r}; expected one of {QUERY_OPS}"
            ) from None
        index = self.index
        answer = writer(index, query)
        answer["op"] = op
        answer["version"] = index.version
        return answer

    # ------------------------------------------------------------------

    def batch(
        self,
        queries: Sequence[dict[str, Any]],
        workers: int | None = None,
    ) -> list[dict[str, Any]]:
        """Answer a batch of query dicts, in order.

        ``workers`` overrides the server default. With more than one
        worker the batch is split into contiguous slices, each answered
        in a forked child, and reassembled by slice position — results
        are identical to an inline run for any worker count. A platform
        without fork answers the same slices in-process, one after the
        other.

        With live telemetry, each worker records into a fresh
        same-config recorder (span sampling offset by its slice start)
        and ships the snapshot home with its answers; the parent folds
        them in worker order, so merged counters and histogram buckets
        equal the inline run's exactly.

        The workers are :func:`~repro.util.cpus.run_pool`'s, the same
        pool the shard engine's rounds use: each binds itself to its CPU
        share, and a worker that raises, or dies before shipping its
        slice (kill -9, OOM), fails the batch at once or within a second
        with a categorized :class:`MeasurementError` naming ``serve
        worker N``. A worker ships answers at least every
        :data:`SHIP_EVERY_S`; one silent for :data:`PROGRESS_DEADLINE_S`
        fails the batch (``serve worker N exceeded the 2.0s deadline
        between answers``): a deadline on progress, not on the batch.
        """
        queries = list(queries)
        n_workers = self.workers if workers is None else workers
        if n_workers < 1:
            raise ConfigurationError("workers must be >= 1")
        n_workers = min(n_workers, len(queries))
        if n_workers <= 1:
            return self._batch_inline(queries)
        telemetry = self.telemetry
        bounds = np.linspace(0, len(queries), n_workers + 1).astype(int).tolist()
        jobs = [
            (
                w,
                queries[lo:hi],
                telemetry.worker_copy(sample_offset=lo, shard=w)
                if telemetry.enabled else None,
            )
            for w, (lo, hi) in enumerate(zip(bounds, bounds[1:]))
        ]
        names = [f"serve worker {w}" for w in range(n_workers)]
        # Kept pickled until the pool is done: the watch loop only reads
        # bytes, so no shipment can hold up the view of another worker.
        shipments: list[list[bytes]] = [[] for _ in range(n_workers)]
        heard: dict[int, float] = {}

        def receive(msg: tuple) -> None:
            shipments[msg[1]].append(msg[2])
            heard[msg[1]] = time.monotonic()

        def watch(pending: set[int], now: float) -> None:
            for w in sorted(pending):
                if now - heard.setdefault(w, now) > PROGRESS_DEADLINE_S:
                    raise MeasurementError(
                        f"{names[w]} exceeded the {PROGRESS_DEADLINE_S:.1f}s deadline "
                        f"between answers ({len(shipments[w])} shipments in)"
                    )

        results = run_pool(
            jobs, names, self._answer_slice, on_message=receive, watch=watch
        )
        if telemetry.enabled:
            for w, (_, snap) in enumerate(results):
                telemetry.merge_snapshot(snap, shard=w)
            telemetry._sync_counters()
        return [
            answer
            for payloads, (rest, _) in zip(shipments, results)
            for answers in (*map(pickle.loads, payloads), rest)
            for answer in answers
        ]

    def _answer_slice(
        self, job: tuple[int, list, ServeTelemetry | None], _: Any, send: Callable
    ) -> tuple[list[dict[str, Any]], dict[str, Any] | None]:
        """One :meth:`batch` worker: its contiguous slice, answered through
        its own recorder (built pre-fork by the parent, slice-offset
        sampling wired in) when telemetry is live, shipped home pickled
        at least every :data:`SHIP_EVERY_S` as ``("answers", worker,
        bytes)``; the rest and the recorder's snapshot are the result."""
        w, queries, telemetry = job
        server = QueryServer(self.index, telemetry=telemetry or self.telemetry)
        out: list[dict[str, Any]] = []
        due = time.monotonic() + SHIP_EVERY_S
        for query in queries:
            out.append(server.query(query))
            if time.monotonic() >= due:
                send(("answers", w, pickle.dumps(out, pickle.HIGHEST_PROTOCOL)))
                out, due = [], time.monotonic() + SHIP_EVERY_S
        return out, None if telemetry is None else telemetry.snapshot()

    def _batch_inline(self, queries: list[dict[str, Any]]) -> list[dict[str, Any]]:
        """Answer in-process; sync tallies so the registry state after
        an inline batch matches a forked one exactly."""
        out = [self.query(q) for q in queries]
        if self.telemetry.enabled:
            self.telemetry._sync_counters()
        return out
