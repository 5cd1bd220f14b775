"""Query-layer telemetry: per-op latency, error taxonomy, access log.

PR 9 made ``repro.serve`` fast; this module makes it *observable*. A
:class:`ServeTelemetry` bundles the three obs primitives the rest of
the stack already uses, specialized for the query hot path:

* **per-op latency histograms** — one µs-bucketed
  :class:`~repro.obs.registry.Histogram` per query op (the default ms
  edges would flatten 3 µs point lookups into a single bucket), held
  live so recording skips the name lookup;
* **QPS / error counters** keyed by a *stable* error taxonomy
  (:data:`SERVE_ERROR_TAXONOMY`): ``unknown_op`` (bad dispatch),
  ``unknown_node`` (client named a node the index lacks), ``bad_arg``
  (malformed arguments), ``internal`` (everything else — including
  bugs, which must never poison a batch). Only ops in
  :data:`QUERY_OPS` get their own metrics: attacker-controlled op
  strings bump taxonomy counters, never mint new metric names, so
  cardinality stays bounded;
* **a bounded structured access log** — slow queries (latency over the
  ``slow_ms`` threshold) and every error are emitted on an
  :class:`~repro.obs.events.EventBus` under the ``serve`` category, so
  the flight-recorder ring, severity counts, and sinks all come for
  free;
* **1-in-N sampled per-query spans** joined to a
  :class:`~repro.obs.spans.SpanTracer` for Perfetto export. Sampling
  is keyed to the query's *position in the batch*, not the worker that
  happened to answer it, so the sampled set is invariant to the
  ``batch()`` fan-out.

Fork discipline matches PRs 3/5/6: workers record into their own
telemetry, ship :meth:`snapshot` home with their answer slice, and the
parent folds them in worker order with :meth:`merge_snapshot` —
counters and histogram buckets merge exactly, so totals are invariant
to the worker count.

The default is :data:`NULL_SERVE_TELEMETRY`, mirroring
:data:`~repro.obs.spans.NULL_SPANS`: allocation-free, ``enabled`` is
``False``, and the query hot path pays one attribute check.
"""

from __future__ import annotations

import time
from typing import Any, Callable

from repro.obs.events import ERROR, WARNING, EventBus, NullEventBus
from repro.obs.registry import (
    MICRO_BUCKET_EDGES_MS,
    Histogram,
    MetricsRegistry,
    NullMetricsRegistry,
    prometheus_exposition,
)
from repro.obs.spans import NullSpanTracer, SpanTracer
from repro.serve.index import UnknownNodeError
from repro.util.errors import ConfigurationError

#: Query ``op`` values the server dispatches (re-exported by
#: ``repro.serve.server``). Lives here so the telemetry can premint
#: exactly one histogram per legitimate op without importing the server
#: (which imports this module).
QUERY_OPS = ("point", "knn", "percentile", "rank", "path", "via")

#: The stable error-category vocabulary. Counter names are
#: ``serve.errors.<category>``; answer dicts carry the category under
#: ``"category"``. Extend by appending — consumers key dashboards off
#: these strings.
SERVE_ERROR_TAXONOMY = ("unknown_op", "unknown_node", "bad_arg", "internal")


#: The obs sinks a recorder bundles — its snapshot key and its attribute
#: — each crossing the fork boundary by the one sink protocol.
_SINKS = (("metrics", "registry"), ("events", "bus"), ("spans", "spans"))


class UnknownOpError(ConfigurationError):
    """A query asked for an op outside :data:`QUERY_OPS`."""


def classify_error(exc: BaseException) -> str:
    """Map an exception from query dispatch onto the taxonomy.

    Order matters: the specific serve errors first, then the argument
    shape of the wire format (missing keys are ``KeyError``, wrong
    types ``TypeError``/``ValueError``, range checks
    ``ConfigurationError``), then the catch-all. ``internal`` is the
    bucket an alert should page on — it includes genuine bugs and data
    states like "no measured neighbors" that the client didn't cause.
    """
    if isinstance(exc, UnknownOpError):
        return "unknown_op"
    if isinstance(exc, UnknownNodeError):
        return "unknown_node"
    if isinstance(exc, (ConfigurationError, KeyError, TypeError, ValueError)):
        return "bad_arg"
    return "internal"


class ServeTelemetry:
    """Everything the query layer records, bundled and mergeable.

    ``slow_ms`` is the access-log threshold (queries at or above it are
    ringed as ``serve.slow_query``); ``sample_every`` keeps one span
    per N queries (0 disables spans); ``timer`` is the latency clock —
    injectable so invariance tests can drive a deterministic fake.
    """

    enabled = True

    __slots__ = ("registry", "bus", "spans", "slow_ms", "sample_every",
                 "timer", "shard", "_sample_offset", "_seen", "_hists")

    def __init__(
        self,
        slow_ms: float = 1.0,
        sample_every: int = 100,
        capacity: int = 256,
        timer: Callable[[], float] | None = None,
        shard: int = 0,
        sample_offset: int = 0,
    ) -> None:
        if slow_ms < 0:
            raise ConfigurationError("slow_ms must be >= 0")
        if sample_every < 0:
            raise ConfigurationError("sample_every must be >= 0")
        self.registry = MetricsRegistry()
        self.bus = EventBus(capacity=capacity, shard=shard)
        self.spans = SpanTracer(shard=shard)
        self.slow_ms = float(slow_ms)
        self.sample_every = int(sample_every)
        self.timer = timer if timer is not None else time.perf_counter
        self.shard = shard
        #: Global index of this recorder's first query — a forked worker
        #: answering ``queries[lo:hi]`` starts ``lo`` past its parent's
        #: position (:meth:`worker_copy`) so the 1-in-N span sample
        #: lands on the same queries for any fan-out.
        self._sample_offset = int(sample_offset)
        self._seen = 0
        # Premint one µs histogram per legitimate op: bounded
        # cardinality, and the hot path dict-gets a live Histogram.
        self._hists: dict[str, Histogram] = {
            op: self.registry.ensure_histogram(
                f"serve.latency_ms.{op}", MICRO_BUCKET_EDGES_MS
            )
            for op in QUERY_OPS
        }

    # ------------------------------------------------------------------
    # Recording (the hot path)

    def record(
        self,
        op: Any,
        start_s: float,
        end_s: float,
        category: str | None = None,
        detail: str | None = None,
    ) -> None:
        """Record one answered query.

        ``category`` is ``None`` for a success, else a taxonomy string;
        ``detail`` (the error text) rides into the access-log event.

        The success path is deliberately counter-free: per-op counts
        live in the histograms (``Histogram.count``) and the query
        total derives from ``_seen``, synced into the registry lazily
        by :meth:`_sync_counters` — a dict-keyed ``inc`` per query
        would roughly double the telemetry cost of a point lookup.
        """
        dur_ms = (end_s - start_s) * 1000.0
        hist = self._hists.get(op)
        if hist is not None:
            hist.observe(dur_ms)
        if category is not None:
            registry = self.registry
            registry.inc("serve.errors")
            registry.inc(f"serve.errors.{category}")
            self.bus.emit(
                ERROR, "serve", "query_error",
                op=str(op), taxonomy=category, dur_ms=dur_ms,
                error=detail if detail is not None else "",
            )
        elif dur_ms >= self.slow_ms:
            self.registry.inc("serve.slow_queries")
            self.bus.emit(
                WARNING, "serve", "slow_query",
                op=str(op), dur_ms=dur_ms, threshold_ms=self.slow_ms,
            )
        index = self._sample_offset + self._seen
        self._seen += 1
        if self.sample_every and index % self.sample_every == 0:
            # Synthesized record, not begin()/end(): the query already
            # happened, and merge_snapshot() adopts raw record dicts.
            self.spans.merge_snapshot([{
                "name": "serve.query",
                "start_ms": start_s * 1000.0,
                "dur_ms": dur_ms,
                "track": 0,
                "shard": self.shard,
                "args": {"op": str(op), "sample_index": index},
            }])

    # ------------------------------------------------------------------
    # Fork boundary

    def worker_copy(self, sample_offset: int = 0, shard: int = 0) -> "ServeTelemetry":
        """A fresh same-config recorder for one forked batch worker.

        Built in the parent *before* the fork (so fake timers and other
        injected callables ride the fork, never a pickle).
        ``sample_offset`` is the worker's slice start within the batch;
        the span sampler continues from this recorder's own position,
        so every batch samples the queries an inline run would.
        """
        return ServeTelemetry(
            slow_ms=self.slow_ms,
            sample_every=self.sample_every,
            capacity=self.bus.recorder.capacity,
            timer=self.timer,
            shard=shard,
            sample_offset=self._sample_offset + self._seen + sample_offset,
        )

    def _sync_counters(self) -> None:
        """Materialize the hot-path tallies into registry counters.

        ``record()`` keeps the query total in ``_seen`` (a plain int
        bump) instead of a dict-keyed ``inc`` per query; every read path
        (:meth:`snapshot`, :meth:`summary`, :meth:`to_prometheus`) calls
        this first so ``serve.queries`` is exact. Written as a delta so
        it is idempotent and safe after :meth:`merge_snapshot` (which
        sums both the counter and ``seen``).
        """
        delta = self._seen - self.registry.counter("serve.queries")
        if delta:
            self.registry.inc("serve.queries", delta)

    def snapshot(self) -> dict[str, Any]:
        """A picklable, JSON-ready view of everything recorded."""
        self._sync_counters()
        snap = {key: getattr(self, attr).snapshot() for key, attr in _SINKS}
        snap["seen"] = self._seen
        return snap

    def merge_snapshot(
        self, snap: dict[str, Any], shard: int | None = None
    ) -> "ServeTelemetry":
        """Fold one worker's :meth:`snapshot` into this recorder.

        Counters sum, histogram buckets sum (exact integer merges), bus
        counts sum with ring adoption, spans are adopted retagged with
        ``shard``. Associative and commutative up to float addition of
        histogram sums — the parent merges in worker order so even the
        float paths are deterministic for a given fan-out.
        """
        for key, attr in _SINKS:
            getattr(self, attr).merge_snapshot(snap[key], shard=shard)
        self._seen += int(snap.get("seen", 0))
        return self

    # ------------------------------------------------------------------
    # Reads

    def summary(self) -> dict[str, Any]:
        """The ``repro serve --stats`` view: totals, taxonomy, per-op
        latency quantiles (ms), and access-log volume."""
        self._sync_counters()
        registry = self.registry
        per_op: dict[str, dict[str, Any]] = {}
        for op, hist in self._hists.items():
            if not hist.count:
                continue
            per_op[op] = {
                "count": hist.count,
                "p50_ms": hist.quantile(0.5),
                "p99_ms": hist.quantile(0.99),
                "mean_ms": hist.mean,
                "max_ms": hist.max,
            }
        errors = {
            category: count
            for category in SERVE_ERROR_TAXONOMY
            if (count := registry.counter(f"serve.errors.{category}"))
        }
        return {
            "queries": registry.counter("serve.queries"),
            "errors": registry.counter("serve.errors"),
            "errors_by_category": errors,
            "slow_queries": registry.counter("serve.slow_queries"),
            "slow_ms": self.slow_ms,
            "sampled_spans": len(self.spans),
            "access_log_events": self.bus.emitted,
            "per_op": per_op,
        }

    def access_log(self) -> list[dict[str, Any]]:
        """The retained access-log ring (slow queries + errors),
        oldest first."""
        return self.bus.events(category="serve")

    def to_prometheus(self, namespace: str = "ting") -> str:
        """Prometheus text exposition of the counters and histograms."""
        self._sync_counters()
        return prometheus_exposition(self.registry.snapshot(), namespace=namespace)

    def __repr__(self) -> str:
        return (
            f"ServeTelemetry(queries={self._seen}, "
            f"errors={self.registry.counter('serve.errors')}, "
            f"spans={len(self.spans)})"
        )


class NullServeTelemetry(ServeTelemetry):
    """Telemetry that records nothing: the zero-cost default.

    Construction is allocation-free; the query path pays exactly one
    ``enabled`` check. The null obs singletons shadow the parent's
    slots so accidental reads stay safe and stateless.
    """

    enabled = False

    __slots__ = ()

    registry = NullMetricsRegistry()
    bus = NullEventBus()
    spans = NullSpanTracer()
    slow_ms = 0.0
    sample_every = 0
    timer = staticmethod(time.perf_counter)
    shard = 0
    _sample_offset = 0
    _seen = 0
    _hists: dict[str, Histogram] = {}

    def __init__(self) -> None:
        pass

    def record(
        self,
        op: Any,
        start_s: float,
        end_s: float,
        category: str | None = None,
        detail: str | None = None,
    ) -> None:
        pass

    def worker_copy(self, sample_offset: int = 0, shard: int = 0) -> ServeTelemetry:
        return self

    def merge_snapshot(
        self, snap: dict[str, Any], shard: int | None = None
    ) -> ServeTelemetry:
        return self

    def __repr__(self) -> str:
        return "NullServeTelemetry()"


#: The process-wide no-op serve telemetry; :class:`QueryServer` defaults
#: to it.
NULL_SERVE_TELEMETRY = NullServeTelemetry()
