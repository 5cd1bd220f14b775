"""Metrics: counters, gauges, and millisecond-bucketed histograms.

A :class:`MetricsRegistry` is a flat, name-keyed store that the
measurement stack writes into as it works: the simulator counts events
and heap compactions, the onion proxy counts circuits and times their
builds, the echo client histograms probe RTTs, campaigns categorize
failures. Benchmarks and the ``repro stats`` CLI read it back with
:meth:`MetricsRegistry.snapshot` and can assert on exact counter values
instead of only on timings.

The default everywhere is :data:`NULL_METRICS`, a no-op registry whose
mutators do nothing — instrumentation stays in the hot paths at zero
measurable cost until someone opts in (usually via
``MeasurementHost.enable_observability()``).
"""

from __future__ import annotations

import json
from bisect import bisect_left
from typing import Any

#: Default histogram bucket upper edges, in milliseconds. Chosen to span
#: everything the stack times: sub-ms forwarding delays up through the
#: 600 s probe deadline. Values above the last edge land in "+Inf".
DEFAULT_BUCKET_EDGES_MS: tuple[float, ...] = (
    0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 200.0, 500.0,
    1_000.0, 2_000.0, 5_000.0, 10_000.0, 30_000.0, 60_000.0, 600_000.0,
)

#: Microsecond-resolution bucket edges (still in milliseconds), a 1-2-5
#: exponential ladder from 1 µs to 100 ms plus a 1 s tail. The serve
#: layer answers point queries in single-digit microseconds — under the
#: default ms edges every serve latency lands in the first bucket and
#: ``quantile()`` interpolation degenerates to guessing inside one
#: bucket. These edges keep the interpolation error under a factor of
#: ~2.5 anywhere in the µs-to-ms range.
MICRO_BUCKET_EDGES_MS: tuple[float, ...] = (
    0.001, 0.002, 0.005, 0.01, 0.02, 0.05, 0.1, 0.2, 0.5,
    1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 1_000.0,
)


class Histogram:
    """A fixed-bucket histogram over millisecond observations.

    Histograms from different processes can be combined with
    :meth:`merge` as long as they share bucket edges — shard workers
    histogram into the default edges, so campaign-wide latency
    distributions survive the fork boundary.
    """

    __slots__ = ("edges", "bucket_counts", "count", "total", "min", "max")

    def __init__(self, edges: tuple[float, ...] = DEFAULT_BUCKET_EDGES_MS) -> None:
        self.edges = tuple(edges)
        self.bucket_counts = [0] * (len(self.edges) + 1)  # last = +Inf
        self.count = 0
        self.total = 0.0
        self.min: float | None = None
        self.max: float | None = None

    def observe(self, value_ms: float) -> None:
        """Record one observation."""
        self.bucket_counts[bisect_left(self.edges, value_ms)] += 1
        self.count += 1
        self.total += value_ms
        if self.min is None or value_ms < self.min:
            self.min = value_ms
        if self.max is None or value_ms > self.max:
            self.max = value_ms

    @property
    def mean(self) -> float:
        """Mean of all observations (0.0 when empty)."""
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Approximate quantile, linearly interpolated within its bucket.

        The rank is located in a bucket by cumulative count and the
        value interpolated between the bucket's bounds — the Prometheus
        ``histogram_quantile`` estimate — rather than snapping to the
        upper edge (which over-reports by up to a full bucket width at
        these exponential edges). The containing bucket's bounds are
        tightened by the observed ``min``/``max``, so a single-valued
        histogram reports that value exactly and q=1.0 is always the
        true maximum.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if self.count == 0:
            return 0.0
        rank = q * self.count
        seen = 0
        for index, bucket in enumerate(self.bucket_counts):
            if not bucket:
                continue
            if seen + bucket >= rank:
                lower = self.edges[index - 1] if index > 0 else 0.0
                upper = (
                    self.edges[index]
                    if index < len(self.edges)
                    else (self.max if self.max is not None else lower)
                )
                if self.min is not None:
                    lower = max(lower, min(self.min, upper))
                if self.max is not None:
                    upper = min(upper, self.max)
                fraction = (rank - seen) / bucket
                return lower + (upper - lower) * max(0.0, min(1.0, fraction))
            seen += bucket
        return self.max if self.max is not None else 0.0

    def quantiles(
        self, qs: tuple[float, ...] = (0.5, 0.95, 0.99)
    ) -> dict[str, float]:
        """Interpolated quantiles keyed ``p50``-style, for reports."""
        return {f"p{q * 100:g}": self.quantile(q) for q in qs}

    def snapshot(self) -> dict[str, Any]:
        """A JSON-ready view of the histogram state.

        Non-default bucket edges ride along under ``"edges"`` so a
        snapshot shipped across the fork boundary (or to disk) rebuilds
        with the same resolution it was recorded at — a µs-bucketed
        serve histogram must never silently widen to ms buckets on
        :meth:`from_snapshot`.
        """
        buckets: dict[str, int] = {}
        for edge, bucket in zip(self.edges, self.bucket_counts):
            if bucket:
                buckets[f"le_{edge:g}"] = bucket
        if self.bucket_counts[-1]:
            buckets["inf"] = self.bucket_counts[-1]
        state: dict[str, Any] = {
            "count": self.count,
            "sum": self.total,
            "min": self.min,
            "max": self.max,
            "buckets": buckets,
        }
        if self.edges != DEFAULT_BUCKET_EDGES_MS:
            state["edges"] = list(self.edges)
        return state

    @classmethod
    def from_snapshot(cls, data: dict[str, Any]) -> "Histogram":
        """Rebuild a histogram from :meth:`snapshot` output, at the
        edges embedded in it (the default ones when it names none)."""
        edges = data.get("edges", DEFAULT_BUCKET_EDGES_MS)
        histogram = cls(tuple(float(e) for e in edges))
        histogram.count = int(data["count"])
        histogram.total = float(data["sum"])
        histogram.min = data["min"]
        histogram.max = data["max"]
        by_label = dict(data.get("buckets", {}))
        for index, edge in enumerate(histogram.edges):
            histogram.bucket_counts[index] = int(by_label.get(f"le_{edge:g}", 0))
        histogram.bucket_counts[-1] = int(by_label.get("inf", 0))
        return histogram

    def merge(self, other: "Histogram") -> "Histogram":
        """Fold ``other`` into this histogram (bucket-sum semantics).

        Associative and commutative up to float addition of ``total``,
        so shard results can be merged in any order. Returns ``self``.
        """
        if self.edges != other.edges:
            raise ValueError(
                f"cannot merge histograms with different edges: "
                f"{len(self.edges)} vs {len(other.edges)} buckets"
            )
        for index, count in enumerate(other.bucket_counts):
            self.bucket_counts[index] += count
        self.count += other.count
        self.total += other.total
        if other.min is not None and (self.min is None or other.min < self.min):
            self.min = other.min
        if other.max is not None and (self.max is None or other.max > self.max):
            self.max = other.max
        return self

    def __repr__(self) -> str:
        return f"Histogram(count={self.count}, mean={self.mean:.3f}ms)"


class MetricsRegistry:
    """Name-keyed counters, gauges, and histograms.

    Names are dotted strings (``"tor.circuits_built"``); metrics are
    created on first write, so instrumented code never declares anything
    up front. Reads of unknown names return zero/``None`` rather than
    raising — a snapshot consumer should not crash because a code path
    never ran.
    """

    #: Whether writes are recorded; hot paths may branch on this to skip
    #: building event payloads when observability is off.
    enabled = True

    __slots__ = ("_counters", "_gauges", "_histograms")

    def __init__(self) -> None:
        self._counters: dict[str, int] = {}
        self._gauges: dict[str, float] = {}
        self._histograms: dict[str, Histogram] = {}

    # -- writes --------------------------------------------------------

    def inc(self, name: str, amount: int = 1) -> None:
        """Add ``amount`` to a counter (created at zero)."""
        self._counters[name] = self._counters.get(name, 0) + amount

    def set_gauge(self, name: str, value: float) -> None:
        """Set a gauge to ``value``."""
        self._gauges[name] = float(value)

    def max_gauge(self, name: str, value: float) -> None:
        """Raise a gauge to ``value`` if it is a new maximum."""
        current = self._gauges.get(name)
        if current is None or value > current:
            self._gauges[name] = float(value)

    def observe(self, name: str, value_ms: float) -> None:
        """Record ``value_ms`` into a histogram (created on first use)."""
        histogram = self._histograms.get(name)
        if histogram is None:
            histogram = self._histograms[name] = Histogram()
        histogram.observe(value_ms)

    def ensure_histogram(
        self, name: str, edges: tuple[float, ...] = DEFAULT_BUCKET_EDGES_MS
    ) -> Histogram:
        """The named histogram, created with ``edges`` if absent.

        Returns the *live* object so hot paths can hold it and call
        ``observe`` directly, skipping the per-observation name lookup —
        the serve telemetry caches one histogram per query op this way.
        ``edges`` only applies at creation; an existing histogram keeps
        its own buckets.
        """
        histogram = self._histograms.get(name)
        if histogram is None:
            histogram = self._histograms[name] = Histogram(edges)
        return histogram

    def reset(self) -> None:
        """Drop every metric."""
        self._counters.clear()
        self._gauges.clear()
        self._histograms.clear()

    # -- reads ---------------------------------------------------------

    def counter(self, name: str) -> int:
        """Current counter value (0 if never incremented)."""
        return self._counters.get(name, 0)

    def gauge(self, name: str) -> float | None:
        """Current gauge value (``None`` if never set)."""
        return self._gauges.get(name)

    def histogram(self, name: str) -> Histogram | None:
        """The named histogram (``None`` if never observed)."""
        return self._histograms.get(name)

    def snapshot(self) -> dict[str, Any]:
        """A JSON-serializable view of every metric."""
        return {
            "counters": dict(sorted(self._counters.items())),
            "gauges": dict(sorted(self._gauges.items())),
            "histograms": {
                name: histogram.snapshot()
                for name, histogram in sorted(self._histograms.items())
            },
        }

    def to_json(self, indent: int | None = None) -> str:
        """Serialize :meth:`snapshot` as JSON text."""
        return json.dumps(self.snapshot(), indent=indent)

    def to_prometheus(self, namespace: str = "ting") -> str:
        """Serialize :meth:`snapshot` as Prometheus text exposition."""
        return prometheus_exposition(self.snapshot(), namespace=namespace)

    @classmethod
    def from_snapshot(cls, data: dict[str, Any]) -> "MetricsRegistry":
        """Rebuild a live registry from :meth:`snapshot` output.

        Always returns a plain :class:`MetricsRegistry` — snapshots carry
        data, and data deserializes to a recording registry even when the
        classmethod is reached through :class:`NullMetricsRegistry`.
        """
        return MetricsRegistry().merge_snapshot(data)

    @classmethod
    def from_json(cls, text: str) -> "MetricsRegistry":
        """Rebuild a registry from :meth:`to_json` output."""
        return cls.from_snapshot(json.loads(text))

    def merge_snapshot(
        self, snap: dict[str, Any], shard: int | None = None
    ) -> "MetricsRegistry":
        """Fold one :meth:`snapshot` into this registry. Returns self.

        Shard-merge semantics, chosen so deterministic campaign counters
        are invariant to how the work was partitioned:

        * **counters sum** — ``pairs_attempted`` over four shards adds up
          to the unsharded count;
        * **gauges take the max** — peaks (``sim.heap_peak``,
          ``campaign.peak_concurrency``) are the only gauges that
          aggregate meaningfully across processes;
        * **histograms bucket-sum** (see :meth:`Histogram.merge`).

        The operation is associative and commutative (up to float
        addition of histogram sums), so any merge tree over shard results
        yields the same registry. Aggregates carry no rows, so ``shard``
        (part of the one sink protocol) has nothing to tag here.
        """
        for name, value in snap.get("counters", {}).items():
            self._counters[name] = self._counters.get(name, 0) + int(value)
        for name, value in snap.get("gauges", {}).items():
            self.max_gauge(name, value)
        for name, data in snap.get("histograms", {}).items():
            adopted = Histogram.from_snapshot(data)
            mine = self._histograms.get(name)
            if mine is None:
                self._histograms[name] = adopted
            else:
                mine.merge(adopted)
        return self

    def __repr__(self) -> str:
        return (
            f"MetricsRegistry(counters={len(self._counters)}, "
            f"gauges={len(self._gauges)}, histograms={len(self._histograms)})"
        )


class NullMetricsRegistry(MetricsRegistry):
    """A registry that records nothing: the zero-cost default.

    Construction is allocation-free (no backing dicts exist at all), so
    instantiating one in a hot path costs a bare object header. Reads
    return the same zero/``None``/empty answers a fresh live registry
    would; :meth:`snapshot` builds fresh dicts per call so no caller can
    mutate state shared with other holders of :data:`NULL_METRICS`, and
    :meth:`from_snapshot`/``from_json`` hand back a *live* registry (data
    deserializes to data) without touching the null singleton.
    """

    enabled = False

    __slots__ = ()

    def __init__(self) -> None:
        # Deliberately no super().__init__(): the null registry owns no
        # storage, which is what makes it safe as a process-wide default.
        pass

    def inc(self, name: str, amount: int = 1) -> None:
        pass

    def set_gauge(self, name: str, value: float) -> None:
        pass

    def max_gauge(self, name: str, value: float) -> None:
        pass

    def observe(self, name: str, value_ms: float) -> None:
        pass

    def ensure_histogram(
        self, name: str, edges: tuple[float, ...] = DEFAULT_BUCKET_EDGES_MS
    ) -> Histogram:
        """A fresh unstored histogram: callers may observe into it, but
        nothing is retained — the null registry stays allocation-free
        after construction and snapshot-empty forever."""
        return Histogram(edges)

    def reset(self) -> None:
        pass

    def merge_snapshot(
        self, snap: dict[str, Any], shard: int | None = None
    ) -> "MetricsRegistry":
        """Null sinks drop merged data exactly as they drop writes."""
        return self

    def counter(self, name: str) -> int:
        return 0

    def gauge(self, name: str) -> float | None:
        return None

    def histogram(self, name: str) -> Histogram | None:
        return None

    def snapshot(self) -> dict[str, Any]:
        return {"counters": {}, "gauges": {}, "histograms": {}}

    def __repr__(self) -> str:
        return "NullMetricsRegistry()"


#: The process-wide no-op registry; instrumented components default to it.
NULL_METRICS = NullMetricsRegistry()


def _prom_name(namespace: str, name: str) -> str:
    """Sanitize a dotted metric name into a Prometheus identifier."""
    cleaned = "".join(
        ch if ch.isalnum() or ch == "_" else "_" for ch in f"{namespace}_{name}"
    )
    if cleaned and cleaned[0].isdigit():
        cleaned = "_" + cleaned
    return cleaned


def prometheus_exposition(snapshot: dict[str, Any], namespace: str = "ting") -> str:
    """Render a :meth:`MetricsRegistry.snapshot` as Prometheus text format.

    Works on any registry snapshot — serve telemetry, campaign metrics,
    a snapshot loaded back from disk — so one scrape path serves them
    all. Mapping:

    * counters → ``<ns>_<name>_total`` (monotonic counter convention);
    * gauges → ``<ns>_<name>``;
    * histograms → the standard cumulative triplet:
      ``_bucket{le="..."}`` rows per edge plus ``le="+Inf"``, then
      ``_sum`` and ``_count``. Bucket counts are cumulative per the
      exposition format (our snapshots store per-bucket counts).

    Dots and other non-identifier characters become underscores; output
    ordering follows the snapshot's (sorted) ordering, so the text is
    deterministic for a given snapshot.
    """
    lines: list[str] = []
    for name, value in snapshot.get("counters", {}).items():
        metric = _prom_name(namespace, name) + "_total"
        lines.append(f"# TYPE {metric} counter")
        lines.append(f"{metric} {int(value)}")
    for name, value in snapshot.get("gauges", {}).items():
        metric = _prom_name(namespace, name)
        lines.append(f"# TYPE {metric} gauge")
        lines.append(f"{metric} {float(value):g}")
    for name, data in snapshot.get("histograms", {}).items():
        metric = _prom_name(namespace, name)
        lines.append(f"# TYPE {metric} histogram")
        edges = tuple(
            float(e) for e in data.get("edges", DEFAULT_BUCKET_EDGES_MS)
        )
        by_label = dict(data.get("buckets", {}))
        cumulative = 0
        for edge in edges:
            cumulative += int(by_label.get(f"le_{edge:g}", 0))
            lines.append(f'{metric}_bucket{{le="{edge:g}"}} {cumulative}')
        cumulative += int(by_label.get("inf", 0))
        lines.append(f'{metric}_bucket{{le="+Inf"}} {cumulative}')
        lines.append(f"{metric}_sum {float(data.get('sum', 0.0)):g}")
        lines.append(f"{metric}_count {int(data.get('count', 0))}")
    return "\n".join(lines) + "\n" if lines else ""
