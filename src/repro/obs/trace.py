"""Structured trace of typed measurement events.

Where :mod:`repro.obs.registry` aggregates, a :class:`TraceLog` keeps
the individual occurrences: which circuit was built when, which probe
run lost replies, which retry round started. The log is a bounded ring
buffer — long campaigns keep the most recent ``capacity`` events and
count what they dropped — and every event is JSON-serializable.

The default everywhere is :data:`NULL_TRACE`, which drops everything.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Iterator

if TYPE_CHECKING:  # circular-import-free type hint only
    from repro.obs.registry import MetricsRegistry

# Event kinds recorded by the measurement stack. Plain strings so
# downstream consumers can add their own without touching this module.
CIRCUIT_BUILT = "circuit_built"
CIRCUIT_FAILED = "circuit_failed"
STREAM_ATTACHED = "stream_attached"
STREAM_FAILED = "stream_failed"
PROBE_SENT = "probe_sent"
PROBE_LOST = "probe_lost"
RETRY_ROUND = "retry_round"
HEAP_COMPACTION = "heap_compaction"
PAIR_MEASURED = "pair_measured"
PAIR_FAILED = "pair_failed"


@dataclass(frozen=True, slots=True)
class TraceEvent:
    """One typed occurrence at a simulated instant."""

    time_ms: float
    kind: str
    fields: dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        """A JSON-ready view of the event."""
        return {"time_ms": self.time_ms, "kind": self.kind, **self.fields}


class TraceLog:
    """A bounded, append-only log of :class:`TraceEvent`.

    Logs from shard workers can be folded into one with :meth:`merge`,
    which tags every adopted event (``shard=<index>``) so per-worker
    provenance survives the merge.
    """

    #: Whether :meth:`record` keeps events; hot paths may branch on this.
    enabled = True

    __slots__ = ("capacity", "_events", "dropped")

    def __init__(self, capacity: int = 100_000) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._events: deque[TraceEvent] = deque(maxlen=capacity)
        self.dropped = 0

    def record(self, time_ms: float, kind: str, **fields: Any) -> None:
        """Append one event; the oldest is dropped when full."""
        if len(self._events) == self.capacity:
            self.dropped += 1
        self._events.append(TraceEvent(time_ms=time_ms, kind=kind, fields=fields))

    def events(self, kind: str | None = None) -> list[TraceEvent]:
        """All retained events, optionally filtered by kind."""
        if kind is None:
            return list(self._events)
        return [event for event in self._events if event.kind == kind]

    def count(self, kind: str) -> int:
        """How many retained events have the given kind."""
        return sum(1 for event in self._events if event.kind == kind)

    def clear(self) -> None:
        """Drop every retained event and the dropped count."""
        self._events.clear()
        self.dropped = 0

    def merge(self, other: "TraceLog", **extra: Any) -> "TraceLog":
        """Append ``other``'s retained events to this log. Returns self.

        ``extra`` fields are merged into every adopted event — shard
        merges pass ``shard=<index>`` so a fused log still says which
        worker saw what. ``other``'s eviction losses carry over into
        this log's ``dropped`` count (an event silently evicted in a
        worker stays counted as lost after the merge).
        """
        for event in other._events:
            fields = {**event.fields, **extra} if extra else dict(event.fields)
            self.record(event.time_ms, event.kind, **fields)
        self.dropped += other.dropped
        return self

    def snapshot(self) -> dict[str, Any]:
        """A JSON-ready view: retained events plus the eviction count.

        ``dropped`` is first-class in exports — a consumer must be able
        to tell "quiet campaign" from "ring buffer silently ate 40k
        events" without holding the live object.
        """
        return {
            "dropped": self.dropped,
            "events": [event.to_dict() for event in self._events],
        }

    def to_json(self, indent: int | None = None) -> str:
        """Serialize :meth:`snapshot` — events *and* the dropped count."""
        return json.dumps(self.snapshot(), indent=indent)

    @classmethod
    def from_json(cls, text: str, capacity: int = 100_000) -> "TraceLog":
        """Rebuild a log from :meth:`to_json` output.

        Round-trips the ``dropped`` count. The pre-dropped-count format
        (a bare JSON array of events) is still accepted.
        """
        data = json.loads(text)
        if isinstance(data, list):  # legacy bare-array export
            entries, dropped = data, 0
        else:
            entries, dropped = data.get("events", []), int(data.get("dropped", 0))
        log = TraceLog(capacity=capacity)
        for entry in entries:
            entry = dict(entry)
            time_ms = entry.pop("time_ms")
            kind = entry.pop("kind")
            log.record(time_ms, kind, **entry)
        log.dropped += dropped
        return log

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(self._events)

    def __repr__(self) -> str:
        return f"TraceLog({len(self._events)}/{self.capacity} events, dropped={self.dropped})"


class NullTraceLog(TraceLog):
    """A trace log that drops everything: the zero-cost default.

    Allocation-free to construct — no ring buffer exists — and immune to
    shared-state mutation: every read returns a fresh or immutable empty
    value, ``from_json`` rebuilds a *live* log (data deserializes to
    data) without touching the singleton, and ``merge`` discards its
    argument the same way ``record`` discards events.
    """

    enabled = False

    __slots__ = ()

    #: Class-level constants shadow the parent's slots: null logs hold
    #: nothing, so these never change and no instance storage exists.
    capacity = 0
    dropped = 0

    def __init__(self, capacity: int = 0) -> None:
        pass

    def record(self, time_ms: float, kind: str, **fields: Any) -> None:
        pass

    def clear(self) -> None:
        pass

    def merge(self, other: TraceLog, **extra: Any) -> "TraceLog":
        return self

    def events(self, kind: str | None = None) -> list[TraceEvent]:
        return []

    def count(self, kind: str) -> int:
        return 0

    def snapshot(self) -> dict[str, Any]:
        return {"dropped": 0, "events": []}

    def __len__(self) -> int:
        return 0

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(())

    def __repr__(self) -> str:
        return "NullTraceLog()"


#: The process-wide no-op trace log; instrumented components default to it.
NULL_TRACE = NullTraceLog()


def categorize_failure(reason: str, metrics: "MetricsRegistry | None" = None) -> str:
    """Bucket a free-text failure reason into a stable category.

    Campaigns count failures by category (``campaign.failures.<cat>``)
    so operators can tell relay churn (circuit builds) from probe loss
    at a glance instead of diffing reason strings.

    ``shard`` covers worker-level failures from the multiprocess
    campaign path (a worker that could not rebuild its testbed, or died
    mid-shard) — distinct from anything a measurement circuit can do.

    A reason that matches no known bucket lands in ``other`` *and*, when
    a live ``metrics`` registry is passed, bumps ``trace.uncategorized``
    — so a new failure string shows up as a counter an operator can
    alarm on instead of silently vanishing into the catch-all.
    """
    lowered = reason.lower()
    # Watchdog trips mention the shard too — match stall keywords first
    # so a wedged worker is not misfiled under generic worker failures.
    if "stalled" in lowered or "watchdog" in lowered or "heartbeat" in lowered:
        return "stall"
    if "shard" in lowered or "worker" in lowered or "factory-built" in lowered:
        return "shard"
    if "leg failed" in lowered:
        return "leg"
    if "circuit" in lowered and ("build" in lowered or "could not build" in lowered):
        return "circuit_build"
    if "truncate" in lowered or "surgery" in lowered:
        return "circuit_reuse"
    if "stream" in lowered:
        return "stream"
    if "deadline" in lowered or "zero replies" in lowered or "timed out" in lowered:
        return "probe_timeout"
    if metrics is not None and metrics.enabled:
        metrics.inc("trace.uncategorized")
    return "other"
