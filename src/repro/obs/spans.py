"""Hierarchical sim-time span tracing with Perfetto export.

Where :class:`~repro.obs.registry.MetricsRegistry` aggregates and
:class:`~repro.obs.events.EventBus` keeps point events, a
:class:`SpanTracer` records *intervals*: how long each campaign, pair
task, leg measurement, circuit build, and probe round occupied simulated
time, and how they nest. The span hierarchy mirrors the measurement
stack::

    campaign
    └── pair (x, y)                └── leg (relay)
        ├── circuit_build              ├── circuit_build
        └── probe_round                └── probe_round

Spans are recorded against the *simulated* clock — a tracer is handed a
``clock`` callable (usually ``lambda: sim.now``) — so exported traces
show where campaign makespan went, not Python interpreter time.

Two recording styles:

* ``with spans.span("pair", x=..., y=...):`` for synchronous code; the
  tracer keeps a stack, so nested ``span()`` calls become children of
  the innermost open span (same Perfetto track).
* ``handle = spans.begin("pair", ...)`` / ``handle.end()`` for
  callback-driven code, where a task's start and finish live in
  different stack frames. Concurrent root spans each get their own
  track so overlapping intervals never collide in the viewer; children
  pass ``parent=handle`` to ride their parent's track.

:meth:`SpanTracer.to_chrome_trace` exports the Chrome trace-event JSON
object format (``{"traceEvents": [...]}``, complete events, ``ts``/
``dur`` in microseconds) which https://ui.perfetto.dev loads directly.

The default everywhere is :data:`NULL_SPANS`, whose ``span``/``begin``
hand back one shared, stateless no-op handle — recording costs nothing
until someone opts in.
"""

from __future__ import annotations

import heapq
import json
from pathlib import Path
from typing import Any, Callable

#: Span names used by the measurement stack, root to leaf. Plain strings
#: so downstream consumers can add their own without touching this module.
CAMPAIGN_SPAN = "campaign"
PAIR_SPAN = "pair"
LEG_SPAN = "leg"
CIRCUIT_BUILD_SPAN = "circuit_build"
PROBE_ROUND_SPAN = "probe_round"


class SpanHandle:
    """One open span; context-manageable and explicitly endable."""

    __slots__ = ("_tracer", "name", "args", "start_ms", "track", "_owns_track", "_open")

    def __init__(
        self,
        tracer: "SpanTracer",
        name: str,
        args: dict[str, Any],
        start_ms: float,
        track: int,
        owns_track: bool,
    ) -> None:
        self._tracer = tracer
        self.name = name
        self.args = args
        self.start_ms = start_ms
        self.track = track
        self._owns_track = owns_track
        self._open = True

    def end(self) -> None:
        """Close the span, recording its duration. Idempotent."""
        if not self._open:
            return
        self._open = False
        self._tracer._finish(self)

    def __enter__(self) -> "SpanHandle":
        return self

    def __exit__(self, *exc: object) -> None:
        self.end()
        if self._tracer._stack and self._tracer._stack[-1] is self:
            self._tracer._stack.pop()


class SpanTracer:
    """Records completed spans against a simulated-time clock.

    ``clock`` supplies the current time in milliseconds; ``shard`` tags
    every span with the worker that recorded it (0 for single-process
    runs). Finished spans are plain dicts — picklable across the fork
    boundary and mergeable in any order with :meth:`merge_snapshot`.
    """

    #: Whether spans are kept; hot paths may branch on this.
    enabled = True

    __slots__ = ("_clock", "shard", "_records", "_stack", "_free_tracks", "_next_track")

    def __init__(
        self,
        clock: Callable[[], float] | None = None,
        shard: int = 0,
    ) -> None:
        self._clock = clock if clock is not None else (lambda: 0.0)
        self.shard = shard
        #: Finished spans: {"name", "start_ms", "dur_ms", "track",
        #: "shard"} plus "args" when non-empty.
        self._records: list[dict[str, Any]] = []
        self._stack: list[SpanHandle] = []
        self._free_tracks: list[int] = []  # min-heap of released track ids
        self._next_track = 0

    # -- recording -----------------------------------------------------

    def span(self, name: str, **args: Any) -> SpanHandle:
        """Open a synchronous span: ``with spans.span("pair", x=...):``.

        Nested calls become children of the innermost open ``span()``
        (they share its track, so the viewer renders a flame).
        """
        if self._stack:
            track, owns = self._stack[-1].track, False
        else:
            track, owns = self._alloc_track(), True
        handle = SpanHandle(self, name, args, self._clock(), track, owns)
        self._stack.append(handle)
        return handle

    def begin(
        self, name: str, parent: SpanHandle | None = None, **args: Any
    ) -> SpanHandle:
        """Open an asynchronous span; close it later with ``.end()``.

        Without a ``parent`` the span is a root task and gets its own
        track (concurrent tasks render side by side, never stacked
        wrongly); with one it shares the parent's track as a child.
        """
        if parent is not None:
            track, owns = parent.track, False
        else:
            track, owns = self._alloc_track(), True
        return SpanHandle(self, name, args, self._clock(), track, owns)

    def _alloc_track(self) -> int:
        if self._free_tracks:
            return heapq.heappop(self._free_tracks)
        track = self._next_track
        self._next_track += 1
        return track

    def _finish(self, handle: SpanHandle) -> None:
        record: dict[str, Any] = {
            "name": handle.name,
            "start_ms": handle.start_ms,
            "dur_ms": max(0.0, self._clock() - handle.start_ms),
            "track": handle.track,
            "shard": self.shard,
        }
        if handle.args:
            record["args"] = handle.args
        self._records.append(record)
        if handle._owns_track:
            heapq.heappush(self._free_tracks, handle.track)

    # -- reads & merging ----------------------------------------------

    def records(self) -> list[dict[str, Any]]:
        """All finished spans, in completion order (picklable dicts)."""
        return list(self._records)

    def count(self, name: str | None = None) -> int:
        """How many finished spans (optionally of one name) exist."""
        if name is None:
            return len(self._records)
        return sum(1 for record in self._records if record["name"] == name)

    def durations_ms(self, name: str) -> list[float]:
        """Durations of every finished span with the given name."""
        return [r["dur_ms"] for r in self._records if r["name"] == name]

    def snapshot(self) -> list[dict[str, Any]]:
        """What crosses the fork boundary: the finished-span records."""
        return self.records()

    def merge_snapshot(
        self, snap: list[dict[str, Any]], shard: int | None = None
    ) -> "SpanTracer":
        """Adopt the finished spans of one :meth:`snapshot`. Returns self.

        ``shard`` retags the adopted spans — the parent of a sharded
        campaign merges worker snapshots with ``shard=<index>`` so a fused
        trace still shows which process ran what (workers all record
        shard 0 locally). Merge order only affects record order, never
        content.
        """
        for record in snap:
            adopted = dict(record)
            if shard is not None:
                adopted["shard"] = shard
            self._records.append(adopted)
        return self

    # -- export --------------------------------------------------------

    def to_chrome_trace(self) -> dict[str, Any]:
        """The Chrome trace-event JSON object format (Perfetto-loadable).

        Every span becomes a complete event (``"ph": "X"``) with ``ts``
        and ``dur`` in microseconds; the shard index maps to ``pid`` and
        the track to ``tid``, so Perfetto shows one process group per
        worker with concurrent tasks on separate rows.
        """
        events = []
        for record in self._records:
            events.append(
                {
                    "name": record["name"],
                    "cat": "ting",
                    "ph": "X",
                    "ts": round(record["start_ms"] * 1000.0, 3),
                    "dur": round(record["dur_ms"] * 1000.0, 3),
                    "pid": record["shard"],
                    "tid": record["track"],
                    "args": record.get("args", {}),
                }
            )
        return {
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "otherData": {"producer": "repro.obs.spans", "clock": "simulated"},
        }

    def to_json(self, indent: int | None = None) -> str:
        """Serialize :meth:`to_chrome_trace` as JSON text."""
        return json.dumps(self.to_chrome_trace(), indent=indent)

    def save(self, path: str | Path) -> None:
        """Write the Chrome trace JSON to ``path`` (open in Perfetto)."""
        Path(path).write_text(self.to_json())

    def __len__(self) -> int:
        return len(self._records)

    def __repr__(self) -> str:
        return f"SpanTracer({len(self._records)} spans, shard={self.shard})"


class _NullSpanHandle(SpanHandle):
    """The shared no-op handle; safe to reuse because it holds nothing."""

    __slots__ = ()

    def __init__(self) -> None:
        pass

    @property
    def track(self) -> int:  # type: ignore[override]
        return 0

    def end(self) -> None:
        pass

    def __enter__(self) -> "SpanHandle":
        return self

    def __exit__(self, *exc: object) -> None:
        pass


_NULL_HANDLE = _NullSpanHandle()


class NullSpanTracer(SpanTracer):
    """A tracer that records nothing: the zero-cost default.

    ``span``/``begin`` return one shared stateless handle — no
    allocation per call — and every read returns a fresh empty value,
    so nothing a caller does through :data:`NULL_SPANS` can leak state
    between components.
    """

    enabled = False

    __slots__ = ()

    def __init__(self) -> None:
        pass

    def span(self, name: str, **args: Any) -> SpanHandle:
        return _NULL_HANDLE

    def begin(
        self, name: str, parent: SpanHandle | None = None, **args: Any
    ) -> SpanHandle:
        return _NULL_HANDLE

    def merge_snapshot(
        self, snap: list[dict[str, Any]], shard: int | None = None
    ) -> "SpanTracer":
        return self

    def records(self) -> list[dict[str, Any]]:
        return []

    def count(self, name: str | None = None) -> int:
        return 0

    def durations_ms(self, name: str) -> list[float]:
        return []

    def to_chrome_trace(self) -> dict[str, Any]:
        return {"traceEvents": [], "displayTimeUnit": "ms"}

    def __len__(self) -> int:
        return 0

    def __repr__(self) -> str:
        return "NullSpanTracer()"


#: The process-wide no-op span tracer; instrumented components default to it.
NULL_SPANS = NullSpanTracer()
