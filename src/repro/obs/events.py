"""Live campaign telemetry: a structured, severity-leveled event bus.

Where :class:`~repro.obs.registry.MetricsRegistry` aggregates and
:class:`~repro.obs.spans.SpanTracer` keeps intervals, an
:class:`EventBus` is the *live* channel of point events: every emit is
stamped with both simulated time and wall time, counted by
``(category, severity)``, retained in a bounded ring-buffer **flight
recorder**, and fanned out to attached sinks (JSONL files, the console,
or the fork-boundary streamer of
:class:`~repro.core.shard.ShardedCampaign`). The flight recorder is what
a stall watchdog dumps when a campaign wedges: the last ``capacity``
events of every worker, not just its final counters.

Event categories mirror the measurement stack:

* ``engine`` — event-loop stalls, heap compactions (per process).
* ``relay`` — circuit teardowns, service-queue saturation.
* ``probe`` — echo probe-round start/stop and early-stop reasons.
* ``leg`` — shared leg measurements (one per relay *per worker*).
* ``campaign`` — pair lifecycle (started/measured/failed), retry
  rounds, budget-tier degradation, written by the one
  :class:`~repro.core.ting.PairRecorder` whichever campaign class ran
  the pair. Pair events fire exactly once per pair under fixed
  policies, so merged ``campaign`` counts are **invariant to the worker
  count** — the property the shard-invariance tests pin down.
* ``shard`` — campaign/worker lifecycle (one per process; not
  worker-count invariant by construction).
* ``serve`` — query-layer access log: ``slow_query`` (latency above the
  configured threshold) and ``query_error`` records from
  :class:`~repro.serve.telemetry.ServeTelemetry`. Keyed to the query
  stream, so merged counts are invariant to the ``batch()`` worker
  count like ``campaign`` events.

The default everywhere is :data:`NULL_EVENTS`, an allocation-free no-op
bus mirroring :data:`~repro.obs.spans.NULL_SPANS`: hot paths branch on
``events.enabled`` and pay nothing until someone opts in.
"""

from __future__ import annotations

import json
import sys
import time
from collections import deque
from pathlib import Path
from typing import Any, Callable, Iterator, TextIO

#: Severity levels (integers compare; gaps leave room for extensions).
DEBUG = 10
INFO = 20
WARNING = 30
ERROR = 40

_SEVERITY_NAMES = {DEBUG: "DEBUG", INFO: "INFO", WARNING: "WARNING", ERROR: "ERROR"}
_SEVERITY_LEVELS = {name.lower(): level for level, name in _SEVERITY_NAMES.items()}


def severity_name(level: int) -> str:
    """The canonical name for a severity level (unknowns render as L<n>)."""
    return _SEVERITY_NAMES.get(level, f"L{level}")


def severity_level(name: str) -> int:
    """Parse a severity name (``"warning"``) back to its level."""
    try:
        return _SEVERITY_LEVELS[name.lower()]
    except KeyError:
        raise ValueError(f"unknown severity {name!r}") from None


class Event:
    """One emitted occurrence, stamped with sim-time and wall-time.

    Slotted: instrumented campaigns emit one per pair/leg/probe round,
    and the flight recorder retains thousands.
    """

    __slots__ = ("wall_s", "sim_ms", "severity", "category", "kind", "fields",
                 "shard", "seq")

    def __init__(
        self,
        wall_s: float,
        sim_ms: float,
        severity: int,
        category: str,
        kind: str,
        fields: dict[str, Any],
        shard: int = 0,
        seq: int = 0,
    ) -> None:
        self.wall_s = wall_s
        self.sim_ms = sim_ms
        self.severity = severity
        self.category = category
        self.kind = kind
        self.fields = fields
        self.shard = shard
        self.seq = seq

    def to_dict(self) -> dict[str, Any]:
        """A JSON-ready view (field keys merged in at the top level)."""
        return {
            "wall_s": self.wall_s,
            "sim_ms": self.sim_ms,
            "severity": self.severity,
            "category": self.category,
            "kind": self.kind,
            "shard": self.shard,
            "seq": self.seq,
            **self.fields,
        }

    def __repr__(self) -> str:
        return (
            f"Event({severity_name(self.severity)}, "
            f"{self.category}.{self.kind}, sim_ms={self.sim_ms:.3f})"
        )


#: Keys every event dict carries; anything else is a payload field.
_EVENT_KEYS = ("wall_s", "sim_ms", "severity", "category", "kind", "shard", "seq")


def event_from_dict(record: dict[str, Any]) -> Event:
    """Rebuild an :class:`Event` from its :meth:`Event.to_dict` form.

    The fork-boundary streamer ships dicts; the parent's sinks expect
    :class:`Event` objects, so ingestion reverses the flattening.
    """
    return Event(
        wall_s=float(record.get("wall_s", 0.0)),
        sim_ms=float(record.get("sim_ms", 0.0)),
        severity=int(record.get("severity", INFO)),
        category=record.get("category", "?"),
        kind=record.get("kind", "?"),
        fields={k: v for k, v in record.items() if k not in _EVENT_KEYS},
        shard=int(record.get("shard", 0)),
        seq=int(record.get("seq", 0)),
    )


def format_event(record: dict[str, Any]) -> str:
    """Render one event dict as a console line.

    Shared by :class:`ConsoleSink` and ``repro tail`` so live and
    after-the-fact views of the same JSONL stream look identical.
    """
    record = dict(record)
    severity = severity_name(int(record.pop("severity", INFO)))
    sim_ms = float(record.pop("sim_ms", 0.0))
    category = record.pop("category", "?")
    kind = record.pop("kind", "?")
    shard = record.pop("shard", 0)
    record.pop("wall_s", None)
    record.pop("seq", None)
    fields = " ".join(f"{key}={value}" for key, value in record.items())
    line = (f"{severity:<7} s{shard} {sim_ms:>12.3f}ms  {category}.{kind}")
    return f"{line}  {fields}" if fields else line


class FlightRecorder:
    """A bounded ring of event dicts: the last ``capacity`` occurrences.

    The forensic record a watchdog dumps when a worker wedges — cheap
    enough to keep always-on for every shard, honest about eviction via
    ``dropped``.
    """

    __slots__ = ("capacity", "_ring", "dropped")

    def __init__(self, capacity: int = 1024) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._ring: deque[dict[str, Any]] = deque(maxlen=capacity)
        self.dropped = 0

    def append(self, record: dict[str, Any]) -> None:
        """Retain one event dict; the oldest is dropped when full."""
        if len(self._ring) == self.capacity:
            self.dropped += 1
        self._ring.append(record)

    def records(self) -> list[dict[str, Any]]:
        """The retained events, oldest first."""
        return list(self._ring)

    def dump(self) -> dict[str, Any]:
        """A JSON-ready view: retained events plus the eviction count."""
        return {"dropped": self.dropped, "events": list(self._ring)}

    def clear(self) -> None:
        self._ring.clear()
        self.dropped = 0

    def __len__(self) -> int:
        return len(self._ring)

    def __iter__(self) -> Iterator[dict[str, Any]]:
        return iter(self._ring)

    def __repr__(self) -> str:
        return (
            f"FlightRecorder({len(self._ring)}/{self.capacity} events, "
            f"dropped={self.dropped})"
        )


class EventBus:
    """Counts, records, and fans out severity-leveled events.

    ``clock`` supplies simulated milliseconds (usually
    ``lambda: sim.now``); wall time comes from ``time.time``. Sinks are
    plain callables taking an :class:`Event`; a sink that raises
    propagates (telemetry bugs should fail loudly in tests, and the
    shard streamer relies on a blocking sink for fault injection).

    Snapshots are plain data and merge associatively — counts sum, ring
    events are adopted with a ``shard`` tag — so the fork boundary of
    :class:`~repro.core.shard.ShardedCampaign` preserves them the same
    way it preserves metrics and spans.
    """

    #: Whether emits are kept; hot paths branch on this.
    enabled = True

    __slots__ = ("_clock", "shard", "recorder", "_counts", "_sinks",
                 "emitted", "_seq")

    def __init__(
        self,
        clock: Callable[[], float] | None = None,
        capacity: int = 1024,
        shard: int = 0,
    ) -> None:
        self._clock = clock if clock is not None else (lambda: 0.0)
        self.shard = shard
        #: The bounded flight-recorder ring behind this bus.
        self.recorder = FlightRecorder(capacity=capacity)
        self._counts: dict[tuple[str, int], int] = {}
        self._sinks: list[Callable[[Event], None]] = []
        self.emitted = 0
        self._seq = 0

    # ------------------------------------------------------------------
    # Emission

    def emit(self, severity: int, category: str, kind: str, **fields: Any) -> None:
        """Record one event: count it, ring it, fan it out to sinks."""
        event = Event(
            wall_s=time.time(),
            sim_ms=self._clock(),
            severity=severity,
            category=category,
            kind=kind,
            fields=fields,
            shard=self.shard,
            seq=self._seq,
        )
        self._seq += 1
        self.emitted += 1
        key = (category, severity)
        self._counts[key] = self._counts.get(key, 0) + 1
        self.recorder.append(event.to_dict())
        for sink in self._sinks:
            sink(event)

    def ingest(self, record: dict[str, Any]) -> None:
        """Adopt one already-stamped event dict as a first-class emit.

        The parent side of the fork boundary: a worker's streamed event
        keeps its original timestamps, shard tag, and sequence number,
        but is counted, ringed, and fanned out to this bus's sinks as if
        emitted locally.
        """
        self.emitted += 1
        key = (record.get("category", "?"), int(record.get("severity", INFO)))
        self._counts[key] = self._counts.get(key, 0) + 1
        self.recorder.append(record)
        if self._sinks:
            event = event_from_dict(record)
            for sink in self._sinks:
                sink(event)

    def debug(self, category: str, kind: str, **fields: Any) -> None:
        self.emit(DEBUG, category, kind, **fields)

    def info(self, category: str, kind: str, **fields: Any) -> None:
        self.emit(INFO, category, kind, **fields)

    def warning(self, category: str, kind: str, **fields: Any) -> None:
        self.emit(WARNING, category, kind, **fields)

    def error(self, category: str, kind: str, **fields: Any) -> None:
        self.emit(ERROR, category, kind, **fields)

    # ------------------------------------------------------------------
    # Sinks

    def add_sink(self, sink: Callable[[Event], None]) -> None:
        """Attach a sink; every subsequent emit is delivered to it."""
        self._sinks.append(sink)

    def remove_sink(self, sink: Callable[[Event], None]) -> None:
        """Detach a previously attached sink (no-op if absent)."""
        try:
            self._sinks.remove(sink)
        except ValueError:
            pass

    # ------------------------------------------------------------------
    # Introspection

    def counts(self) -> dict[tuple[str, int], int]:
        """Emit counts keyed by ``(category, severity)`` (a copy)."""
        return dict(self._counts)

    def count(self, category: str | None = None,
              severity: int | None = None) -> int:
        """Total emits matching the given category and/or severity."""
        return sum(
            n for (cat, sev), n in self._counts.items()
            if (category is None or cat == category)
            and (severity is None or sev == severity)
        )

    def events(
        self,
        category: str | None = None,
        kind: str | None = None,
        min_severity: int | None = None,
    ) -> list[dict[str, Any]]:
        """Retained ring events (dicts, oldest first), optionally filtered."""
        out = []
        for record in self.recorder:
            if category is not None and record.get("category") != category:
                continue
            if kind is not None and record.get("kind") != kind:
                continue
            if min_severity is not None and record.get("severity", 0) < min_severity:
                continue
            out.append(record)
        return out

    def clear(self) -> None:
        """Forget counts and retained events (sinks stay attached)."""
        self._counts.clear()
        self.recorder.clear()
        self.emitted = 0
        self._seq = 0

    # ------------------------------------------------------------------
    # Snapshot / merge (fork-boundary plumbing)

    def snapshot(self) -> dict[str, Any]:
        """A picklable, JSON-ready view: counts plus the flight ring."""
        return {
            "emitted": self.emitted,
            "counts": [
                {"category": cat, "severity": sev, "count": n}
                for (cat, sev), n in sorted(self._counts.items())
            ],
            "ring": self.recorder.dump(),
        }

    def merge_snapshot(self, snap: dict[str, Any],
                       shard: int | None = None) -> "EventBus":
        """Fold one :meth:`snapshot` into this bus. Returns self.

        Counts sum; ring events are adopted (tagged ``shard`` when
        given) and may evict older entries — the counts, not the ring,
        are the authoritative totals. Associative and commutative on
        counts, so shard merge order cannot matter.
        """
        self.emitted += int(snap.get("emitted", 0))
        for row in snap.get("counts", []):
            key = (row["category"], int(row["severity"]))
            self._counts[key] = self._counts.get(key, 0) + int(row["count"])
        ring = snap.get("ring", {})
        for record in ring.get("events", []):
            record = dict(record)
            if shard is not None:
                record["shard"] = shard
            self.recorder.append(record)
        self.recorder.dropped += int(ring.get("dropped", 0))
        return self

    def __len__(self) -> int:
        return len(self.recorder)

    def __repr__(self) -> str:
        return f"EventBus(emitted={self.emitted}, ring={len(self.recorder)})"


class NullEventBus(EventBus):
    """An event bus that drops everything: the zero-cost default.

    Allocation-free to construct — no ring, no counts, no sinks exist —
    and immune to shared-state mutation: emits vanish, ``add_sink`` is
    rejected (a sink on the shared singleton would silently observe
    every component in the process), and every read returns a fresh
    empty value.
    """

    enabled = False

    __slots__ = ()

    #: Class-level constants shadow the parent's slots: a null bus holds
    #: nothing, so these never change and no instance storage exists.
    shard = 0
    emitted = 0
    recorder = None

    def __init__(self, clock: Callable[[], float] | None = None,
                 capacity: int = 0, shard: int = 0) -> None:
        pass

    def emit(self, severity: int, category: str, kind: str, **fields: Any) -> None:
        pass

    def ingest(self, record: dict[str, Any]) -> None:
        pass

    def debug(self, category: str, kind: str, **fields: Any) -> None:
        pass

    def info(self, category: str, kind: str, **fields: Any) -> None:
        pass

    def warning(self, category: str, kind: str, **fields: Any) -> None:
        pass

    def error(self, category: str, kind: str, **fields: Any) -> None:
        pass

    def add_sink(self, sink: Callable[[Event], None]) -> None:
        raise ValueError(
            "cannot attach a sink to NULL_EVENTS; wire a live EventBus "
            "(e.g. MeasurementHost.enable_events) first"
        )

    def remove_sink(self, sink: Callable[[Event], None]) -> None:
        pass

    def counts(self) -> dict[tuple[str, int], int]:
        return {}

    def count(self, category: str | None = None,
              severity: int | None = None) -> int:
        return 0

    def events(self, category: str | None = None, kind: str | None = None,
               min_severity: int | None = None) -> list[dict[str, Any]]:
        return []

    def clear(self) -> None:
        pass

    def snapshot(self) -> dict[str, Any]:
        return {"emitted": 0, "counts": [], "ring": {"dropped": 0, "events": []}}

    def merge_snapshot(self, snap: dict[str, Any],
                       shard: int | None = None) -> EventBus:
        return self

    def __len__(self) -> int:
        return 0

    def __repr__(self) -> str:
        return "NullEventBus()"


#: The process-wide no-op event bus; instrumented components default to it.
NULL_EVENTS = NullEventBus()


class JsonlSink:
    """Streams every event as one JSON line; ``repro tail`` reads these.

    Lines are flushed per event so a concurrently running ``tail -f``
    (or the ``repro tail --follow`` subcommand) sees them live.
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self._fh: TextIO | None = self.path.open("w", encoding="utf-8")

    def __call__(self, event: Event) -> None:
        if self._fh is None:
            return
        self._fh.write(json.dumps(event.to_dict()) + "\n")
        self._fh.flush()

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "JsonlSink":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


class ConsoleSink:
    """Prints events at or above ``min_severity`` to a stream (stderr).

    The live operator channel: campaign progress and telemetry never
    touch stdout, which stays reserved for machine output.
    """

    def __init__(self, stream: TextIO | None = None,
                 min_severity: int = WARNING) -> None:
        self.stream = stream if stream is not None else sys.stderr
        self.min_severity = min_severity

    def __call__(self, event: Event) -> None:
        if event.severity < self.min_severity:
            return
        print(format_event(event.to_dict()), file=self.stream)


class ProgressTracker:
    """Live campaign progress: totals, EWMA pair rate, and an ETA.

    Workers report *absolute* per-shard totals (idempotent heartbeats —
    a re-delivered heartbeat cannot double-count), and the tracker sums
    across shards. The pair-completion rate is an exponentially weighted
    moving average over wall time, so the ETA adapts when a slow shard
    drags the tail of a campaign.

    Work-stealing dispatch makes a shard's *claimed* total
    (``pairs_total`` in its heartbeat) grow mid-run as it takes chunks
    off the shared queue — so per-shard totals are informational only,
    and the ETA is always computed from the campaign-wide remaining
    count: ``(pairs_total - pairs_done) / rate``. A shard racing ahead
    raises the global rate; it never shrinks another shard's share of
    the denominator.
    """

    def __init__(
        self,
        pairs_total: int,
        clock: Callable[[], float] | None = None,
        alpha: float = 0.3,
    ) -> None:
        if pairs_total < 0:
            raise ValueError("pairs_total must be >= 0")
        if not 0.0 < alpha <= 1.0:
            raise ValueError("alpha must be in (0, 1]")
        self.pairs_total = pairs_total
        self._clock = clock if clock is not None else time.monotonic
        self._alpha = alpha
        self._shards: dict[int, dict[str, Any]] = {}
        self._started = self._clock()
        self._last_time = self._started
        self._last_done = 0
        self._rate: float | None = None

    def update_shard(
        self,
        shard: int,
        pairs_done: int = 0,
        pairs_failed: int = 0,
        probes_sent: int = 0,
        probes_saved: int = 0,
        in_flight: str | None = None,
        pairs_total: int = 0,
    ) -> None:
        """Absorb one shard's absolute progress totals.

        ``pairs_total`` is the shard's claimed share so far — it grows
        as a work-stealing worker takes chunks, and is *not* part of the
        ETA denominator (the campaign-wide total is fixed at
        construction).
        """
        self._shards[shard] = {
            "pairs_done": pairs_done,
            "pairs_failed": pairs_failed,
            "probes_sent": probes_sent,
            "probes_saved": probes_saved,
            "in_flight": in_flight,
            "pairs_total": pairs_total,
        }
        done = self.pairs_done
        now = self._clock()
        if done > self._last_done:
            dt = now - self._last_time
            if dt > 0:
                instant = (done - self._last_done) / dt
                self._rate = (
                    instant if self._rate is None
                    else self._alpha * instant + (1 - self._alpha) * self._rate
                )
            self._last_time = now
            self._last_done = done

    def _sum(self, key: str) -> int:
        return sum(state[key] for state in self._shards.values())

    @property
    def pairs_done(self) -> int:
        """Pairs resolved (measured or failed) across all shards."""
        return self._sum("pairs_done")

    @property
    def pairs_failed(self) -> int:
        return self._sum("pairs_failed")

    @property
    def probes_sent(self) -> int:
        return self._sum("probes_sent")

    @property
    def probes_saved(self) -> int:
        return self._sum("probes_saved")

    @property
    def rate_pairs_per_s(self) -> float | None:
        """EWMA pair-completion rate (None until two distinct updates)."""
        return self._rate

    @property
    def eta_s(self) -> float | None:
        """Estimated wall seconds until the last pair lands."""
        if not self._rate or self._rate <= 0:
            return None
        return max(0, self.pairs_total - self.pairs_done) / self._rate

    @property
    def elapsed_s(self) -> float:
        return self._clock() - self._started

    def in_flight(self) -> dict[int, str]:
        """Per-shard in-flight task labels (shards with one pending)."""
        return {
            shard: state["in_flight"]
            for shard, state in sorted(self._shards.items())
            if state["in_flight"]
        }

    def shard_progress(self) -> dict[int, tuple[int, int]]:
        """Per-shard ``(done, claimed_total)`` — the steal balance view."""
        return {
            shard: (state["pairs_done"], state.get("pairs_total", 0))
            for shard, state in sorted(self._shards.items())
        }

    def snapshot(self) -> dict[str, Any]:
        """A JSON-ready view of the current progress state."""
        return {
            "pairs_done": self.pairs_done,
            "pairs_failed": self.pairs_failed,
            "pairs_total": self.pairs_total,
            "probes_sent": self.probes_sent,
            "probes_saved": self.probes_saved,
            "rate_pairs_per_s": self._rate,
            "eta_s": self.eta_s,
            "elapsed_s": self.elapsed_s,
            "in_flight": {str(k): v for k, v in self.in_flight().items()},
            "shards": {
                str(shard): {"pairs_done": done, "pairs_total": total}
                for shard, (done, total) in self.shard_progress().items()
            },
        }

    def render(self) -> str:
        """One status line: ``pairs 37/120 | probes 842 | 3.2/s | ETA 26s``."""
        parts = [f"pairs {self.pairs_done}/{self.pairs_total}"]
        if self.pairs_failed:
            parts[0] += f" ({self.pairs_failed} failed)"
        probes = self.probes_sent
        if probes:
            saved = self.probes_saved
            parts.append(
                f"probes {probes}" + (f" (+{saved} saved)" if saved else "")
            )
        if self._rate is not None:
            parts.append(f"{self._rate:.1f} pairs/s")
        eta = self.eta_s
        if eta is not None:
            parts.append(f"ETA {eta:.0f}s")
        return " | ".join(parts)
