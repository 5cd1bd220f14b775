"""Sharded all-pairs campaigns: a leg round, then a pair round, both stolen.

A single :class:`~repro.core.parallel.ParallelCampaign` is bound to one
Python process; an all-pairs matrix over hundreds of relays is hours of
single-core event processing. The pair measurements are embarrassingly
parallel, so :class:`ShardedCampaign` spreads them across forked worker
processes — but naively sharding the *whole* campaign duplicates work:
each of W workers would rebuild the leg circuit R_Cx for every relay its
pair shard touches, measuring most legs W times and burning O(W·n) leg
circuits where the Ting decomposition needs exactly n.

The engine therefore runs two **rounds** over one work-stealing pool —
one round function, called twice:

1. **Leg round.** The pair-touched fingerprints (all relays for an
   all-pairs campaign; only the relays the pair list references for a
   planner-budgeted one) are cut into chunks of ``steal_chunk_pairs``
   and stolen by the workers, each chunk running through
   :meth:`~repro.core.parallel.ParallelCampaign.run_legs` under the same
   task isolation as everything else, so every needed relay's R_Cx is
   measured exactly once, by whichever worker drew it. Each chunk ships
   its estimates and failures home; the parent folds them, in campaign
   order, into the read-only caches the pair round inherits — via fork
   copy-on-write, never re-pickled. The round reports as *one*
   :data:`LEG_PHASE` result (counters summed over its workers), and leg
   provenance is attributed to the round itself (``shard=None``), not to
   whichever worker measured the leg.

2. **Pair round.** The pair list is cut into contiguous chunks of
   ``steal_chunk_pairs`` and preloaded onto one shared task queue,
   followed by one ``None`` sentinel per worker. Workers *steal* chunks
   as they finish rather than receiving a static round-robin stripe, so
   a slow worker (noisy neighbour, unlucky relay cluster) holds at most
   one chunk hostage instead of 1/W of the campaign. Each finished
   chunk's entries ship home immediately as a ``chunk`` message —
   batched incremental results instead of one big end-of-life pickle —
   and the worker's final :class:`ShardResult` carries only the totals.

Both rounds fork, place, steal, collect and notice death through the
one pool in :mod:`repro.util.cpus` (:func:`~repro.util.cpus.run_pool`),
the same one :meth:`~repro.serve.server.QueryServer.batch` uses. Every
forked worker, in either round, first binds itself to its own share of
the parent's CPU mask: left alone, the kernel keeps both children of a
fork on the CPU they were born on and the second core idles. Stealing
is what makes a fixed placement safe — a worker on a busy CPU simply
claims fewer chunks.

Pair workers assert the leg round did its job: a worker that has to
build *any* leg circuit raises, because every miss is exactly the
duplicated-work bug this engine exists to kill.

The merged matrix is **invariant to the worker count**: every task runs
under :class:`~repro.core.parallel.TaskIsolation`, which makes each
task's samples a pure function of ``(root seed, task key)`` — so it
cannot matter which process a chunk landed in, which worker stole it, or
what ran before it. ``workers=1``, ``workers=4``, and an unsharded
``ParallelCampaign`` with the same isolation recipe produce bit-for-bit
the same matrix, and the deterministic *counters* (leg builds, cache
hits/misses/lookups, probes, task isolations) are worker-count
invariant too.

``force_inline=True`` runs the same worker loop (same chunking, same
telemetry sinks, same assertions) in-process with a deterministic chunk
deal, for both rounds — how the invariance tests compare worker counts
without fork nondeterminism. The pool takes the same path by itself on
a platform without fork. One inline worker is the serial leg phase of
earlier versions.

Live telemetry
--------------

Pass a :class:`CampaignTelemetry` and every worker of both rounds
attaches a streaming sink to the host's
:class:`~repro.obs.events.EventBus`: events at or above
``stream_min_severity`` cross the fork boundary over one message queue,
along with rate-limited **heartbeats** carrying absolute progress totals
(``pairs_done``, ``pairs_total`` = pairs claimed so far under stealing)
and the in-flight pair or leg. The parent keeps a per-shard
:class:`~repro.obs.events.FlightRecorder` (every leg worker records
under shard ``-1``), feeds a :class:`~repro.obs.events.ProgressTracker`,
and arms a **stall watchdog**: a shard silent past ``stall_timeout_s``
trips it, which dumps every shard's flight-recorder ring (plus the stuck
shard's in-flight task) to a post-mortem JSON artifact and fails the
campaign with a categorized
:class:`~repro.util.errors.MeasurementError` instead of hanging forever.
The engine's per-batch hook pumps heartbeats from inside long simulator
runs, so one slow pair is not mistaken for a hang — and because workers
steal, a genuinely slow worker just claims fewer chunks instead of
stalling the campaign.

Independently of telemetry, the pool notices a worker the OS killed
within a short grace, and ``worker_timeout_s`` bounds each round: a
worker still grinding past the deadline fails the campaign naming the
round and the worker — both work with ``observe=False``.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Sequence

from repro.core.dataset import ProvenanceLog, RttMatrix
from repro.core.parallel import ParallelCampaign, check_pairs
from repro.core.sampling import SamplePolicy
from repro.obs import (
    INFO,
    Event,
    EventBus,
    FlightRecorder,
    MetricsRegistry,
    ProgressTracker,
    SpanTracer,
)
from repro.obs.spans import CAMPAIGN_SPAN
from repro.tor.directory import RelayDescriptor
from repro.util.cpus import run_pool
# Bound to a module-level name so tests can stand in another core count.
from repro.util.cpus import schedulable_cpu_count as _schedulable_cpus
from repro.util.errors import MeasurementError
from repro.util.units import Milliseconds

#: Sentinel shard index for the campaign-wide leg round: its telemetry,
#: flight-recorder ring, and merged observability records are attributed
#: to shard ``-1`` whichever worker produced them (leg *provenance*
#: keeps ``shard=None`` — the round belongs to the campaign, not to any
#: shard).
LEG_PHASE = -1

#: The two rounds one campaign runs over the same work-stealing pool.
LEG_ROUND = "leg"
PAIR_ROUND = "pair"

#: The sinks a worker ships home and the parent folds, each by the one
#: protocol (``snapshot()`` / ``merge_snapshot(snap, shard=)``): the
#: attribute that holds it on :class:`MeasurementHost` (live),
#: :class:`ShardResult` (snapshot) and :class:`ShardedReport` (merged),
#: and what the parent folds it into.
_SINKS: dict[str, Callable[[], Any]] = {
    "metrics": MetricsRegistry,
    "spans": SpanTracer,
    "provenance": ProvenanceLog,
    "events": lambda: EventBus(capacity=4096),
}

#: Heartbeat fields that are running totals of one worker process.
_HEARTBEAT_TOTALS = (
    "pairs_done", "pairs_failed", "pairs_total", "probes_sent", "probes_saved",
)


@dataclass
class CampaignTelemetry:
    """Configuration for live streaming telemetry across the fork boundary.

    ``bus`` is the parent-side event bus fed by worker streams (one is
    created when omitted); attach sinks to it *before* ``run()`` to see
    events live. ``progress`` likewise defaults to a fresh
    :class:`~repro.obs.events.ProgressTracker` sized to the pair list,
    and ``on_progress`` is invoked (with the tracker) after every
    heartbeat — the CLI's streaming status line hangs off it.

    ``stall_timeout_s`` arms the watchdog (``None`` disables): a shard
    that produces neither events nor heartbeats for that long is
    declared stalled. Size it to comfortably exceed worker startup.
    """

    bus: EventBus | None = None
    progress: ProgressTracker | None = None
    on_progress: Callable[[ProgressTracker], None] | None = None
    heartbeat_s: float = 1.0
    stall_timeout_s: float | None = 30.0
    postmortem_path: Path | None = None
    stream_min_severity: int = INFO
    ring_capacity: int = 512


class _WorkerTelemetry:
    """Worker-side sink: streams events and heartbeats to the parent.

    Built and attached to the worker's event bus inside
    :func:`_run_worker`, sending on the pool's channel; every
    leg-round worker streams as shard ``-1``, told apart by ``worker``
    (its slot in the round, which heartbeats carry).
    Every emitted event updates local progress counters (pair lifecycle
    from ``campaign`` events, probe totals from ``probe`` rounds, the
    in-flight label from pair/leg starts), rides the fork-boundary
    channel when at or above ``min_severity``, and gives the heartbeat
    pump a chance to fire. The simulator's per-batch hook calls
    :meth:`beat` too, so a worker grinding through one long simulator
    run still proves liveness between events.

    ``pairs_total`` is the number of pairs this worker has *claimed* so
    far — under work stealing it grows chunk by chunk, and heartbeats
    carry the running value so the parent can attribute load.
    """

    def __init__(
        self,
        send: Callable[[tuple], None],
        shard: int,
        heartbeat_s: float,
        min_severity: int,
        wall: Callable[[], float] = time.monotonic,
        worker: int = 0,
    ) -> None:
        self.send = send
        self.shard = shard
        self.worker = worker
        self.heartbeat_s = heartbeat_s
        self.min_severity = min_severity
        self._wall = wall
        self._last_beat = float("-inf")
        self.pairs_total = 0
        self.pairs_done = 0
        self.pairs_failed = 0
        self.probes_sent = 0
        self.probes_saved = 0
        self.in_flight: str | None = None

    def __call__(self, event: Event) -> None:
        category, kind = event.category, event.kind
        if category == "campaign":
            if kind == "pair_started":
                x, y = event.fields.get("x"), event.fields.get("y")
                self.in_flight = f"pair {x}:{y}"
            elif kind == "pair_measured":
                self.pairs_done += 1
                self.in_flight = None
            elif kind == "pair_failed":
                self.pairs_done += 1
                self.pairs_failed += 1
                self.in_flight = None
        elif category == "leg":
            if kind == "started":
                self.in_flight = f"leg {event.fields.get('relay')}"
            else:  # finished / failed
                self.in_flight = None
        elif category == "probe":
            if kind == "round_finished":
                self.probes_sent += int(event.fields.get("sent", 0))
                self.probes_saved += int(event.fields.get("saved", 0))
            elif kind == "round_failed":
                self.probes_sent += int(event.fields.get("sent", 0))
        if event.severity >= self.min_severity:
            self.send(("event", self.shard, event.to_dict()))
        self.beat()

    def beat(self, force: bool = False) -> None:
        """Send a heartbeat if ``heartbeat_s`` elapsed (or forced)."""
        now = self._wall()
        if not force and now - self._last_beat < self.heartbeat_s:
            return
        self._last_beat = now
        self.send(
            (
                "hb",
                self.shard,
                {
                    "worker": self.worker,
                    "pairs_done": self.pairs_done,
                    "pairs_failed": self.pairs_failed,
                    "pairs_total": self.pairs_total,
                    "probes_sent": self.probes_sent,
                    "probes_saved": self.probes_saved,
                    "in_flight": self.in_flight,
                },
            )
        )


class _ShardMonitor:
    """Parent-side telemetry state: what the watchdog knows per shard.

    Streamed events land in a per-shard flight recorder *and* the
    parent bus (so sinks attached there see the whole campaign live);
    heartbeats update ``last_seen``, the progress tracker (including
    per-shard claimed totals under work stealing), and the in-flight
    labels the post-mortem names. Any other message kind (``chunk``)
    counts as liveness only. The parent keeps its own recorders because
    a hung child's memory — including its local ring — is unreachable;
    what was streamed before the silence is all the forensics there is.

    A shard is a label, not a process: the leg round puts all of its
    workers behind shard ``-1``. Heartbeats are absolute totals of one
    process, so the monitor keeps the latest per ``(shard, worker)`` and
    reports their sum.
    """

    def __init__(
        self,
        telemetry: CampaignTelemetry,
        pairs_total: int,
        wall: Callable[[], float] = time.monotonic,
    ) -> None:
        self.telemetry = telemetry
        self.bus = telemetry.bus if telemetry.bus is not None else EventBus(
            capacity=4096
        )
        self.progress = (
            telemetry.progress
            if telemetry.progress is not None
            else ProgressTracker(pairs_total)
        )
        self._wall = wall
        self.recorders: dict[int, FlightRecorder] = {}
        self.last_seen: dict[int, float] = {}
        self.heartbeats: dict[int, dict[str, Any]] = {}
        self._beats: dict[int, dict[int, dict[str, Any]]] = {}

    def register(self, shard: int) -> None:
        """Start the liveness clock for one shard (at spawn time)."""
        self.last_seen[shard] = self._wall()
        self.recorders[shard] = FlightRecorder(
            capacity=self.telemetry.ring_capacity
        )

    def handle(self, msg: tuple) -> None:
        """Absorb one worker message (``hb``, ``event``, or liveness)."""
        kind, shard = msg[0], msg[1]
        self.last_seen[shard] = self._wall()
        if kind == "hb":
            beats = self._beats.setdefault(shard, {})
            beats[msg[2].get("worker", 0)] = msg[2]
            merged: dict[str, Any] = {
                key: sum(beat.get(key, 0) for beat in beats.values())
                for key in _HEARTBEAT_TOTALS
            }
            merged["in_flight"] = next(
                (b["in_flight"] for b in beats.values() if b.get("in_flight")),
                None,
            )
            self.heartbeats[shard] = merged
            self.progress.update_shard(shard, **merged)
            if self.telemetry.on_progress is not None:
                self.telemetry.on_progress(self.progress)
        elif kind == "event":
            record = msg[2]
            recorder = self.recorders.get(shard)
            if recorder is not None:
                recorder.append(record)
            self.bus.ingest(record)

    def watch(self, pending: set[int], now: float) -> None:
        """The pool's watch hook: raise for the pending shard silent
        longest, if that is past the deadline."""
        deadline = self.telemetry.stall_timeout_s
        if deadline is None:
            return
        age, shard = max((now - self.last_seen.get(s, now), s) for s in pending)
        if age > deadline:
            raise self._stall_error(shard, age)

    def _stall_error(self, shard: int, age: float) -> MeasurementError:
        """Dump the post-mortem and build the categorized failure."""
        in_flight = (self.heartbeats.get(shard) or {}).get("in_flight")
        reason = (
            f"shard {shard} stalled: no heartbeat for {age:.1f}s "
            f"(deadline {self.telemetry.stall_timeout_s:.1f}s"
            + (f", in flight: {in_flight}" if in_flight else "")
            + ")"
        )
        self.bus.error(
            "shard", "watchdog_tripped",
            stalled_shard=shard, age_s=round(age, 2), in_flight=in_flight,
        )
        path = self.write_postmortem(shard, reason)
        return MeasurementError(f"{reason}; flight recorder dumped to {path}")

    def write_postmortem(self, shard: int, reason: str) -> Path:
        """Write the flight-recorder dump for a tripped watchdog."""
        path = self.telemetry.postmortem_path
        if path is None:
            path = Path("ting_postmortem.json")
        doc = {
            "reason": reason,
            "category": "stall",
            "stuck_shard": shard,
            "in_flight": (self.heartbeats.get(shard) or {}).get("in_flight"),
            "heartbeats": {str(s): hb for s, hb in sorted(self.heartbeats.items())},
            "progress": self.progress.snapshot(),
            "rings": {
                str(s): recorder.dump()
                for s, recorder in sorted(self.recorders.items())
            },
        }
        path.write_text(json.dumps(doc, indent=2), encoding="utf-8")
        return path


@dataclass
class ShardResult:
    """What one worker ships back to the parent: plain picklable data.

    Under work stealing the matrix *entries* arrive incrementally as
    per-chunk messages; the parent folds them back into ``entries`` (in
    chunk order) before merging, so by merge time this looks the same as
    v1's one-shot result. ``chunks`` counts how many chunks the worker
    stole; ``legs_measured`` how many leg circuits it had to build
    itself (always 0 for a pair worker). The leg
    round's own artifacts ride one ShardResult with
    ``shard_index=LEG_PHASE``: counters summed over its workers,
    ``makespan_ms`` the slowest worker's, ``wall_s`` the round's.

    ``cpu_s`` is the worker's CPU time (``time.process_time()``) over
    the same interval as ``wall_s``. A forked worker that computes the
    whole time reads ``cpu_s / wall_s`` near 1; a ratio near ``1 / W``
    means W workers shared one CPU.

    The observability payloads are each sink's ``snapshot()``, not live
    objects — a metrics dict, span record dicts, a columnar provenance
    snapshot (flat numpy buffers carrying both pair and leg records,
    not per-record dicts), and an event-bus dict. ``None`` means the
    shard ran without observability.
    """

    shard_index: int
    entries: list[tuple[str, str, float]]
    failures: list[tuple[str, str, str]]
    pairs_attempted: int
    events_processed: int
    cells_processed: int
    makespan_ms: Milliseconds
    wall_s: float
    cpu_s: float = 0.0
    probes_sent: int = 0
    probes_saved: int = 0
    early_stops: int = 0
    legs_measured: int = 0
    chunks: int = 0
    metrics: dict[str, Any] | None = None
    spans: list[dict[str, Any]] | None = None
    provenance: dict[str, Any] | None = None
    events: dict[str, Any] | None = None


@dataclass
class ShardedReport:
    """Outcome of a sharded campaign, merged across all workers.

    ``leg_phase`` is the campaign-wide leg round's result; ``shards``
    holds only the pair workers. ``legs_measured`` sums leg circuit
    builds across the leg round and every pair worker — it equals *n*
    exactly, regardless of the worker count (the duplicated-work
    regression guard).

    When the campaign ran with ``observe=True``, ``metrics``/``spans``/
    ``provenance``/``events`` hold the *merged* observability state:
    counters summed, gauges maxed, histogram buckets summed, and
    every span, provenance record, and bus event tagged
    with the shard that produced it (``-1`` = leg phase; leg provenance
    records keep ``shard=None`` — the phase belongs to the campaign).
    Deterministic counters in the merged registry are invariant to the
    worker count.

    When the campaign ran with a :class:`CampaignTelemetry`, ``stream``
    is the parent-side bus fed live across the fork boundary and
    ``progress`` the final state of the progress tracker.

    ``wall_s`` spans the whole of ``run()``; ``build_s`` is the part of
    it spent inside ``factory()``. The testbed build is the caller's
    recipe, not campaign work: subtract it before reading ``wall_s`` as
    leg round + pair round + ship/merge.
    """

    matrix: RttMatrix
    pairs_attempted: int = 0
    pairs_measured: int = 0
    failures: list[tuple[str, str, str]] = field(default_factory=list)
    shards: list[ShardResult] = field(default_factory=list)
    #: Set by every ``run()``; ``None`` only on a hand-built report.
    leg_phase: ShardResult | None = None
    workers: int = 1
    events_processed: int = 0
    cells_processed: int = 0
    wall_s: float = 0.0
    build_s: float = 0.0
    probes_sent: int = 0
    probes_saved: int = 0
    early_stops: int = 0
    legs_measured: int = 0
    metrics: MetricsRegistry | None = None
    spans: SpanTracer | None = None
    provenance: ProvenanceLog | None = None
    events: EventBus | None = None
    stream: EventBus | None = None
    progress: ProgressTracker | None = None


def _testbed_cells(testbed: Any) -> int:
    """Total relay cells processed (network relays + local w and z)."""
    cells = sum(relay.cells_processed for relay in testbed.relays)
    cells += testbed.measurement.relay_w.cells_processed
    cells += testbed.measurement.relay_z.cells_processed
    return cells


@dataclass
class _WorkerJob:
    """Everything one worker needs, inherited over fork (not pickled):
    the parent-built testbed, the campaign's relay descriptors (in node
    order, built once before the fork), and — for the pair round — the
    leg round's read-only estimate/failure caches."""

    testbed: Any
    descriptors: list[RelayDescriptor]
    policy: SamplePolicy | None
    #: :data:`LEG_ROUND` or :data:`PAIR_ROUND`: what a stolen chunk holds.
    round: str
    #: The worker's slot in its round: routes its chunk/result/error
    #: messages and picks its CPU share.
    worker: int
    #: What the worker's output is attributed to: its own slot in the
    #: pair round, :data:`LEG_PHASE` for every worker of the leg round.
    shard_index: int
    observe: bool
    leg_estimates: dict[str, float]
    leg_failures: dict[str, str]
    #: The campaign's live-telemetry config; ``None`` streams nothing.
    telemetry: CampaignTelemetry | None = None

    @property
    def name(self) -> str:
        """How failure messages name this worker (and its round)."""
        if self.round == LEG_ROUND:
            return f"leg round worker {self.worker}"
        return f"shard {self.worker} worker"


def _run_worker(
    job: _WorkerJob,
    next_task: Callable[[], Any],
    send: Callable[[tuple], None],
) -> ShardResult:
    """Worker loop: steal chunks until the sentinel, ship each home.

    The ``work`` both rounds hand :func:`~repro.util.cpus.run_pool`;
    module-level so tests can monkeypatch it. ``next_task`` yields
    ``(chunk_id, items)`` tuples and finally ``None`` — the pool's
    shared queue forked, its deterministic deal inline. ``items`` are
    pairs in the pair round and fingerprints in the leg round. Each
    finished chunk's rows leave immediately via ``send`` (kind
    ``"chunk"``): ``(x, y, rtt)`` entries and ``(x, y, reason)``
    failures for a pair chunk, ``(relay, estimate)`` and ``(relay,
    reason)`` for a leg chunk. The returned :class:`ShardResult` carries
    only totals and snapshots.

    With ``job.observe`` the worker enables fresh observability on the
    inherited host and ships snapshots home; the event bus is cleared
    first so an inline emulation (shared host) and a forked child
    (inherited parent bus) both start from an empty ring.

    With ``job.telemetry`` the worker wires a live event bus regardless
    of ``observe``, attaches a :class:`_WorkerTelemetry` sending on
    ``send``, and pumps heartbeats from the simulator's per-batch hook.
    A forced beat at every chunk claim publishes the stolen total.
    """
    telemetry = None
    if job.telemetry is not None:
        telemetry = _WorkerTelemetry(
            send=send,
            shard=job.shard_index,
            heartbeat_s=job.telemetry.heartbeat_s,
            min_severity=job.telemetry.stream_min_severity,
            worker=job.worker,
        )
        # Birth heartbeat: the liveness clock starts at spawn, not at
        # the first measurement.
        telemetry.beat(force=True)
    started = time.perf_counter()
    cpu_started = time.process_time()
    legs = job.round == LEG_ROUND
    testbed = job.testbed
    host = testbed.measurement
    if job.observe:
        host.enable_observability()
    if host.events.enabled:
        host.events.clear()
    events_start = testbed.sim.events_processed
    cells_start = _testbed_cells(testbed)
    bus = None
    if telemetry is not None:
        bus = host.events if host.events.enabled else host.enable_events()
        bus.shard = job.shard_index
        bus.add_sink(telemetry)
        testbed.sim.on_batch = telemetry.beat
    elif job.observe:
        host.events.shard = job.shard_index
    campaign = ParallelCampaign(
        host,
        job.descriptors,
        policy=job.policy,
        pairs=[],
        legs=[],
        isolation=testbed.task_isolation(),
        leg_estimates=job.leg_estimates,
        leg_failures=job.leg_failures,
    )
    totals = {
        "pairs_attempted": 0,
        "probes_sent": 0,
        "probes_saved": 0,
        "early_stops": 0,
        "legs_measured": 0,
        "chunks": 0,
        "makespan_ms": 0.0,
    }
    try:
        if host.events.enabled:
            host.events.info("shard", "worker_started", worker=job.shard_index)
        while True:
            task = next_task()
            if task is None:
                break
            chunk_id, items = task
            if telemetry is not None:
                # Claim heartbeat: the stolen total moves *before* the
                # chunk runs, so the parent can attribute load live.
                if not legs:
                    telemetry.pairs_total += len(items)
                telemetry.beat(force=True)
            if legs:
                chunk = campaign.run_legs(items)
                estimates, reasons = campaign.leg_estimates, campaign.leg_failures
                entries = [(fp, estimates[fp]) for fp in items if fp in estimates]
                failures = [(fp, reasons[fp]) for fp in items if fp in reasons]
            else:
                chunk = campaign.run_pairs(items)
                if chunk.legs_measured:
                    # The duplicated-work guard: the leg round covers
                    # every pair-touched relay with an estimate or a
                    # failure, so a pair chunk never launches a leg.
                    raise MeasurementError(
                        f"shard {job.shard_index} chunk {chunk_id} rebuilt "
                        f"{chunk.legs_measured} leg circuit(s) the leg phase "
                        "should have pre-warmed"
                    )
                entries = list(chunk.matrix.measured_pairs())
                failures = list(chunk.failures)
            totals["pairs_attempted"] += chunk.pairs_attempted
            totals["probes_sent"] += chunk.probes_sent
            totals["probes_saved"] += chunk.probes_saved
            totals["early_stops"] += chunk.early_stops
            totals["legs_measured"] += chunk.legs_measured
            totals["chunks"] += 1
            totals["makespan_ms"] += chunk.makespan_ms
            send(
                (
                    "chunk",
                    job.worker,
                    {
                        "chunk": chunk_id,
                        "entries": entries,
                        "failures": failures,
                        "pairs_attempted": chunk.pairs_attempted,
                        "legs_measured": chunk.legs_measured,
                    },
                )
            )
        if host.events.enabled:
            host.events.info(
                "shard",
                "worker_finished",
                worker=job.shard_index,
                chunks=totals["chunks"],
                pairs=totals["pairs_attempted"],
            )
        if telemetry is not None:
            # Final forced beat so the parent's tracker lands on 100%.
            telemetry.beat(force=True)
    finally:
        if telemetry is not None and bus is not None:
            bus.remove_sink(telemetry)
            testbed.sim.on_batch = None
    return ShardResult(
        shard_index=job.shard_index,
        entries=[],
        failures=[],
        pairs_attempted=totals["pairs_attempted"],
        events_processed=testbed.sim.events_processed - events_start,
        cells_processed=_testbed_cells(testbed) - cells_start,
        makespan_ms=totals["makespan_ms"],
        wall_s=time.perf_counter() - started,
        cpu_s=time.process_time() - cpu_started,
        probes_sent=totals["probes_sent"],
        probes_saved=totals["probes_saved"],
        early_stops=totals["early_stops"],
        legs_measured=totals["legs_measured"],
        chunks=totals["chunks"],
        **(
            {name: getattr(host, name).snapshot() for name in _SINKS}
            if job.observe
            else {}
        ),
    )


def _absorb_chunks(result: ShardResult, payloads: list[dict]) -> None:
    """Fold a worker's streamed chunk payloads back into its result.

    Chunks are re-sorted by chunk id so the entry order is deterministic
    regardless of steal order; the values themselves are steal-order
    independent already (task isolation).
    """
    for payload in sorted(payloads, key=lambda p: p["chunk"]):
        result.entries.extend(tuple(entry) for entry in payload["entries"])
        result.failures.extend(tuple(item) for item in payload["failures"])


class ShardedCampaign:
    """All-pairs Ting campaign: a leg round and a pair round, both stolen.

    ``factory`` is any zero-argument callable returning a testbed with
    ``relays``, ``measurement``, ``sim``, and ``task_isolation()`` — in
    practice ``functools.partial(LiveTorTestbed.build, seed=...,
    n_relays=...)``. The factory runs **once, in the parent**; forked
    workers inherit the built testbed copy-on-write (v1 rebuilt the
    world per worker). ``fingerprints`` names the relay subset to
    measure (order fixes the matrix's node order). ``pairs`` optionally
    restricts the campaign to a pair subset; by default all C(n,2)
    pairs are measured.

    ``steal_chunk_pairs`` sets the work-stealing granularity of both
    rounds (pairs per pair chunk, relays per leg chunk): smaller chunks
    balance better but cross the fork boundary more often.
    ``force_inline=True`` emulates the worker loop in-process with a
    deterministic chunk deal — the invariance tests' comparison mode,
    and what the pool does by itself on a platform without fork.
    ``clamp_to_cpus=True`` caps the *forked* worker count at the
    schedulable CPU count (forking past the core count is pure overhead;
    stealing makes the cap result-invariant), collapsing to the inline
    emulation when only one CPU is available. Forked workers each run on
    their own share of the parent's CPU mask.

    ``telemetry`` opts into live streaming (heartbeats, watchdog,
    progress — see :class:`CampaignTelemetry`); ``worker_timeout_s``
    bounds each round's forked-worker wall time independently of
    telemetry, so a runaway worker fails the campaign naming its round
    and index instead of blocking ``run()`` forever (an OS-killed one
    fails it within a second either way).
    """

    def __init__(
        self,
        factory: Callable[[], object],
        fingerprints: Sequence[str],
        policy: SamplePolicy | None = None,
        workers: int = 4,
        pairs: Sequence[tuple[str, str]] | None = None,
        observe: bool = False,
        telemetry: CampaignTelemetry | None = None,
        worker_timeout_s: float | None = None,
        steal_chunk_pairs: int = 8,
        force_inline: bool = False,
        clamp_to_cpus: bool = False,
    ) -> None:
        if len(fingerprints) < 2:
            raise MeasurementError("need at least two relays for a campaign")
        if len(set(fingerprints)) != len(fingerprints):
            raise MeasurementError("duplicate fingerprints in campaign set")
        if workers < 0:
            raise MeasurementError("workers must be >= 0")
        if worker_timeout_s is not None and worker_timeout_s <= 0:
            raise MeasurementError("worker_timeout_s must be positive")
        if steal_chunk_pairs < 1:
            raise MeasurementError("steal_chunk_pairs must be >= 1")
        self.factory = factory
        self.fingerprints = list(fingerprints)
        self.policy = policy
        self.workers = workers
        #: Enable observability in every worker and merge the snapshots
        #: into one registry/span/provenance/event set on the report.
        self.observe = observe
        self.telemetry = telemetry
        self.worker_timeout_s = worker_timeout_s
        self.steal_chunk_pairs = steal_chunk_pairs
        #: Emulate the worker loop in-process (deterministic chunk deal)
        #: even when ``workers > 1``.
        self.force_inline = force_inline
        #: Cap *forked* workers at the schedulable CPU count. On a box
        #: with fewer cores than ``workers``, extra forks only add
        #: copy-on-write and timesharing overhead; work stealing makes
        #: the cap result-invariant. A cap of 1 falls back to the
        #: inline emulation (still ``workers`` logical shards).
        self.clamp_to_cpus = clamp_to_cpus
        if pairs is None:
            self.pairs = [
                (a, b)
                for i, a in enumerate(self.fingerprints)
                for b in self.fingerprints[i + 1 :]
            ]
        else:
            # Each once, either order: ``_merge`` counts rows.
            check_pairs(pairs, set(self.fingerprints))
            self.pairs = list(pairs)
        #: Relays that appear in at least one campaign pair, in
        #: fingerprint order. The leg round only measures these — under
        #: a planner-budgeted pair list there is no reason to pre-warm
        #: legs no pair will subtract. For an all-pairs campaign this is
        #: every fingerprint, so the historical behaviour is unchanged.
        touched = {fp for pair in self.pairs for fp in pair}
        self.touched_fingerprints = [
            fp for fp in self.fingerprints if fp in touched
        ]

    def _chunked(self, items: list) -> list[tuple[int, list]]:
        size = self.steal_chunk_pairs
        return [
            (start // size, items[start : start + size])
            for start in range(0, len(items), size)
        ]

    def pair_chunks(self) -> list[tuple[int, list[tuple[str, str]]]]:
        """The pair list cut into ``steal_chunk_pairs``-sized chunks.

        Contiguous chunks (not round-robin stripes): work stealing makes
        static balance irrelevant, and contiguous ids keep the merged
        entry order equal to the pair-list order.
        """
        return self._chunked(self.pairs)

    def leg_chunks(self) -> list[tuple[int, list[str]]]:
        """The pair-touched relays cut into chunks of the same size."""
        return self._chunked(self.touched_fingerprints)

    def _forked_workers(self, n_chunks: int) -> int:
        """How many processes a round of ``n_chunks`` forks (≤ 1: none)."""
        if self.workers <= 1 or self.force_inline:
            return 1
        forked = min(self.workers, max(1, n_chunks))
        if self.clamp_to_cpus:
            forked = min(forked, _schedulable_cpus())
        return forked

    def run(self) -> ShardedReport:
        """Steal every leg chunk, then every pair chunk; merge the results."""
        started = time.perf_counter()
        monitor = (
            _ShardMonitor(self.telemetry, len(self.pairs))
            if self.telemetry is not None
            else None
        )
        testbed = self.factory()
        build_s = time.perf_counter() - started
        by_fp = {relay.fingerprint: relay for relay in testbed.relays}
        missing = [fp for fp in self.fingerprints if fp not in by_fp]
        if missing:
            raise MeasurementError(
                f"factory-built testbed lacks relays {missing[:3]}"
                f"{'...' if len(missing) > 3 else ''}"
            )
        # Built once, before any fork: every worker of both rounds
        # shares this list instead of each walking all relays again.
        descriptors = [by_fp[fp].descriptor() for fp in self.fingerprints]
        round_started = time.perf_counter()
        sim_started = testbed.sim.campaign_ms
        leg_results = self._run_round(
            LEG_ROUND, self.leg_chunks(), testbed, descriptors, monitor, {}, {}
        )
        leg_result, leg_estimates, leg_failures = self._fold_leg_round(
            leg_results, time.perf_counter() - round_started, sim_started
        )
        results = self._run_round(
            PAIR_ROUND, self.pair_chunks(), testbed, descriptors, monitor,
            leg_estimates, leg_failures,
        )
        report = self._merge(results, leg_result)
        report.build_s = build_s
        if monitor is not None:
            report.stream = monitor.bus
            report.progress = monitor.progress
        report.wall_s = time.perf_counter() - started
        return report

    # ------------------------------------------------------------------

    def _run_round(
        self,
        kind: str,
        chunks: list[tuple[int, list]],
        testbed: Any,
        descriptors: list[RelayDescriptor],
        monitor: _ShardMonitor | None,
        leg_estimates: dict[str, float],
        leg_failures: dict[str, str],
    ) -> list[ShardResult]:
        """Run one round — every chunk stolen once — forked or inline.

        The same function serves the leg round and the pair round: what
        differs is what a chunk holds and what its rows mean, and that
        lives in :func:`_run_worker`. Both go through
        :func:`~repro.util.cpus.run_pool`, forked (workers steal off one
        shared queue) or inline (worker *i* runs ``chunks[i::W]`` on the
        shared testbed, one worker after the other). Chunk messages are
        keyed by worker slot and kept here; heartbeats and events are
        keyed by shard label and go to the monitor, whose stall check is
        the pool's watch hook. Returns one result per worker, in worker
        order, each with its chunks' rows folded back in.
        """
        legs = kind == LEG_ROUND
        forked = self._forked_workers(len(chunks))
        # The inline emulation keeps the full logical worker fleet.
        n_workers = forked if forked > 1 else max(1, min(self.workers, len(chunks)))
        jobs = [
            _WorkerJob(
                testbed=testbed,
                descriptors=descriptors,
                policy=self.policy,
                round=kind,
                worker=worker,
                shard_index=LEG_PHASE if legs else worker,
                observe=self.observe,
                leg_estimates=leg_estimates,
                leg_failures=leg_failures,
                telemetry=self.telemetry,
            )
            for worker in range(n_workers)
        ]
        payloads: list[list[dict]] = [[] for _ in jobs]

        def on_message(msg: tuple) -> None:
            if msg[0] == "chunk":
                payloads[msg[1]].append(msg[2])
                msg = ("chunk", jobs[msg[1]].shard_index)  # liveness only
            if monitor is not None:
                monitor.handle(msg)

        watch = None
        if monitor is not None:
            for shard in {job.shard_index for job in jobs}:
                monitor.register(shard)

            def watch(pending: set[int], now: float) -> None:
                monitor.watch({jobs[i].shard_index for i in pending}, now)

        results = run_pool(
            jobs,
            [job.name for job in jobs],
            _run_worker,
            tasks=chunks,
            on_message=on_message,
            watch=watch,
            deadline_s=self.worker_timeout_s,
            inline=forked <= 1,
        )
        for result, chunk_payloads in zip(results, payloads):
            _absorb_chunks(result, chunk_payloads)
        return results

    def _fold_leg_round(
        self, results: list[ShardResult], wall_s: float, sim_started: float
    ) -> tuple[ShardResult, dict[str, float], dict[str, str]]:
        """One :data:`LEG_PHASE` result and the leg caches, from the
        leg round's per-worker results.

        Counters sum; ``makespan_ms`` is the slowest worker's simulated
        time; ``wall_s`` is the round's wall, not a worker's.
        Observability snapshots merge in worker order. The caches come
        back in campaign order, so what the pair round inherits does
        not depend on who measured which leg.
        """
        measured = {fp: rtt for result in results for fp, rtt in result.entries}
        failed = {fp: why for result in results for fp, why in result.failures}
        order = self.touched_fingerprints
        leg_estimates = {fp: measured[fp] for fp in order if fp in measured}
        leg_failures = {fp: failed[fp] for fp in order if fp in failed}
        folded = ShardResult(
            shard_index=LEG_PHASE,
            entries=[],
            failures=[],
            pairs_attempted=0,
            events_processed=sum(r.events_processed for r in results),
            cells_processed=sum(r.cells_processed for r in results),
            makespan_ms=max(r.makespan_ms for r in results),
            wall_s=wall_s,
            cpu_s=sum(r.cpu_s for r in results),
            probes_sent=sum(r.probes_sent for r in results),
            probes_saved=sum(r.probes_saved for r in results),
            early_stops=sum(r.early_stops for r in results),
            legs_measured=sum(r.legs_measured for r in results),
            chunks=sum(r.chunks for r in results),
        )
        if self.observe:
            sinks = {name: make() for name, make in _SINKS.items()}
            # The round is the sharded campaign's one ``campaign`` span:
            # from the fork, for as long as its slowest worker ran.
            sinks["spans"].merge_snapshot(
                [
                    {
                        "name": CAMPAIGN_SPAN,
                        "start_ms": sim_started,
                        "dur_ms": folded.makespan_ms,
                        "track": 0,
                        "shard": LEG_PHASE,
                        "args": {"relays": len(order), "pairs": 0},
                    }
                ]
            )
            base = 1  # the round's own span holds track 0
            for result in results:
                # Workers of one round overlap in simulated time and
                # share the shard label: give each its own tracks.
                shifted = [
                    {**span, "track": span["track"] + base} for span in result.spans
                ]
                base += 1 + max((s["track"] for s in result.spans), default=-1)
                for name, sink in sinks.items():
                    sink.merge_snapshot(
                        shifted if name == "spans" else getattr(result, name)
                    )
            for name, sink in sinks.items():
                setattr(folded, name, sink.snapshot())
        return folded, leg_estimates, leg_failures

    def _merge(
        self, results: list[ShardResult], leg_result: ShardResult | None = None
    ) -> ShardedReport:
        matrix = RttMatrix(self.fingerprints)
        report = ShardedReport(matrix=matrix, workers=max(1, self.workers))
        if self.observe:
            for name, make in _SINKS.items():
                setattr(report, name, make())
        ordered = ([] if leg_result is None else [leg_result]) + sorted(
            results, key=lambda r: r.shard_index
        )
        for result in ordered:
            rows = len(result.entries) + len(result.failures)
            if result.shard_index != LEG_PHASE and rows != result.pairs_attempted:
                # One row per attempted pair: fewer is a chunk that never arrived.
                raise MeasurementError(
                    f"shard {result.shard_index} shipped {rows} rows for "
                    f"{result.pairs_attempted} pairs attempted"
                )
            for a, b, rtt in result.entries:
                if matrix.has(a, b):
                    raise MeasurementError(
                        f"pair ({a}, {b}) measured by two shards"
                    )
                matrix.set(a, b, rtt)
            report.failures.extend(result.failures)
            report.pairs_attempted += result.pairs_attempted
            report.events_processed += result.events_processed
            report.cells_processed += result.cells_processed
            report.probes_sent += result.probes_sent
            report.probes_saved += result.probes_saved
            report.early_stops += result.early_stops
            report.legs_measured += result.legs_measured
            if result.shard_index == LEG_PHASE:
                report.leg_phase = result
            else:
                report.shards.append(result)
            self._merge_observability(report, result)
        report.pairs_measured = matrix.num_measured
        return report

    def _merge_observability(
        self, report: ShardedReport, result: ShardResult
    ) -> None:
        """Fold one shard's observability snapshots into the report.

        One ``merge_snapshot(snap, shard=<index>)`` per sink (``-1`` =
        leg phase), so attribution survives the merge; what each sink
        does with it — counters sum, rows are adopted and tagged — is
        the sink's own rule. Leg-provenance rows keep ``shard=None``:
        the leg round belongs to the campaign.
        """
        if self.observe:
            for name in _SINKS:
                getattr(report, name).merge_snapshot(
                    getattr(result, name), shard=result.shard_index
                )
