"""Deterministic discrete-event simulation engine.

A :class:`Simulator` owns a virtual clock (milliseconds) and a binary heap
of pending events. Events scheduled for the same instant fire in the order
they were scheduled (a monotonically increasing sequence number breaks
ties), which makes every run bit-for-bit reproducible.

The engine is intentionally minimal: callbacks, timers, and a blocking
``run``. Higher layers (transport, Tor relays, the Ting measurer) build
request/response patterns out of callbacks; nothing in the library uses
threads or wall-clock time.

One shortcut lives here because only the engine can police it: a
**flight** (:meth:`Simulator.launch_flight`). A layer that can work out,
inside one event, everything a chain of its own future events would do
— and that nothing else is due before the chain ends
(:meth:`Simulator.quiet_through`) — schedules the chain's last event
alone. The engine holds it to that promise: anything scheduled to fire
before a flight lands takes the flight back first, and the layer redoes
it event by event (:meth:`Simulator.ground_flight`).
"""

from __future__ import annotations

import heapq
import itertools
import time
from math import inf
from typing import Any, Callable

from repro.obs import NULL_EVENTS, NULL_METRICS
from repro.util.errors import SimulationError
from repro.util.units import Milliseconds


class EventHandle(list):
    """One scheduled event: both the heap entry and the handle
    :meth:`Simulator.schedule` returns.

    The layout is ``[time, seq, callback, args, cancelled, done, sim]``.
    Lists compare lexicographically in C and ``seq`` is unique, so the
    heap orders on ``(time, seq)`` without calling into Python and the
    comparison never reaches the callback. Campaigns push tens of
    millions of these: one object per event, no Python-level compare.
    """

    __slots__ = ()

    @property
    def time(self) -> Milliseconds:
        """The simulated time at which the event will fire."""
        return self[0]

    @property
    def seq(self) -> int:
        """Scheduling order; breaks ties between events at one instant."""
        return self[1]

    @property
    def callback(self) -> Callable[..., None]:
        """The function the event calls when it fires."""
        return self[2]

    @property
    def cancelled(self) -> bool:
        """Whether :meth:`cancel` has been called on this handle."""
        return self[4]

    def cancel(self) -> None:
        """Prevent the event from firing. Idempotent."""
        # ``done`` (index 5) is set once the event has left the heap
        # (fired or purged); a cancel after that must not perturb the
        # simulator's cancelled-count.
        if self[4] or self[5]:
            return
        self[4] = True
        self[6]._note_cancelled()


class Simulator:
    """A deterministic event loop over a virtual millisecond clock.

    Cancelled events are not left to rot until their (possibly
    far-future) timestamps: the simulator counts live cancellations and
    compacts the heap whenever they outnumber the live entries. Event
    ordering is total — ``(time, seq)`` — so a compaction (filter +
    re-heapify) cannot change the firing order; runs remain bit-for-bit
    reproducible.
    """

    #: Compaction trigger floor: below this many pending cancellations
    #: the heap is left alone (re-heapifying tiny heaps buys nothing).
    COMPACTION_MIN_CANCELLED = 64

    #: Events processed between batch-bookkeeping ticks. A tick reads
    #: the wall clock once (stall detection) and pumps ``on_batch``
    #: (worker heartbeats), so the hot loop pays one integer decrement
    #: per event rather than a syscall. The count is of *events*, not of
    #: work: a flown ping-pong probe is one event, a cell-path one 18, a
    #: walked round of 200 probes one. On the ``highacc_serial`` shape
    #: (2-vCPU x86: 1,147 events a campaign, 0.051–0.108 s of host time)
    #: a batch spans 0.18–0.39 s: the margin under ``STALL_THRESHOLD_S``
    #: is ≥ 2.5× (≈ 20× when each walked probe landed as an event).
    BATCH_EVENTS = 4096

    #: Wall seconds one batch may take before an ``engine`` /
    #: ``event_loop_stall`` warning event fires.
    STALL_THRESHOLD_S = 1.0

    def __init__(self) -> None:
        #: Current simulated time in milliseconds: a plain attribute (it is
        #: read on every event) that only the engine writes.
        self.now: Milliseconds = 0.0
        # Simulated time that passed before the last clock restart.
        self._restarted_ms: Milliseconds = 0.0
        self._heap: list[EventHandle] = []
        self._seq = itertools.count()
        self._events_processed = 0
        self._running = False
        self._cancelled_pending = 0
        self._events_cancelled = 0
        self._heap_compactions = 0
        self._compaction_purged = 0
        self._heap_peak = 0
        self.compaction_min_cancelled = self.COMPACTION_MIN_CANCELLED
        #: Observability sinks; no-ops unless a live registry is wired in
        #: (see ``MeasurementHost.enable_observability``).
        self.metrics = NULL_METRICS
        self.events = NULL_EVENTS
        #: Called every :data:`BATCH_EVENTS` processed events while the
        #: loop runs — how shard workers pump heartbeats from *inside*
        #: a long simulation, not just between tasks.
        self.on_batch: Callable[[], None] | None = None
        self.stall_threshold_s = self.STALL_THRESHOLD_S
        self._batch_left = self.BATCH_EVENTS
        self._batch_wall: float | None = None
        # ``until`` of the run() in progress (``inf`` outside one).
        self._run_until: Milliseconds = inf
        # The flight in the air: its landing event, when it lands
        # (``-inf`` with none, so ``schedule_at`` pays one comparison),
        # when taking it back is exact (its launch) and how to (``None``
        # with no flight up).
        self._flight: EventHandle | None = None
        self._flight_lands: Milliseconds = -inf
        self._flight_launched: Milliseconds = 0.0
        self._flight_take_back: Callable[[], bool] | None = None

    @property
    def campaign_ms(self) -> Milliseconds:
        """Simulated time since the simulator was made, clock restarts
        included (``now`` if there were none): what span and
        event-bus stamps read, so that nothing reported runs backwards."""
        return self._restarted_ms + self.now

    def restart_clock(self) -> None:
        """Set ``now`` back to zero, so that what follows computes the
        same floats whatever ran before it (task isolation, at the head
        of every task). Only an idle simulator has no absolute time left
        in it: a live event, a flight up or a run in progress raises
        :class:`SimulationError`; cancelled entries of the old clock are
        dropped (not a compaction: nothing is re-ordered)."""
        up = self._flight is not None
        if self._running or up or not all(event[4] for event in self._heap):
            raise SimulationError(
                "cannot restart the clock of a simulator that is not idle "
                f"(running={self._running}, flight up={up}, "
                f"pending={len(self._heap) - self._cancelled_pending})"
            )
        for event in self._heap:
            event[5] = True  # done
        self._heap.clear()
        self._cancelled_pending = 0
        self._restarted_ms += self.now
        self.now = 0.0

    @property
    def events_processed(self) -> int:
        """Total number of events executed so far."""
        return self._events_processed

    @property
    def pending(self) -> int:
        """Number of events still queued (including cancelled ones)."""
        return len(self._heap)

    @property
    def cancelled_pending(self) -> int:
        """Cancelled events still occupying heap slots."""
        return self._cancelled_pending

    @property
    def events_cancelled(self) -> int:
        """Total cancellations over the simulator's lifetime."""
        return self._events_cancelled

    @property
    def heap_compactions(self) -> int:
        """How many times the heap was compacted to purge cancellations."""
        return self._heap_compactions

    @property
    def heap_peak(self) -> int:
        """The largest heap size observed so far."""
        return self._heap_peak

    def schedule(
        self,
        delay: Milliseconds,
        callback: Callable[..., None],
        *args: Any,
    ) -> EventHandle:
        """Schedule ``callback(*args)`` to run ``delay`` ms from now."""
        if not delay >= 0:  # also refuses NaN, which ``delay < 0`` lets through
            raise SimulationError(f"cannot schedule into the past: delay={delay}")
        return self.schedule_at(self.now + delay, callback, *args)

    def schedule_at(
        self,
        time: Milliseconds,
        callback: Callable[..., None],
        *args: Any,
    ) -> EventHandle:
        """Schedule ``callback(*args)`` at absolute simulated time ``time``."""
        if not time >= self.now:  # also refuses NaN: it would corrupt heap order
            raise SimulationError(
                f"cannot schedule into the past: time={time} < now={self.now}"
            )
        if time <= self._flight_lands:
            # This event would fire while a flight is in the air (a tie
            # too: the chain's last event would be scheduled after it).
            self.ground_flight()
        event = EventHandle(
            (time, next(self._seq), callback, args, False, False, self)
        )
        heapq.heappush(self._heap, event)
        if len(self._heap) > self._heap_peak:
            self._heap_peak = len(self._heap)
        return event

    # ------------------------------------------------------------------
    # Flights

    def quiet_through(self, time: Milliseconds) -> bool:
        """Whether nothing already arranged happens at or before ``time``.

        "Arranged" is a live pending event — cancelled entries are
        looked past, as :meth:`run` would skip them, but left where they
        are, so asking never changes what the heap holds — or the
        ``until`` of the run in progress falling short of ``time``.

        A heap orders parents before children, so the entries due by
        ``time`` form a subtree under the root and only they are
        visited: with the next entry later than ``time`` (the common
        case — a serial prober's heap is far-future timers, most of them
        cancelled) this is one comparison.
        """
        if self._run_until < time:
            return False
        heap = self._heap
        if not heap or heap[0][0] > time:
            return True
        size = len(heap)
        due = [0]
        while due:
            index = due.pop()
            event = heap[index]
            if event[0] > time:
                continue
            if not event[4]:  # live
                return False
            index = 2 * index + 1
            if index < size:
                due.append(index)
                if index + 1 < size:
                    due.append(index + 1)
        return True

    def launch_flight(
        self,
        lands_at: Milliseconds,
        land: Callable[[], None],
        take_back: Callable[[], bool],
    ) -> bool:
        """Schedule ``land()`` as the one event of a flight.

        The caller has already worked out, from now to ``lands_at``,
        what a chain of its own events would have done, and needs
        nothing else to happen in between. If something is due at or
        before ``lands_at`` (:meth:`quiet_through`; a tie counts)
        nothing is scheduled and the answer is ``False``: the caller
        undoes its work. Otherwise the flight is *in the air* until the
        landing fires, and the engine keeps it alone there — see
        :meth:`ground_flight`. ``take_back()`` must undo everything the
        caller did for the flight, redo it event by event, and return
        whether that reproduces the chain exactly.
        """
        if self._flight is not None:
            raise SimulationError("a flight is already in the air")
        if not self.quiet_through(lands_at):
            return False
        self._flight = self.schedule_at(lands_at, self._flight_landed, land)
        self._flight_lands = lands_at
        self._flight_launched = self.now
        self._flight_take_back = take_back
        return True

    def _flight_landed(self, land: Callable[[], None]) -> None:
        self._flight = self._flight_take_back = None
        self._flight_lands = -inf
        land()

    def ground_flight(self) -> None:
        """Take back the flight in the air, if any.

        Called by whoever is about to do something the flight did not
        foresee: :meth:`schedule_at` for an event that would fire before
        the landing, :meth:`run` when its ``until`` falls before it, and
        the flight's own layer before it acts again. The landing event
        leaves the heap uncounted (it is not a cancellation) and the
        flight's ``take_back`` redoes the chain event by event. That is
        exact only at the instant of launch — same clock, so no event
        has fired since. Later (a bounded ``run(until=...)`` moved the
        clock while the flight was up), or if ``take_back`` finds its
        random streams were drawn from in between, the two orders cannot
        be reconciled and :class:`SimulationError` says so rather than
        let the draws interleave silently.
        """
        take_back = self._flight_take_back
        if take_back is None:
            return
        event, lands = self._flight, self._flight_lands
        self._flight = self._flight_take_back = None
        self._flight_lands = -inf
        self._heap.remove(event)
        heapq.heapify(self._heap)
        event[5] = True  # done
        if self.now != self._flight_launched or not take_back():
            raise SimulationError(
                f"a probe flight launched at {self._flight_launched!r} ms lands at "
                f"{lands!r} ms, but something else was arranged to happen "
                f"before then (now={self.now!r} ms) and the flight can no "
                "longer be replayed event by event; run the simulator past "
                "the landing before scheduling, or send before a bounded run()"
            )

    def _note_cancelled(self) -> None:
        """Bookkeeping for one live cancellation; compacts when due.

        Every echo run schedules a far-future deadline and cancels it on
        success, so long campaigns would otherwise accumulate hundreds of
        thousands of dead heap entries. Compaction keeps the heap sized
        to its live events.
        """
        self._cancelled_pending += 1
        self._events_cancelled += 1
        if (
            self._cancelled_pending >= self.compaction_min_cancelled
            and self._cancelled_pending * 2 > len(self._heap)
        ):
            self._compact()

    def _compact(self) -> None:
        """Drop cancelled entries and re-heapify.

        Ordering is total on ``(time, seq)``, so rebuilding the heap from
        the surviving events pops in exactly the same order as before.
        """
        purged = self._cancelled_pending
        for event in self._heap:
            if event[4]:  # cancelled
                event[5] = True  # done
        # In place: run() holds the list in a local.
        self._heap[:] = [event for event in self._heap if not event[4]]
        heapq.heapify(self._heap)
        self._cancelled_pending = 0
        self._compaction_purged += purged
        self._heap_compactions += 1
        self.metrics.inc("sim.heap_compactions")
        self.metrics.inc("sim.heap_compaction_purged", purged)
        if self.events.enabled:
            self.events.info(
                "engine", "heap_compaction", purged=purged, live=len(self._heap)
            )

    def _batch_tick(self) -> None:
        """Per-batch bookkeeping: stall detection plus the batch hook.

        Compares one wall-clock read per :data:`BATCH_EVENTS` events
        against the previous tick; a batch that took longer than
        ``stall_threshold_s`` means the *host* is struggling (swap, CPU
        starvation, a pathological callback) even though simulated time
        is marching — exactly the situation a silent worker hides.
        """
        self._batch_left = self.BATCH_EVENTS
        now_wall = time.perf_counter()
        last_wall = self._batch_wall
        self._batch_wall = now_wall
        if last_wall is not None and self.events.enabled:
            elapsed = now_wall - last_wall
            if elapsed > self.stall_threshold_s:
                self.events.warning(
                    "engine",
                    "event_loop_stall",
                    batch_wall_s=round(elapsed, 3),
                    batch_events=self.BATCH_EVENTS,
                    pending=len(self._heap),
                )
        if self.on_batch is not None:
            self.on_batch()

    def run(
        self,
        until: Milliseconds | None = None,
        max_events: int | None = None,
        stop_when: Callable[[], bool] | None = None,
    ) -> None:
        """Process events in timestamp order.

        Stops when the queue is empty, when the next event lies beyond
        ``until`` (the clock is then advanced *to* ``until``), after
        ``max_events`` events, or as soon as ``stop_when()`` returns true
        (checked after every event) — whichever comes first.
        """
        if self._running:
            raise SimulationError("Simulator.run() is not reentrant")
        if until is not None:
            if self._flight is not None and until < self._flight[0]:
                # The run would return with the clock moved and the
                # flight still up: redo it as events while that is exact.
                self.ground_flight()
            self._run_until = until
        self._running = True
        # Wall time spent *between* run() calls must not read as a
        # stall; the first batch tick of each run just baselines.
        self._batch_wall = None
        # The heap is only ever changed in place, so a local stays it.
        heap, heappop = self._heap, heapq.heappop
        try:
            processed = 0
            while heap:
                if max_events is not None and processed >= max_events:
                    break
                # Indexed, not through the properties: this is the hot
                # loop. [time, seq, callback, args, cancelled, done, sim]
                event = heap[0]
                if event[4]:  # cancelled
                    heappop(heap)
                    event[5] = True  # done
                    self._cancelled_pending -= 1
                    continue
                if until is not None and event[0] > until:
                    break
                heappop(heap)
                event[5] = True
                self.now = event[0]
                event[2](*event[3])
                self._events_processed += 1
                processed += 1
                self._batch_left -= 1
                if not self._batch_left:
                    self._batch_tick()
                if stop_when is not None and stop_when():
                    break
            if until is not None and self.now < until:
                self.now = until
        finally:
            self._running = False
            self._run_until = inf
            metrics = self.metrics
            if metrics.enabled:
                metrics.set_gauge("sim.events_processed", self._events_processed)
                metrics.set_gauge("sim.events_cancelled", self._events_cancelled)
                metrics.set_gauge("sim.heap_pending", len(self._heap))
                metrics.max_gauge("sim.heap_peak", self._heap_peak)
                metrics.set_gauge(
                    "sim.cancelled_ratio",
                    self._cancelled_pending / len(self._heap) if self._heap else 0.0,
                )

    def run_until_idle(self, max_events: int = 50_000_000) -> None:
        """Run until no events remain; guard against runaway loops."""
        self.run(max_events=max_events)
        if self._heap and not all(e[4] for e in self._heap):
            raise SimulationError(
                f"simulation did not quiesce within {max_events} events"
            )

    def __repr__(self) -> str:
        return (
            f"Simulator(now={self.now:.3f}ms, pending={len(self._heap)}, "
            f"processed={self._events_processed})"
        )
