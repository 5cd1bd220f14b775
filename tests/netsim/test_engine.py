"""Unit tests for the discrete-event engine."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.netsim import EventHandle
from repro.netsim.engine import Simulator
from repro.util.errors import SimulationError


class TestScheduling:
    def test_clock_starts_at_zero(self):
        assert Simulator().now == 0.0

    def test_event_fires_at_scheduled_time(self):
        sim = Simulator()
        fired_at = []
        sim.schedule(5.0, lambda: fired_at.append(sim.now))
        sim.run()
        assert fired_at == [5.0]

    def test_events_fire_in_time_order(self):
        sim = Simulator()
        order = []
        sim.schedule(10.0, order.append, "late")
        sim.schedule(1.0, order.append, "early")
        sim.schedule(5.0, order.append, "middle")
        sim.run()
        assert order == ["early", "middle", "late"]

    def test_ties_fire_in_scheduling_order(self):
        sim = Simulator()
        order = []
        for i in range(10):
            sim.schedule(3.0, order.append, i)
        sim.run()
        assert order == list(range(10))

    def test_callback_args_passed_through(self):
        sim = Simulator()
        got = []
        sim.schedule(1.0, lambda a, b: got.append((a, b)), "x", 2)
        sim.run()
        assert got == [("x", 2)]

    def test_nested_scheduling_from_callback(self):
        sim = Simulator()
        times = []

        def outer():
            times.append(sim.now)
            sim.schedule(2.0, inner)

        def inner():
            times.append(sim.now)

        sim.schedule(1.0, outer)
        sim.run()
        assert times == [1.0, 3.0]

    def test_schedule_negative_delay_rejected(self):
        with pytest.raises(SimulationError):
            Simulator().schedule(-0.1, lambda: None)

    def test_schedule_at_past_rejected(self):
        sim = Simulator()
        sim.schedule(5.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.schedule_at(1.0, lambda: None)

    def test_zero_delay_event_runs(self):
        sim = Simulator()
        hit = []
        sim.schedule(0.0, hit.append, 1)
        sim.run()
        assert hit == [1]

    def test_nan_delay_rejected(self):
        # ``delay < 0`` is False for NaN: it used to be pushed, and an
        # unordered key silently corrupts the heap.
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule(float("nan"), lambda: None)
        assert sim.pending == 0

    def test_nan_time_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule_at(float("nan"), lambda: None)
        assert sim.pending == 0


class TestCancellation:
    def test_cancelled_event_does_not_fire(self):
        sim = Simulator()
        hit = []
        handle = sim.schedule(1.0, hit.append, 1)
        handle.cancel()
        sim.run()
        assert hit == []

    def test_cancel_is_idempotent(self):
        sim = Simulator()
        handle = sim.schedule(1.0, lambda: None)
        handle.cancel()
        handle.cancel()
        assert handle.cancelled

    def test_cancel_after_fire_is_harmless(self):
        sim = Simulator()
        handle = sim.schedule(1.0, lambda: None)
        sim.run()
        handle.cancel()  # no error

    def test_handle_reports_time(self):
        sim = Simulator()
        handle = sim.schedule(7.5, lambda: None)
        assert handle.time == 7.5

    def test_handle_is_the_heap_entry_and_stays_readable(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)

        def callback():
            pass

        handle = sim.schedule(7.5, callback)
        assert isinstance(handle, EventHandle)
        assert any(entry is handle for entry in sim._heap)
        assert (handle.time, handle.seq, handle.callback) == (7.5, 1, callback)
        assert handle.cancelled is False
        handle.cancel()
        assert handle.cancelled is True


class TestRunControl:
    def test_run_until_stops_before_later_events(self):
        sim = Simulator()
        hit = []
        sim.schedule(1.0, hit.append, "a")
        sim.schedule(10.0, hit.append, "b")
        sim.run(until=5.0)
        assert hit == ["a"]
        assert sim.now == 5.0

    def test_run_until_advances_clock_when_idle(self):
        sim = Simulator()
        sim.run(until=42.0)
        assert sim.now == 42.0

    def test_max_events_limits_processing(self):
        sim = Simulator()
        hit = []
        for i in range(5):
            sim.schedule(float(i), hit.append, i)
        sim.run(max_events=2)
        assert hit == [0, 1]

    def test_run_is_not_reentrant(self):
        sim = Simulator()

        def recurse():
            sim.run()

        sim.schedule(1.0, recurse)
        with pytest.raises(SimulationError):
            sim.run()

    def test_events_processed_counter(self):
        sim = Simulator()
        for i in range(3):
            sim.schedule(float(i), lambda: None)
        sim.run()
        assert sim.events_processed == 3

    def test_run_until_idle_raises_on_runaway(self):
        sim = Simulator()

        def forever():
            sim.schedule(1.0, forever)

        sim.schedule(1.0, forever)
        with pytest.raises(SimulationError):
            sim.run_until_idle(max_events=100)

    def test_pending_counts_queued_events(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        assert sim.pending == 2


class TestHeapCompaction:
    def test_cancellations_below_floor_left_in_heap(self):
        sim = Simulator()
        handles = [sim.schedule(float(i + 1), lambda: None) for i in range(10)]
        for handle in handles[:5]:
            handle.cancel()
        # Too few cancellations to justify a re-heapify.
        assert sim.heap_compactions == 0
        assert sim.cancelled_pending == 5
        assert sim.pending == 10

    def test_compaction_purges_cancelled_majority(self):
        sim = Simulator()
        sim.compaction_min_cancelled = 8
        handles = [sim.schedule(float(i + 1), lambda: None) for i in range(20)]
        for handle in handles[:11]:
            handle.cancel()
        assert sim.heap_compactions >= 1
        assert sim.cancelled_pending == 0
        # Only live events remain queued.
        assert sim.pending == 9

    def test_compaction_at_default_threshold(self):
        # The regression: every echo run cancels its far-future deadline,
        # so a long campaign used to accumulate dead entries forever.
        sim = Simulator()
        handles = [
            sim.schedule(600_000.0 + i, lambda: None) for i in range(200)
        ]
        for handle in handles[:150]:
            handle.cancel()
        assert sim.heap_compactions >= 1
        assert sim.pending < 200
        assert sim.events_cancelled == 150

    def test_compaction_preserves_firing_order_bit_for_bit(self):
        # (time, seq) ordering is total, so filter + heapify must pop the
        # survivors in exactly the order an uncompacted heap would.
        def run(min_cancelled: int) -> list[tuple[float, int]]:
            sim = Simulator()
            sim.compaction_min_cancelled = min_cancelled
            fired: list[tuple[float, int]] = []
            handles = []
            for i in range(100):
                delay = float((i * 37) % 50)  # many ties, shuffled order
                handles.append(
                    sim.schedule(delay, lambda d=delay, i=i: fired.append((d, i)))
                )
            for i, handle in enumerate(handles):
                if i % 3 == 0:
                    handle.cancel()
            sim.run()
            return fired

        compacted = run(min_cancelled=4)
        untouched = run(min_cancelled=10_000)
        assert compacted == untouched

    def test_cancel_after_fire_does_not_corrupt_counts(self):
        sim = Simulator()
        handle = sim.schedule(1.0, lambda: None)
        sim.run()
        handle.cancel()  # event already fired: must be a no-op
        assert sim.events_cancelled == 0
        assert sim.cancelled_pending == 0

    def test_cancel_after_purge_does_not_corrupt_counts(self):
        sim = Simulator()
        sim.compaction_min_cancelled = 2
        handles = [sim.schedule(float(i + 1), lambda: None) for i in range(4)]
        for handle in handles[:3]:
            handle.cancel()
        assert sim.cancelled_pending == 0  # compacted
        handles[0].cancel()  # already purged: must not go negative
        assert sim.cancelled_pending == 0
        assert sim.events_cancelled == 3

    def test_popped_cancelled_event_decrements_pending(self):
        sim = Simulator()
        handle = sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        handle.cancel()
        assert sim.cancelled_pending == 1
        sim.run()
        assert sim.cancelled_pending == 0

    def test_heap_peak_tracks_high_water_mark(self):
        sim = Simulator()
        for i in range(7):
            sim.schedule(float(i), lambda: None)
        sim.run()
        assert sim.heap_peak == 7
        assert sim.pending == 0

    def test_metrics_published_at_run_exit(self):
        from repro.obs import MetricsRegistry

        sim = Simulator()
        sim.metrics = MetricsRegistry()
        sim.compaction_min_cancelled = 2
        handles = [sim.schedule(float(i + 1), lambda: None) for i in range(6)]
        for handle in handles[:4]:
            handle.cancel()
        sim.run()
        assert sim.metrics.counter("sim.heap_compactions") >= 1
        assert sim.metrics.counter("sim.heap_compaction_purged") >= 1
        assert sim.metrics.gauge("sim.events_processed") == 2
        assert sim.metrics.gauge("sim.events_cancelled") == 4


class TestDeterminism:
    @given(
        delays=st.lists(
            st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
            min_size=1,
            max_size=50,
        )
    )
    def test_any_delay_set_fires_in_sorted_order(self, delays):
        sim = Simulator()
        fired = []
        for d in delays:
            sim.schedule(d, fired.append, d)
        sim.run()
        assert fired == sorted(fired)

    def test_identical_schedules_identical_traces(self):
        def trace():
            sim = Simulator()
            out = []
            sim.schedule(2.0, out.append, "b")
            sim.schedule(2.0, out.append, "c")
            sim.schedule(1.0, out.append, "a")
            sim.run()
            return out

        assert trace() == trace()


class _ListModel:
    """What the engine must do, as a plain list: pending entries fire in
    sorted ``(time, seq)`` order; cancellations are counted, and purged
    once they reach the floor and outnumber the live entries."""

    def __init__(self, floor: int) -> None:
        self.floor = floor
        self.now = 0.0
        self.seq = 0
        self.pending: list[dict] = []
        self.fired: list[int] = []
        self.events_cancelled = 0
        self.cancelled_pending = 0
        self.heap_compactions = 0

    def schedule(self, delay: float, ident: int, child_delay: float | None) -> dict:
        entry = {
            "time": self.now + delay,
            "seq": self.seq,
            "ident": ident,
            "child_delay": child_delay,
            "cancelled": False,
            "done": False,
        }
        self.seq += 1
        self.pending.append(entry)
        return entry

    def cancel(self, entry: dict) -> None:
        if entry["cancelled"] or entry["done"]:
            return
        entry["cancelled"] = True
        self.events_cancelled += 1
        self.cancelled_pending += 1
        if (
            self.cancelled_pending >= self.floor
            and self.cancelled_pending * 2 > len(self.pending)
        ):
            for other in self.pending:
                other["done"] = other["cancelled"]
            self.pending = [e for e in self.pending if not e["cancelled"]]
            self.cancelled_pending = 0
            self.heap_compactions += 1

    def run(self, until: float | None) -> None:
        while self.pending:
            entry = min(self.pending, key=lambda e: (e["time"], e["seq"]))
            if entry["cancelled"]:
                self.cancelled_pending -= 1
            elif until is not None and entry["time"] > until:
                break
            self.pending.remove(entry)
            entry["done"] = True
            if not entry["cancelled"]:
                self.now = entry["time"]
                self.fired.append(entry["ident"])
                if entry["child_delay"] is not None:
                    self.schedule(entry["child_delay"], -entry["ident"], None)
        if until is not None and self.now < until:
            self.now = until


#: Few distinct values, so equal times (ordered by ``seq`` alone) are common.
_delays = st.sampled_from((0.0, 0.5, 1.0, 1.0, 2.0, 7.0))
_ops = st.one_of(
    st.tuples(st.just("schedule"), _delays, st.none() | _delays),
    st.tuples(st.just("cancel"), st.integers(min_value=0, max_value=400)),
    st.tuples(st.just("run_until"), _delays),
    st.tuples(st.just("run")),
)


class TestListModelDifferential:
    @given(floor=st.sampled_from((2, 8, 64)), ops=st.lists(_ops, max_size=400))
    @settings(deadline=None)
    def test_fires_in_sorted_time_seq_order_of_a_list_model(self, floor, ops):
        sim = Simulator()
        sim.compaction_min_cancelled = floor
        model = _ListModel(floor)
        fired: list[int] = []
        handles: list[tuple[EventHandle, dict]] = []

        def fire(ident: int, child_delay: float | None) -> None:
            fired.append(ident)
            if child_delay is not None:
                sim.schedule(child_delay, fire, -ident, None)

        for op in ops:
            if op[0] == "schedule":
                ident = len(handles) + 1
                handles.append(
                    (
                        sim.schedule(op[1], fire, ident, op[2]),
                        model.schedule(op[1], ident, op[2]),
                    )
                )
            elif op[0] == "cancel":
                if handles:
                    # Any handle: pending, fired, cancelled or purged.
                    handle, entry = handles[op[1] % len(handles)]
                    handle.cancel()
                    model.cancel(entry)
                    assert handle.cancelled == entry["cancelled"]
            else:
                until = sim.now + op[1] if op[0] == "run_until" else None
                sim.run(until=until)
                model.run(until)
            assert fired == model.fired
            assert sim.now == model.now
            assert sim.pending == len(model.pending)
            assert sim.events_cancelled == model.events_cancelled
            assert sim.cancelled_pending == model.cancelled_pending
            assert sim.heap_compactions == model.heap_compactions
        assert sim.events_processed == len(fired)


class TestStopWhen:
    def test_stop_when_halts_immediately(self):
        sim = Simulator()
        hits = []
        for i in range(10):
            sim.schedule(float(i), hits.append, i)
        sim.run(stop_when=lambda: len(hits) >= 3)
        assert hits == [0, 1, 2]

    def test_stop_when_leaves_queue_intact(self):
        sim = Simulator()
        hits = []
        for i in range(5):
            sim.schedule(float(i), hits.append, i)
        sim.run(stop_when=lambda: len(hits) >= 2)
        assert sim.pending == 3
        sim.run()
        assert hits == [0, 1, 2, 3, 4]

    def test_stop_when_does_not_overshoot_clock(self):
        # The regression that inflated measurement durations: a pending
        # far-future timeout must not be processed once the condition
        # resolves.
        sim = Simulator()
        done = []
        sim.schedule(1.0, done.append, True)
        sim.schedule(600_000.0, done.append, "timeout")
        sim.run(stop_when=lambda: bool(done))
        assert sim.now == 1.0
        assert done == [True]


class TestFlights:
    """``quiet_through`` / ``launch_flight`` / ``ground_flight``: one event
    standing for a chain, and the engine keeping it alone in the air."""

    @staticmethod
    def _flight(sim, lands_at, replays_exactly=True):
        log = []

        def take_back():
            log.append(("taken back", sim.now))
            return replays_exactly

        launched = sim.launch_flight(
            lands_at,
            lambda *args: log.append(("landed", sim.now, args)),
            take_back,
            "a",
            1,
        )
        return launched, log

    def test_quiet_through_is_about_live_events_up_to_and_including_the_time(self):
        sim = Simulator()
        assert sim.quiet_through(1e9)
        sim.schedule(5.0, lambda: None)
        assert sim.quiet_through(4.999)
        assert not sim.quiet_through(5.0)  # a tie is not quiet
        assert not sim.quiet_through(6.0)

    def test_quiet_through_looks_past_cancelled_entries_and_leaves_them(self):
        sim = Simulator()
        early = [sim.schedule(float(i), lambda: None) for i in range(1, 8)]
        sim.schedule(50.0, lambda: None)
        for handle in early:
            handle.cancel()
        before = (sim.pending, sim.cancelled_pending)
        assert sim.quiet_through(49.0)
        assert not sim.quiet_through(50.0)
        assert (sim.pending, sim.cancelled_pending) == before

    def test_quiet_through_stops_at_the_until_of_the_run_in_progress(self):
        sim = Simulator()
        seen = []
        sim.schedule(
            1.0, lambda: seen.append((sim.quiet_through(9.0), sim.quiet_through(10.5)))
        )
        sim.run(until=10.0)
        assert seen == [(True, False)]
        assert sim.quiet_through(10.5)  # no run in progress any more

    def test_flight_lands_as_one_event(self):
        sim = Simulator()
        launched, log = self._flight(sim, 7.5)
        assert launched
        sim.run()
        assert log == [("landed", 7.5, ("a", 1))]
        assert sim.events_processed == 1

    def test_flight_is_refused_when_something_is_due_first_or_at_the_same_time(self):
        sim = Simulator()
        sim.schedule(7.5, lambda: None)
        launched, log = self._flight(sim, 7.5)
        assert not launched
        assert sim.pending == 1
        launched, _ = self._flight(sim, 7.4)
        assert launched

    def test_scheduling_before_the_landing_takes_the_flight_back_first(self):
        sim = Simulator()
        sim.schedule(100.0, lambda: None)
        _, log = self._flight(sim, 7.5)
        order = []
        sim.schedule(3.0, order.append, "early")
        assert log == [("taken back", 0.0)]
        # The landing left the heap without counting as a cancellation.
        assert (sim.pending, sim.events_cancelled) == (2, 0)
        sim.schedule(8.0, order.append, "late")
        sim.run()
        assert order == ["early", "late"]
        assert log == [("taken back", 0.0)]

    def test_scheduling_at_or_after_the_landing_leaves_the_flight_up(self):
        sim = Simulator()
        _, log = self._flight(sim, 7.5)
        sim.schedule(7.5001, lambda: log.append(("timer", sim.now)))
        sim.run()
        assert log == [("landed", 7.5, ("a", 1)), ("timer", 7.5001)]

    def test_a_tie_with_the_landing_takes_the_flight_back(self):
        # The chain's own last event would have been scheduled later
        # than this one and so fired after it; the landing would not.
        sim = Simulator()
        _, log = self._flight(sim, 7.5)
        sim.schedule(7.5, lambda: None)
        assert log == [("taken back", 0.0)]

    def test_bounded_run_short_of_the_landing_takes_the_flight_back(self):
        sim = Simulator()
        _, log = self._flight(sim, 7.5)
        sim.run(until=5.0)
        assert log == [("taken back", 0.0)]
        assert sim.now == 5.0

    def test_a_flight_that_cannot_be_replayed_fails_fast(self):
        # The regression: a bounded run() returned with a flight in the
        # air, and the caller arranged something before the landing that
        # the flight's owner cannot replay exactly.
        sim = Simulator()
        sim.schedule(0.0, lambda: self._flight(sim, 7.5, replays_exactly=False))
        sim.run(max_events=1)
        with pytest.raises(SimulationError, match=r"lands at 7\.5 ms"):
            sim.schedule(3.0, lambda: None)

    def test_one_flight_at_a_time(self):
        sim = Simulator()
        self._flight(sim, 7.5)
        with pytest.raises(SimulationError, match="already in the air"):
            self._flight(sim, 9.0)

    @staticmethod
    def _chain(sim, lands, log):
        """Flights landing at ``lands``, each launched inside the last
        one's landing, held through the last from the first launch."""

        def take_back():
            log.append(("taken back", sim.now))
            return True

        def land(k):
            log.append(("landed", sim.now))
            if k + 1 < len(lands) and not sim.launch_flight(
                lands[k + 1], land, take_back, k + 1
            ):
                sim.ground_flight()  # the layer takes the rest back itself

        assert sim.launch_flight(lands[0], land, take_back, 0)
        sim.hold(lands[-1])

    def test_a_held_chain_lands_flight_by_flight(self):
        sim, log = Simulator(), []
        self._chain(sim, [2.0, 4.0, 6.0], log)
        sim.run()
        assert log == [("landed", 2.0), ("landed", 4.0), ("landed", 6.0)]
        assert sim.events_processed == 3
        sim.schedule(0.5, lambda: log.append(("timer", sim.now)))  # nothing held
        sim.run()
        assert log[-1] == ("timer", 6.5) and len(log) == 4
        sim.restart_clock()

    def test_anything_due_before_a_held_chain_ends_grounds_it(self):
        sim, log = Simulator(), []
        self._chain(sim, [2.0, 4.0, 6.0], log)
        sim.run(max_events=1)  # the first landing; the second flight is up
        sim.schedule(3.0, lambda: log.append(("timer", sim.now)))
        assert log == [("landed", 2.0), ("taken back", 2.0)]
        sim.run()
        assert log[-1] == ("timer", 5.0) and sim.events_processed == 2

    def test_a_held_chain_is_grounded_between_a_landing_and_the_next_launch(self):
        sim, log = Simulator(), []

        def take_back():
            log.append(("taken back", sim.now))
            return True

        def land():
            log.append(("landed", sim.now))
            sim.schedule(1.0, lambda: log.append(("timer", sim.now)))

        assert sim.launch_flight(2.0, land, take_back)
        sim.hold(6.0)
        sim.run()
        assert log == [("landed", 2.0), ("taken back", 2.0), ("timer", 3.0)]

    def test_a_bounded_run_past_the_landing_in_the_air_lets_it_land(self):
        sim, log = Simulator(), []
        self._chain(sim, [2.0, 4.0, 6.0], log)
        with pytest.raises(SimulationError, match="not idle"):
            sim.restart_clock()
        sim.run(until=2.5)  # lands the flight in the air; the next is refused
        assert log == [("landed", 2.0), ("taken back", 2.0)] and sim.now == 2.5
        sim.restart_clock()

    def test_after_landing_the_engine_is_as_before(self):
        sim = Simulator()
        _, log = self._flight(sim, 7.5)
        sim.run()
        sim.schedule(0.5, lambda: log.append(("timer", sim.now)))
        launched, second = self._flight(sim, 7.9)
        assert launched
        sim.run()
        assert log[-1] == ("timer", 8.0)
        assert second == [("landed", 7.9, ("a", 1))]


class TestClockRestart:
    """``restart_clock``: task isolation's time origin, and the campaign
    clock that keeps what is reported from running backwards."""

    def test_restart_zeroes_now_and_the_campaign_clock_runs_on(self):
        sim = Simulator()
        sim.schedule(12.5, lambda: None)
        sim.run()
        assert (sim.now, sim.campaign_ms) == (12.5, 12.5)
        sim.restart_clock()
        assert (sim.now, sim.campaign_ms) == (0.0, 12.5)
        fired = []
        sim.schedule(2.0, lambda: fired.append(sim.now))
        sim.run()
        assert fired == [2.0] and sim.campaign_ms == 14.5

    def test_restart_drops_cancelled_entries_of_the_old_clock(self):
        sim = Simulator()
        stale = sim.schedule(60_000.0, lambda: None)  # a far-future deadline
        sim.schedule(1.0, lambda: None)
        sim.run(until=5.0)
        stale.cancel()
        sim.restart_clock()
        assert sim.pending == 0 and sim.cancelled_pending == 0
        stale.cancel()  # a handle kept past the restart stays harmless
        assert sim.events_cancelled == 1 and sim.heap_compactions == 0

    def test_restart_refuses_a_live_event(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        with pytest.raises(SimulationError, match="not idle"):
            sim.restart_clock()
        sim.run()
        sim.restart_clock()

    def test_restart_refuses_a_flight_in_the_air(self):
        sim = Simulator()
        assert sim.launch_flight(7.5, lambda: None, lambda: True)
        with pytest.raises(SimulationError, match="not idle"):
            sim.restart_clock()

    def test_restart_refuses_a_running_simulator(self):
        sim = Simulator()
        raised = []

        def restart_from_inside():
            try:
                sim.restart_clock()
            except SimulationError as exc:
                raised.append(str(exc))

        sim.schedule(1.0, restart_from_inside)
        sim.run()
        assert raised and "running=True" in raised[0]
