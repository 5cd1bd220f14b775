"""The live event bus: emission, the flight recorder, sinks, progress.

The contracts the shard streamer and watchdog lean on: emits are
stamped with both clocks and counted per ``(category, severity)``;
the ring is bounded and honest about eviction; snapshots merge
associatively; ``ingest`` adopts a streamed record as a first-class
emit; and the null singleton costs nothing and rejects sinks.
"""

import json

import pytest

from repro.obs import (
    DEBUG,
    ERROR,
    INFO,
    NULL_EVENTS,
    WARNING,
    ConsoleSink,
    EventBus,
    FlightRecorder,
    JsonlSink,
    NullEventBus,
    ProgressTracker,
    event_from_dict,
    format_event,
    severity_level,
    severity_name,
)


class TestSeverities:
    def test_levels_are_ordered(self):
        assert DEBUG < INFO < WARNING < ERROR

    def test_names_round_trip(self):
        for level in (DEBUG, INFO, WARNING, ERROR):
            assert severity_level(severity_name(level)) == level

    def test_unknown_level_renders(self):
        assert severity_name(35) == "L35"

    def test_unknown_name_raises(self):
        with pytest.raises(ValueError):
            severity_level("loud")


class TestEventBus:
    def test_emit_stamps_both_clocks(self):
        sim_now = [0.0]
        bus = EventBus(clock=lambda: sim_now[0])
        sim_now[0] = 123.5
        bus.info("campaign", "pair_started", x="A", y="B")
        (record,) = bus.events()
        assert record["sim_ms"] == 123.5
        assert record["wall_s"] > 0
        assert record["category"] == "campaign"
        assert record["kind"] == "pair_started"
        assert record["x"] == "A" and record["y"] == "B"

    def test_counts_key_on_category_and_severity(self):
        bus = EventBus()
        bus.info("campaign", "pair_measured")
        bus.info("campaign", "pair_started")
        bus.warning("campaign", "pair_failed")
        bus.debug("probe", "round_started")
        assert bus.count("campaign") == 3
        assert bus.count("campaign", INFO) == 2
        assert bus.count(severity=WARNING) == 1
        assert bus.count("probe", DEBUG) == 1
        assert bus.emitted == 4

    def test_sequence_numbers_are_per_bus(self):
        bus = EventBus()
        for _ in range(3):
            bus.info("x", "y")
        assert [r["seq"] for r in bus.events()] == [0, 1, 2]

    def test_events_filters(self):
        bus = EventBus()
        bus.debug("probe", "round_started")
        bus.info("campaign", "pair_started")
        bus.warning("campaign", "pair_failed")
        assert len(bus.events(category="campaign")) == 2
        assert len(bus.events(kind="pair_failed")) == 1
        assert len(bus.events(min_severity=INFO)) == 2

    def test_sink_receives_events(self):
        bus = EventBus()
        seen = []
        bus.add_sink(seen.append)
        bus.info("campaign", "pair_started", x="A")
        assert len(seen) == 1
        assert seen[0].fields["x"] == "A"
        bus.remove_sink(seen.append)
        bus.info("campaign", "pair_started", x="B")
        assert len(seen) == 1

    def test_clear_keeps_sinks(self):
        bus = EventBus()
        seen = []
        bus.add_sink(seen.append)
        bus.info("a", "b")
        bus.clear()
        assert bus.emitted == 0 and len(bus) == 0
        bus.info("a", "b")
        assert len(seen) == 2

    def test_ingest_counts_rings_and_fans_out(self):
        source = EventBus(shard=3)
        source.warning("relay", "queue_saturated", backlog_ms=60.0)
        (record,) = source.events()
        target = EventBus()
        seen = []
        target.add_sink(seen.append)
        target.ingest(record)
        assert target.count("relay", WARNING) == 1
        assert target.emitted == 1
        assert target.events()[0]["shard"] == 3
        assert seen[0].fields["backlog_ms"] == 60.0
        assert seen[0].shard == 3

    def test_event_from_dict_round_trips(self):
        bus = EventBus(shard=2)
        bus.error("shard", "watchdog_tripped", stalled_shard=1)
        rebuilt = event_from_dict(bus.events()[0])
        assert rebuilt.severity == ERROR
        assert rebuilt.category == "shard"
        assert rebuilt.shard == 2
        assert rebuilt.fields == {"stalled_shard": 1}


class TestSnapshotMerge:
    def test_snapshot_merge_sums_counts(self):
        a, b = EventBus(), EventBus()
        a.info("campaign", "pair_measured")
        b.info("campaign", "pair_measured")
        b.warning("campaign", "pair_failed")
        merged = EventBus()
        merged.merge_snapshot(a.snapshot(), shard=0)
        merged.merge_snapshot(b.snapshot(), shard=1)
        assert merged.count("campaign", INFO) == 2
        assert merged.count("campaign", WARNING) == 1
        assert merged.emitted == 3

    def test_merge_retags_ring_events_with_shard(self):
        worker = EventBus()
        worker.info("campaign", "pair_measured", x="A", y="B")
        merged = EventBus()
        merged.merge_snapshot(worker.snapshot(), shard=7)
        assert merged.events()[0]["shard"] == 7

    def test_merge_carries_dropped(self):
        worker = EventBus(capacity=2)
        for i in range(5):
            worker.info("a", "b", i=i)
        merged = EventBus()
        merged.merge_snapshot(worker.snapshot(), shard=0)
        assert merged.recorder.dropped == 3
        # Counts, not the ring, are authoritative after eviction.
        assert merged.count("a") == 5


class TestFlightRecorder:
    def test_ring_bounds_and_counts_drops(self):
        recorder = FlightRecorder(capacity=3)
        for i in range(5):
            recorder.append({"i": i})
        assert len(recorder) == 3
        assert recorder.dropped == 2
        assert [r["i"] for r in recorder.records()] == [2, 3, 4]
        dump = recorder.dump()
        assert dump["dropped"] == 2 and len(dump["events"]) == 3

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            FlightRecorder(capacity=0)


class TestNullEventBus:
    def test_singleton_is_disabled_and_empty(self):
        assert NULL_EVENTS.enabled is False
        NULL_EVENTS.emit(ERROR, "x", "y", a=1)
        NULL_EVENTS.error("x", "y")
        NULL_EVENTS.ingest({"category": "x", "severity": ERROR})
        assert NULL_EVENTS.emitted == 0
        assert NULL_EVENTS.counts() == {}
        assert NULL_EVENTS.events() == []
        assert len(NULL_EVENTS) == 0
        assert NULL_EVENTS.snapshot() == {
            "emitted": 0, "counts": [], "ring": {"dropped": 0, "events": []},
        }

    def test_rejects_sinks(self):
        with pytest.raises(ValueError):
            NULL_EVENTS.add_sink(lambda event: None)

    def test_merge_into_null_is_a_noop(self):
        live = EventBus()
        live.info("a", "b")
        assert NULL_EVENTS.merge_snapshot(live.snapshot()) is NULL_EVENTS
        assert NULL_EVENTS.emitted == 0

    def test_allocation_free_construction(self):
        assert NullEventBus.__slots__ == ()
        assert not hasattr(NULL_EVENTS, "__dict__")


class TestSinks:
    def test_jsonl_sink_streams_lines(self, tmp_path):
        path = tmp_path / "events.jsonl"
        bus = EventBus()
        with JsonlSink(path) as sink:
            bus.add_sink(sink)
            bus.info("campaign", "pair_measured", x="A", rtt_ms=12.5)
            bus.warning("relay", "queue_saturated")
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 2
        first = json.loads(lines[0])
        assert first["kind"] == "pair_measured" and first["rtt_ms"] == 12.5

    def test_console_sink_filters_by_severity(self):
        import io

        stream = io.StringIO()
        bus = EventBus()
        bus.add_sink(ConsoleSink(stream=stream, min_severity=WARNING))
        bus.info("campaign", "pair_measured")
        bus.warning("relay", "queue_saturated", backlog_ms=60.0)
        out = stream.getvalue()
        assert "pair_measured" not in out
        assert "relay.queue_saturated" in out
        assert "backlog_ms=60.0" in out

    def test_format_event_is_stable(self):
        line = format_event({
            "severity": WARNING, "sim_ms": 42.0, "category": "relay",
            "kind": "queue_saturated", "shard": 2, "seq": 9,
            "wall_s": 1.0, "backlog_ms": 51.2,
        })
        assert line == (
            "WARNING s2       42.000ms  relay.queue_saturated  backlog_ms=51.2"
        )


class TestProgressTracker:
    def test_totals_sum_across_shards(self):
        tracker = ProgressTracker(pairs_total=10, clock=lambda: 0.0)
        tracker.update_shard(0, pairs_done=3, probes_sent=30, probes_saved=5)
        tracker.update_shard(1, pairs_done=2, pairs_failed=1, probes_sent=20)
        assert tracker.pairs_done == 5
        assert tracker.pairs_failed == 1
        assert tracker.probes_sent == 50
        assert tracker.probes_saved == 5

    def test_heartbeats_are_idempotent(self):
        tracker = ProgressTracker(pairs_total=10, clock=lambda: 0.0)
        for _ in range(3):  # re-delivered absolute totals cannot double-count
            tracker.update_shard(0, pairs_done=4)
        assert tracker.pairs_done == 4

    def test_ewma_rate_and_eta(self):
        now = [0.0]
        tracker = ProgressTracker(pairs_total=10, clock=lambda: now[0])
        now[0] = 1.0
        tracker.update_shard(0, pairs_done=2)  # 2 pairs/s
        now[0] = 2.0
        tracker.update_shard(0, pairs_done=4)  # still 2 pairs/s
        assert tracker.rate_pairs_per_s == pytest.approx(2.0)
        assert tracker.eta_s == pytest.approx(3.0)

    def test_rate_none_until_progress(self):
        tracker = ProgressTracker(pairs_total=10, clock=lambda: 0.0)
        assert tracker.rate_pairs_per_s is None
        assert tracker.eta_s is None

    def test_in_flight_labels(self):
        tracker = ProgressTracker(pairs_total=4, clock=lambda: 0.0)
        tracker.update_shard(0, pairs_done=1, in_flight="pair A:B")
        tracker.update_shard(1, pairs_done=1)
        assert tracker.in_flight() == {0: "pair A:B"}

    def test_render_mentions_pairs(self):
        now = [0.0]
        tracker = ProgressTracker(pairs_total=4, clock=lambda: now[0])
        now[0] = 1.0
        tracker.update_shard(0, pairs_done=2, pairs_failed=1, probes_sent=40,
                             probes_saved=6)
        line = tracker.render()
        assert "pairs 2/4" in line
        assert "(1 failed)" in line
        assert "probes 40 (+6 saved)" in line
        assert "ETA" in line

    def test_snapshot_is_json_ready(self):
        tracker = ProgressTracker(pairs_total=4, clock=lambda: 0.0)
        tracker.update_shard(0, pairs_done=1, in_flight="leg X")
        snapshot = tracker.snapshot()
        json.dumps(snapshot)
        assert snapshot["pairs_done"] == 1
        assert snapshot["in_flight"] == {"0": "leg X"}

    def test_validation(self):
        with pytest.raises(ValueError):
            ProgressTracker(pairs_total=-1)
        with pytest.raises(ValueError):
            ProgressTracker(pairs_total=1, alpha=0.0)

    def test_eta_uses_global_remaining_under_skewed_shards(self):
        # Straggler-blindness regression: one fast shard must not make
        # the ETA pretend the slow shard's backlog is nearly done. The
        # ETA divides the *global* remaining count by the global rate,
        # so the skew shows up as a longer ETA, not a shorter one.
        now = [0.0]
        tracker = ProgressTracker(pairs_total=100, clock=lambda: now[0])
        now[0] = 1.0
        tracker.update_shard(0, pairs_done=5, pairs_total=50)    # fast
        now[0] = 2.0
        tracker.update_shard(0, pairs_done=10, pairs_total=50)   # 5 pairs/s
        tracker.update_shard(1, pairs_done=0, pairs_total=50)    # straggler
        assert tracker.pairs_done == 10
        assert tracker.rate_pairs_per_s == pytest.approx(5.0)
        # 90 remaining at 5/s — the straggler's 50 untouched pairs are
        # in the 90, not hidden behind the fast shard's 20% lead.
        assert tracker.eta_s == pytest.approx(18.0)

    def test_shard_progress_reports_claimed_totals(self):
        tracker = ProgressTracker(pairs_total=10, clock=lambda: 0.0)
        tracker.update_shard(0, pairs_done=3, pairs_total=6)
        tracker.update_shard(1, pairs_done=1, pairs_total=2)
        assert tracker.shard_progress() == {0: (3, 6), 1: (1, 2)}
        # Re-delivered absolute totals stay idempotent for claims too.
        tracker.update_shard(1, pairs_done=1, pairs_total=2)
        assert tracker.shard_progress()[1] == (1, 2)

    def test_snapshot_carries_per_shard_claims(self):
        tracker = ProgressTracker(pairs_total=10, clock=lambda: 0.0)
        tracker.update_shard(0, pairs_done=2, pairs_total=4)
        snapshot = tracker.snapshot()
        json.dumps(snapshot)
        assert snapshot["shards"] == {
            "0": {"pairs_done": 2, "pairs_total": 4}
        }
