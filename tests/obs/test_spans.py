"""Unit tests for the hierarchical span tracer and Perfetto export."""

import json

import pytest

from repro.obs import (
    CAMPAIGN_SPAN,
    NULL_SPANS,
    NullSpanTracer,
    PAIR_SPAN,
    SpanTracer,
)


class FakeClock:
    """A controllable millisecond clock."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


class TestSpanTracer:
    def test_sync_spans_nest_on_one_track(self):
        clock = FakeClock()
        spans = SpanTracer(clock=clock)
        with spans.span("outer"):
            clock.now = 10.0
            with spans.span("inner"):
                clock.now = 15.0
        records = spans.records()
        assert [r["name"] for r in records] == ["inner", "outer"]
        inner, outer = records
        assert inner["track"] == outer["track"]
        assert inner["start_ms"] == 10.0 and inner["dur_ms"] == 5.0
        assert outer["start_ms"] == 0.0 and outer["dur_ms"] == 15.0

    def test_async_root_spans_get_distinct_tracks(self):
        clock = FakeClock()
        spans = SpanTracer(clock=clock)
        a = spans.begin("task-a")
        b = spans.begin("task-b")
        assert a.track != b.track
        clock.now = 4.0
        a.end()
        b.end()
        # A released track is reused by the next root span.
        c = spans.begin("task-c")
        assert c.track == min(a.track, b.track)
        c.end()

    def test_child_spans_ride_the_parent_track(self):
        spans = SpanTracer()
        parent = spans.begin(PAIR_SPAN, x="A", y="B")
        child = spans.begin("circuit_build", parent=parent)
        assert child.track == parent.track
        child.end()
        parent.end()

    def test_end_is_idempotent(self):
        clock = FakeClock()
        spans = SpanTracer(clock=clock)
        handle = spans.begin("once")
        clock.now = 3.0
        handle.end()
        clock.now = 9.0
        handle.end()
        assert spans.count("once") == 1
        assert spans.durations_ms("once") == [3.0]

    def test_args_are_recorded(self):
        spans = SpanTracer()
        with spans.span(PAIR_SPAN, x="AAA", y="BBB"):
            pass
        (record,) = spans.records()
        assert record["args"] == {"x": "AAA", "y": "BBB"}

    def test_merge_retags_shard(self):
        worker = SpanTracer()
        with worker.span(CAMPAIGN_SPAN):
            pass
        parent = SpanTracer()
        parent.merge_snapshot(worker.snapshot(), shard=2)
        parent.merge_snapshot(worker.snapshot(), shard=3)
        assert [r["shard"] for r in parent.records()] == [2, 3]
        # The worker's own records are untouched.
        assert worker.records()[0]["shard"] == 0

    def test_chrome_trace_schema(self):
        clock = FakeClock()
        spans = SpanTracer(clock=clock, shard=1)
        with spans.span(PAIR_SPAN, x="A", y="B"):
            clock.now = 2.5
        trace = json.loads(spans.to_json())
        assert isinstance(trace["traceEvents"], list)
        (event,) = trace["traceEvents"]
        # Chrome trace-event "complete" event: these keys are what
        # Perfetto's legacy JSON importer requires.
        assert event["ph"] == "X"
        assert isinstance(event["name"], str)
        assert isinstance(event["pid"], int)
        assert isinstance(event["tid"], int)
        assert event["ts"] == 0.0  # microseconds
        assert event["dur"] == 2500.0  # 2.5 ms -> 2500 us
        assert event["pid"] == 1

    def test_save_writes_loadable_json(self, tmp_path):
        spans = SpanTracer()
        with spans.span("campaign"):
            pass
        path = tmp_path / "trace.json"
        spans.save(path)
        assert json.loads(path.read_text())["traceEvents"]


class TestNullSpanTracer:
    def test_disabled_and_allocation_free(self):
        assert NULL_SPANS.enabled is False
        first = NULL_SPANS.span("anything", x=1)
        second = NULL_SPANS.begin("other")
        assert first is second  # one shared handle, no per-call allocation

    def test_handles_are_inert(self):
        with NULL_SPANS.span("campaign") as handle:
            handle.end()
        assert len(NULL_SPANS) == 0
        assert NULL_SPANS.records() == []
        assert NULL_SPANS.count() == 0
        assert NULL_SPANS.durations_ms("campaign") == []

    def test_merge_discards(self):
        live = SpanTracer()
        with live.span("pair"):
            pass
        assert NULL_SPANS.merge_snapshot(live.snapshot()) is NULL_SPANS
        assert len(NULL_SPANS) == 0

    def test_export_is_empty_but_valid(self):
        trace = NullSpanTracer().to_chrome_trace()
        assert trace["traceEvents"] == []
