"""Span self-time arithmetic."""

import json

from bench.trace import NullRecorder, SpanRecorder, layer_of, layer_self_times, self_times


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def _record(clock, recorder):
    """repeat[0..10] ⊃ core.shard.run[1..7] ⊃ core.shard.legs[2..4]; core.dataset.save[8..9]."""
    with recorder.span("harness.repeat"):
        clock.now = 1.0
        with recorder.span("core.shard.run"):
            clock.now = 2.0
            with recorder.span("core.shard.legs", relays=3):
                clock.now = 4.0
            clock.now = 7.0
        clock.now = 8.0
        with recorder.span("core.dataset.save"):
            clock.now = 9.0
        clock.now = 10.0


def test_self_time_is_duration_minus_child_cover():
    clock = FakeClock()
    recorder = SpanRecorder("run-1", clock=clock)
    _record(clock, recorder)
    own = self_times(recorder.spans)
    by_name = {s.name: own[s.span_id] for s in recorder.spans}
    assert by_name == {
        "harness.repeat": 3.0,     # 10 − (6 + 1)
        "core.shard.run": 4.0,     # 6 − 2
        "core.shard.legs": 2.0,
        "core.dataset.save": 1.0,
    }
    assert sum(own.values()) == recorder.spans[0].duration_s


def test_layers_are_module_names_and_sum_to_the_root_wall():
    clock = FakeClock()
    recorder = SpanRecorder("run-1", clock=clock)
    _record(clock, recorder)
    assert layer_of("core.shard.run_cold") == "core.shard"
    layers = layer_self_times(recorder.spans)
    assert layers == {"harness": 3.0, "core.shard": 6.0, "core.dataset": 1.0}


def test_parent_ids_run_id_and_file(tmp_path):
    clock = FakeClock()
    recorder = SpanRecorder("run-9", clock=clock)
    _record(clock, recorder)
    ids = {s.name: s.span_id for s in recorder.spans}
    parents = {s.name: s.parent_id for s in recorder.spans}
    assert parents == {
        "harness.repeat": None,
        "core.shard.run": ids["harness.repeat"],
        "core.shard.legs": ids["core.shard.run"],
        "core.dataset.save": ids["harness.repeat"],
    }
    recorder.write(tmp_path / "out" / "trace.json")
    doc = json.loads((tmp_path / "out" / "trace.json").read_text())
    assert {s["run_id"] for s in doc["spans"]} == {"run-9"}
    assert doc["spans"][2]["attrs"] == {"relays": 3}
    assert doc["self_time_s"]["core.shard"] == 6.0


def test_null_recorder_records_nothing():
    recorder = NullRecorder()
    with recorder.span("anything", x=1) as span:
        assert span is None
    assert not recorder.enabled
