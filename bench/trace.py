"""In-memory wall-clock spans recorded by the bench around calls into a layer.

The program's own ``SpanTracer`` ticks on the *simulated* clock; these
spans tick on ``time.perf_counter`` and are opened only from the bench's
files, around public calls (spans inside the program are ROADMAP item 2).
A span is ``(id, parent id, name, start, end, attrs)``; every span of
one recorder shares its ``run_id``. Nothing is written until
:meth:`SpanRecorder.write` — recording is two clock reads and a list
append.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterator


@dataclass
class Span:
    span_id: int
    parent_id: int | None
    name: str
    start_s: float
    end_s: float = 0.0
    attrs: dict[str, Any] = field(default_factory=dict)

    @property
    def duration_s(self) -> float:
        return self.end_s - self.start_s

    def to_dict(self, run_id: str) -> dict[str, Any]:
        return {
            "run_id": run_id,
            "id": self.span_id,
            "parent": self.parent_id,
            "name": self.name,
            "start_s": self.start_s,
            "end_s": self.end_s,
            **({"attrs": self.attrs} if self.attrs else {}),
        }


class SpanRecorder:
    """Records nested spans; the innermost open span is the parent."""

    enabled = True

    def __init__(self, run_id: str, clock=time.perf_counter) -> None:
        self.run_id = run_id
        self.spans: list[Span] = []
        self._clock = clock
        self._open: list[Span] = []

    @contextmanager
    def span(self, name: str, **attrs: Any) -> Iterator[Span]:
        parent = self._open[-1].span_id if self._open else None
        span = Span(len(self.spans), parent, name, self._clock(), attrs=attrs)
        self.spans.append(span)
        self._open.append(span)
        try:
            yield span
        finally:
            span.end_s = self._clock()
            self._open.pop()

    def durations_s(self, name: str) -> list[float]:
        return [s.duration_s for s in self.spans if s.name == name]

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            "run_id": self.run_id,
            "self_time_s": layer_self_times(self.spans),
            "spans": [s.to_dict(self.run_id) for s in self.spans],
        }
        path.write_text(json.dumps(payload) + "\n")


class NullRecorder:
    """The untraced run's recorder: ``span`` yields without recording."""

    enabled = False

    @contextmanager
    def span(self, name: str, **attrs: Any) -> Iterator[None]:
        yield None


def self_times(spans: list[Span]) -> dict[int, float]:
    """Per-span self time: duration minus the part child spans cover.

    Children of one parent are opened one after another from a single
    thread, so they never overlap each other; the union of their
    intervals is the sum of their durations, clipped to the parent.
    """
    covered: dict[int, float] = {}
    by_id = {s.span_id: s for s in spans}
    for span in spans:
        if span.parent_id is None:
            continue
        parent = by_id[span.parent_id]
        overlap = min(span.end_s, parent.end_s) - max(span.start_s, parent.start_s)
        covered[parent.span_id] = covered.get(parent.span_id, 0.0) + max(0.0, overlap)
    return {s.span_id: s.duration_s - covered.get(s.span_id, 0.0) for s in spans}


def layer_of(span_name: str) -> str:
    """``core.shard.run_cold`` → ``core.shard``: the layer is the module."""
    return span_name.rsplit(".", 1)[0] if "." in span_name else span_name


def layer_self_times(spans: list[Span]) -> dict[str, float]:
    """Self time summed per layer; the values add up to the root spans' wall."""
    own = self_times(spans)
    out: dict[str, float] = {}
    for span in spans:
        layer = layer_of(span.name)
        out[layer] = out.get(layer, 0.0) + own[span.span_id]
    return out
