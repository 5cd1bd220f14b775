"""Contract: every sink crosses a fork boundary by one protocol, and the
fold is an algebra.

``snapshot()`` is plain picklable data; ``merge_snapshot(snap, shard=None)``
folds it into a live sink and returns the sink. A campaign is *k* forked
workers shipping snapshots to one parent, so what the parent ends up
holding must not depend on how the work was dealt or in which order the
snapshots came home. This file states that once, over Hypothesis-generated
write sequences dealt to *k* "workers", for every sink — the registry, the
span tracer, the event bus, the provenance log, and serve telemetry over
the first three:

* ``merge_snapshot`` is **associative** (whole snapshots, ``==``);
* it is **commutative** on everything declared order-free — counters,
  gauge maxima, histogram bucket counts / count / min / max, bus
  ``(category, severity)`` counts and ``emitted``, ring ``dropped``, and
  span / provenance rows as *multisets* (row order is merge order);
* the **empty and the null snapshot are identities** on both sides, and a
  null sink swallows a merge as it swallows a write;
* ``Live().merge_snapshot(x.snapshot()).snapshot() == x.snapshot()``;
* ``shard=`` **retags exactly the adopted rows** (the provenance log's own
  refinement: a pair row that already names its worker keeps it, and leg
  rows belong to the campaign).

Observations are integer-valued (serve latencies dyadic), so histogram
sums are exact and nothing here needs a tolerance.

(The fourth file of ``tests/contract/``, ROADMAP item 2(b).)
"""

from __future__ import annotations

import inspect
import json
import pickle
from dataclasses import dataclass
from typing import Any, Callable

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.dataset import LegProvenance, PairProvenance, ProvenanceLog
from repro.obs import (
    DEBUG,
    ERROR,
    INFO,
    NULL_EVENTS,
    NULL_METRICS,
    NULL_SPANS,
    WARNING,
    EventBus,
    MetricsRegistry,
    SpanTracer,
)
from repro.serve.telemetry import (
    NULL_SERVE_TELEMETRY,
    QUERY_OPS,
    SERVE_ERROR_TAXONOMY,
    ServeTelemetry,
)

#: Ring capacity of every generated bus: small enough that three workers'
#: worth of events evict, so ``dropped`` is exercised.
RING = 8
NAMES = st.sampled_from(["a", "b", "c"])
WHOLE = st.integers(min_value=0, max_value=500)
TAG = 7


def _bag(rows: list[dict]) -> list[str]:
    """A row multiset, comparable."""
    return sorted(json.dumps(row, sort_keys=True) for row in rows)


# ----------------------------------------------------------------------
# One adapter per sink: how to write to it and how to read a snapshot


@dataclass(frozen=True)
class Sink:
    live: Callable[[], Any]
    #: The sink's no-op twin, or ``None`` (the provenance log has none:
    #: a host without observability holds no log at all).
    null: Any
    #: Strategy for one write, and how to apply it.
    writes: st.SearchStrategy
    write: Callable[[Any, Any], None]
    #: Snapshot -> the whole of it as ``==``-comparable data.
    canon: Callable[[Any], Any]
    #: Snapshot -> the part declared order-free.
    order_free: Callable[[Any], Any]
    #: Snapshot -> its row tables (lists of dicts carrying ``shard``).
    tables: Callable[[Any], list[list[dict]]]
    #: Whether an adopted row that already carries a shard keeps it.
    keeps_own_tag: bool = False


def _write_metric(registry: MetricsRegistry, op: tuple) -> None:
    kind, name, value = op
    if kind == "inc":
        registry.inc(name, value)
    elif kind == "gauge":
        registry.max_gauge(name, float(value))
    else:
        registry.observe(name, float(value))


class _Clock:
    now = 0.0

    def __call__(self) -> float:
        return self.now


def _live_tracer() -> SpanTracer:
    return SpanTracer(clock=_Clock())


def _write_span(tracer: SpanTracer, op: tuple) -> None:
    name, start, dur, nested = op
    clock = tracer._clock
    clock.now = float(start)
    with tracer.span(name, x=start):
        if nested:
            with tracer.span("inner"):
                clock.now = float(start + dur)
        clock.now = float(start + dur)


def _write_event(bus: EventBus, op: tuple) -> None:
    severity, category, kind, value = op
    bus.emit(severity, category, kind, value=value)


def _bus_order_free(snap: dict) -> dict:
    return {
        "emitted": snap["emitted"],
        "counts": snap["counts"],
        "dropped": snap["ring"]["dropped"],
    }


def _write_provenance(log: ProvenanceLog, op: tuple) -> None:
    if op[0] == "leg":
        _, relay, rtt = op
        log.add_leg(LegProvenance(relay=relay, rtt_ms=float(rtt), samples_kept=3))
        return
    _, x, y, rtt, shard = op
    if rtt % 5 == 0:
        log.add(PairProvenance(
            x=x, y=y, status="failed", failure_category="stream",
            reason=f"stream became closed ({rtt})", shard=shard,
        ))
    else:
        log.add(PairProvenance(
            x=x, y=y, rtt_ms=float(rtt), samples_kept=4, stop_reason="converged",
            duration_ms=float(rtt), shard=shard,
        ))


def _provenance_rows(snap: dict) -> tuple[list[dict], list[dict]]:
    log = ProvenanceLog.from_snapshot(snap)
    return log.to_list(), log.legs_to_list()


def _live_serve() -> ServeTelemetry:
    return ServeTelemetry(slow_ms=0.0, sample_every=2, capacity=RING)


def _write_query(telemetry: ServeTelemetry, op: tuple) -> None:
    name, ticks, category = op
    # Dyadic seconds: the millisecond latency and every sum of them is exact.
    telemetry.record(name, 0.0, ticks / 1024.0, category=category, detail=category)


def _serve_order_free(snap: dict) -> dict:
    return {
        "metrics": snap["metrics"],
        "events": _bus_order_free(snap["events"]),
        "spans": _bag(snap["spans"]),
        "seen": snap["seen"],
    }


SINKS: dict[str, Sink] = {
    "metrics": Sink(
        live=MetricsRegistry,
        null=NULL_METRICS,
        writes=st.tuples(st.sampled_from(["inc", "gauge", "observe"]), NAMES, WHOLE),
        write=_write_metric,
        canon=lambda snap: snap,
        # Integer-valued observations: the float sums are exact too.
        order_free=lambda snap: snap,
        tables=lambda snap: [],
    ),
    "spans": Sink(
        live=_live_tracer,
        null=NULL_SPANS,
        writes=st.tuples(NAMES, WHOLE, WHOLE, st.booleans()),
        write=_write_span,
        canon=lambda snap: snap,
        order_free=_bag,
        tables=lambda snap: [snap],
    ),
    "events": Sink(
        live=lambda: EventBus(capacity=RING),
        null=NULL_EVENTS,
        writes=st.tuples(
            st.sampled_from([DEBUG, INFO, WARNING, ERROR]), NAMES, NAMES, WHOLE
        ),
        write=_write_event,
        canon=lambda snap: snap,
        order_free=_bus_order_free,
        tables=lambda snap: [snap["ring"]["events"]],
    ),
    "provenance": Sink(
        live=ProvenanceLog,
        null=None,
        writes=st.one_of(
            st.tuples(st.just("leg"), NAMES, WHOLE),
            st.tuples(
                st.just("pair"), NAMES, NAMES, WHOLE,
                st.one_of(st.none(), st.integers(min_value=0, max_value=3)),
            ),
        ),
        write=_write_provenance,
        canon=_provenance_rows,
        order_free=lambda snap: tuple(_bag(rows) for rows in _provenance_rows(snap)),
        tables=lambda snap: [_provenance_rows(snap)[0]],
        keeps_own_tag=True,
    ),
    "serve": Sink(
        live=_live_serve,
        null=NULL_SERVE_TELEMETRY,
        writes=st.tuples(
            st.sampled_from(QUERY_OPS + ("bogus",)),
            st.integers(min_value=0, max_value=4096),
            st.one_of(st.none(), st.sampled_from(SERVE_ERROR_TAXONOMY)),
        ),
        write=_write_query,
        canon=lambda snap: snap,
        order_free=_serve_order_free,
        tables=lambda snap: [snap["events"]["ring"]["events"], snap["spans"]],
    ),
}

every_sink = pytest.mark.parametrize("name", sorted(SINKS))


def _worker_snapshots(sink: Sink, deal: list[tuple[Any, int]], k: int) -> list[Any]:
    """Deal the writes to ``k`` workers; each ships its snapshot home the
    way a forked one does — pickled."""
    workers = [sink.live() for _ in range(k)]
    for op, worker in deal:
        sink.write(workers[worker % k], op)
    return [pickle.loads(pickle.dumps(worker.snapshot())) for worker in workers]


def _fold(sink: Sink, snaps: list[Any]) -> Any:
    parent = sink.live()
    for snap in snaps:
        assert parent.merge_snapshot(snap) is parent
    return parent.snapshot()


def _deals(sink: Sink, max_size: int = 30) -> st.SearchStrategy:
    return st.lists(
        st.tuples(sink.writes, st.integers(min_value=0, max_value=2)),
        max_size=max_size,
    )


# ----------------------------------------------------------------------
# The protocol, structurally


@every_sink
def test_one_protocol_one_signature(name):
    cls = type(SINKS[name].live())
    assert list(inspect.signature(cls.snapshot).parameters) == ["self"]
    parameters = inspect.signature(cls.merge_snapshot).parameters
    assert list(parameters)[:3] == ["self", "snap", "shard"]
    assert parameters["shard"].default is None
    # The provenance log's leg_shard= is the one extra, and it is optional.
    assert all(
        p.default is not inspect.Parameter.empty for p in list(parameters.values())[3:]
    )


# ----------------------------------------------------------------------
# The algebra


@every_sink
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_merge_is_associative(name, data):
    sink = SINKS[name]
    a, b, c = _worker_snapshots(sink, data.draw(_deals(sink)), 3)
    left = _fold(sink, [_fold(sink, [a, b]), c])
    right = _fold(sink, [a, _fold(sink, [b, c])])
    assert sink.canon(left) == sink.canon(right) == sink.canon(_fold(sink, [a, b, c]))


@every_sink
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_order_free_parts_commute(name, data):
    sink = SINKS[name]
    snaps = _worker_snapshots(sink, data.draw(_deals(sink)), 3)
    order = data.draw(st.permutations(range(3)))
    assert sink.order_free(_fold(sink, snaps)) == sink.order_free(
        _fold(sink, [snaps[i] for i in order])
    )


@every_sink
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_live_roundtrip_and_identities(name, data):
    sink = SINKS[name]
    (x,) = _worker_snapshots(sink, data.draw(_deals(sink, max_size=RING)), 1)
    want = sink.canon(x)
    # Live().merge_snapshot(x.snapshot()).snapshot() == x.snapshot()
    assert sink.canon(_fold(sink, [x])) == want
    empties = [sink.live().snapshot()]
    if sink.null is not None:
        empties.append(sink.null.snapshot())
        # A null sink swallows a merge as it swallows a write.
        assert sink.null.merge_snapshot(x, shard=TAG) is sink.null
        assert sink.null.snapshot() == empties[-1]
    for empty in empties:
        assert sink.canon(_fold(sink, [empty, x])) == want
        assert sink.canon(_fold(sink, [x, empty])) == want


@every_sink
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_shard_retags_exactly_the_adopted_rows(name, data):
    sink = SINKS[name]
    # Two halves of one ring at most: nothing is evicted, rows line up.
    mine, theirs = (
        _worker_snapshots(sink, data.draw(_deals(sink, max_size=RING // 2)), 1)[0]
        for _ in range(2)
    )
    parent = sink.live().merge_snapshot(mine)
    before = sink.tables(parent.snapshot())
    after = sink.tables(parent.merge_snapshot(theirs, shard=TAG).snapshot())
    for kept, adopted, table in zip(before, sink.tables(theirs), after, strict=True):
        assert table[: len(kept)] == kept
        assert table[len(kept):] == [
            {
                **row,
                "shard": row["shard"]
                if sink.keeps_own_tag and row.get("shard") is not None
                else TAG,
            }
            for row in adopted
        ]
    if not before:
        # Aggregates carry no rows: ``shard`` changes nothing.
        assert sink.canon(parent.snapshot()) == sink.canon(_fold(sink, [mine, theirs]))


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_provenance_leg_rows_keep_the_campaign_attribution(data):
    """``shard=`` never touches a leg row; ``leg_shard=`` fills the unset."""
    sink = SINKS["provenance"]
    (snap,) = _worker_snapshots(sink, data.draw(_deals(sink, max_size=10)), 1)
    legs = _provenance_rows(snap)[1]
    tagged = ProvenanceLog().merge_snapshot(snap, shard=TAG)
    assert tagged.legs_to_list() == legs
    filled = ProvenanceLog().merge_snapshot(snap, shard=TAG, leg_shard=2)
    assert filled.legs_to_list() == [{**leg, "shard": 2} for leg in legs]


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_bus_counts_not_the_ring_are_authoritative(data):
    """Whatever the ring evicted on the way, nothing emitted goes uncounted."""
    sink = SINKS["events"]
    deal = data.draw(_deals(sink, max_size=40))
    merged = _fold(sink, _worker_snapshots(sink, deal, 3))
    assert merged["emitted"] == len(deal) == sum(r["count"] for r in merged["counts"])
    ring = merged["ring"]
    assert len(ring["events"]) == min(len(deal), RING)
    assert ring["dropped"] == len(deal) - len(ring["events"])
