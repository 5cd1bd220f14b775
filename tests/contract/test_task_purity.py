"""Contract: a measurement is a function of its task alone.

Under task isolation every task starts from a clock at zero, draws from
streams keyed by ``(root seed, entity, task key)`` and tears down its
own connections, so *which* process measures a pair, after which other
pairs, in chunks of what size, cannot show in anything the task
produces. This file holds the sharded engine to that with ``==`` — no
tolerance, no rounding — across forked workers, the in-process
emulation and a single worker: the matrix, the failures, the event,
cell and probe counts, the provenance rows. It also holds the draw
source to the rule it states (a block is a pure function of root seed,
entity name, isolation context and block number), since everything
above rests on it.

(The third file of ``tests/contract/``, ROADMAP item 2(b)'s first half.)
"""

from __future__ import annotations

import functools
from dataclasses import replace

import numpy as np
import pytest
from conftest import reference_draw, take_draw as _take
from hypothesis import given, settings, strategies as st

from repro.core.parallel import ParallelCampaign
from repro.core.planner import CampaignPlanner
from repro.core.sampling import AdaptiveSpec, SamplePolicy
from repro.core.shard import ShardedCampaign
from repro.testbeds.livetor import LiveTorTestbed
from repro.util.rng import BLOCK_DRAWS, RandomStreams

FIXED = SamplePolicy(samples=4, interval_ms=2.0)
ADAPTIVE = SamplePolicy(
    samples=6,
    interval_ms=None,
    adaptive=AdaptiveSpec(absolute_ms=1.0, min_samples=2, patience=2, confirm_k=2),
)


def _outcome(report) -> dict:
    """Everything of a sharded run that must not depend on how the pair
    list was cut up (the ``shard`` tag on a provenance row says who
    measured it, which is the one thing that may)."""
    return {
        "matrix": report.matrix.as_array().tobytes(),
        "failures": sorted(report.failures),
        "events": report.events_processed,
        "cells": report.cells_processed,
        "probes": (
            report.probes_sent, report.probes_saved, report.early_stops,
            report.legs_measured, report.pairs_attempted, report.pairs_measured,
        ),
        "pair_rows": sorted(repr(replace(row, shard=None)) for row in report.provenance),
        "leg_rows": sorted(
            repr(replace(leg, shard=None)) for leg in report.provenance.legs()
        ),
    }


def _sharded(factory, fingerprints, pairs, policy, **kwargs):
    return ShardedCampaign(
        factory, fingerprints, policy=policy, pairs=pairs, observe=True, **kwargs
    ).run()


# ----------------------------------------------------------------------
# Forked == inline == one worker


@settings(max_examples=8, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=500),
    workers=st.integers(min_value=2, max_value=4),
    chunk=st.integers(min_value=1, max_value=9),
    adaptive=st.booleans(),
)
def test_forked_inline_and_single_worker_runs_are_equal(seed, workers, chunk, adaptive):
    factory = functools.partial(LiveTorTestbed.build, seed=seed, n_relays=26)
    fingerprints = [relay.fingerprint for relay in factory().relays][:12]
    pairs = CampaignPlanner(fingerprints, seed=seed).plan(budget_pairs=14).pairs
    policy = ADAPTIVE if adaptive else FIXED
    single = _outcome(_sharded(factory, fingerprints, pairs, policy, workers=1))
    inline = _sharded(
        factory, fingerprints, pairs, policy,
        workers=workers, steal_chunk_pairs=chunk, force_inline=True,
    )
    forked = _sharded(
        factory, fingerprints, pairs, policy, workers=workers, steal_chunk_pairs=chunk
    )
    assert _outcome(inline) == single
    assert _outcome(forked) == single


def test_seed_6_the_filed_violation():
    """The bench's pipeline world at seed 6 — 1,000 relays, 150 planned
    pairs — on which forked and unforked runs used to disagree: at the
    parent of the re-pin (03e74be), where an estimate was rounded to
    1e-6 ms from absolute event times, one pair of this plan read
    204.231192 ms forked and 204.231191 ms with ``workers=1``, and the
    two runs processed 53,996 and 54,006 events."""
    factory = functools.partial(LiveTorTestbed.build, seed=6, n_relays=1015)
    world = factory()
    relays = world.random_relays(1000, world.streams.get("bench.campaign"))
    fingerprints = [descriptor.fingerprint for descriptor in relays]
    pairs = CampaignPlanner(fingerprints, seed=6).plan(budget_pairs=150).pairs
    single = _sharded(factory, fingerprints, pairs, FIXED, workers=1)
    inline = _sharded(factory, fingerprints, pairs, FIXED, workers=2, force_inline=True)
    forked = _sharded(factory, fingerprints, pairs, FIXED, workers=2)
    assert single.pairs_measured == 150
    assert np.array_equal(
        forked.matrix.as_array(), single.matrix.as_array(), equal_nan=True
    )
    assert _outcome(forked) == _outcome(inline) == _outcome(single)


# ----------------------------------------------------------------------
# A task alone == the same task mid-campaign


def _isolated_campaign(seed: int = 31):
    testbed = LiveTorTestbed.build(seed=seed, n_relays=14, service_queues=True)
    testbed.measurement.enable_observability()
    campaign = ParallelCampaign(
        testbed.measurement,
        testbed.descriptors(),
        policy=ADAPTIVE,
        pairs=[],
        legs=[],
        isolation=testbed.task_isolation(),
    )
    return testbed, campaign, [relay.fingerprint for relay in testbed.relays]


def _one_chunk(testbed, campaign, pairs) -> dict:
    """Run ``pairs`` as one chunk; what the chunk alone produced."""
    sim, log = testbed.sim, testbed.measurement.provenance
    events, rows, legs = sim.events_processed, len(log), len(log.legs())
    report = campaign.run_pairs(pairs)
    return {
        "entries": list(report.matrix.measured_pairs()),
        "failures": report.failures,
        "events": sim.events_processed - events,
        "probes": (report.probes_sent, report.probes_saved, report.early_stops),
        "makespan_ms": report.makespan_ms,
        "rows": [repr(row) for row in list(log)[rows:]],
        "legs": [repr(leg) for leg in log.legs()[legs:]],
    }


@settings(max_examples=10, deadline=None)
@given(
    before=st.lists(
        st.tuples(st.integers(0, 13), st.integers(0, 13)).filter(lambda p: p[0] != p[1]),
        min_size=1, max_size=4, unique_by=frozenset,  # a campaign lists a pair once
    )
)
def test_a_task_alone_equals_the_same_task_mid_campaign(before):
    # The task: one pair whose legs the chunk has to measure itself
    # (relays 2 and 9 appear in no earlier pair), so three tasks' worth.
    before = [pair for pair in before if not {2, 9} & set(pair)] or [(0, 1)]
    testbed, campaign, fps = _isolated_campaign()
    alone = _one_chunk(testbed, campaign, [(fps[2], fps[9])])

    testbed, campaign, fps = _isolated_campaign()
    _one_chunk(testbed, campaign, [(fps[a], fps[b]) for a, b in before])
    assert _one_chunk(testbed, campaign, [(fps[2], fps[9])]) == alone


def test_makespan_is_the_sum_of_task_durations_and_stamps_never_run_backwards():
    testbed, campaign, fps = _isolated_campaign()
    host, sim = testbed.measurement, testbed.sim
    campaign.pairs = [(fps[0], fps[1]), (fps[1], fps[2]), (fps[3], fps[0])]
    campaign.legs = None
    durations = []

    def forget_clock():  # the last thing a task does, teardown drained
        durations.append(sim.now)
        testbed.forget_clock()

    campaign.isolation = replace(campaign.isolation, forget_clock=forget_clock)
    report = campaign.run()
    assert report.pairs_measured == 3 and report.legs_measured == 4
    # Taking the (fresh) world over took no time; then four legs, three pairs.
    assert durations[0] == 0.0 and len(durations) == 1 + 4 + 3
    assert all(duration > 0.0 for duration in durations[1:])
    # Every task restarted the clock, so ``now`` reads only the last one;
    # the campaign clock is all of them, end to end.
    assert sim.now == durations[-1]
    assert report.makespan_ms == sim.campaign_ms == sum(durations)
    ends = [span["start_ms"] + span["dur_ms"] for span in host.spans.records()]
    assert ends == sorted(ends) and ends[-1] > sim.now
    stamps = [record["sim_ms"] for record in host.events.snapshot()["ring"]["events"]]
    assert stamps == sorted(stamps) and stamps[-1] > sim.now


# ----------------------------------------------------------------------
# The draw source, held to its rule


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**40),
    context=st.one_of(st.none(), st.text(max_size=20)),
    schedule=st.lists(st.integers(min_value=0, max_value=3), min_size=1, max_size=120),
)
def test_kth_draw_is_a_fresh_philox_keyed_the_same_way(seed, context, schedule):
    """Whoever else drew in between, and across block boundaries."""
    draws = RandomStreams(seed).draws
    if context is not None:
        draws.begin(context)
    names = ["link:10.0.0.1>10.0.0.2", "link:10.0.0.2>10.0.0.1", "relay:AB", "relay:CD"]
    taken = dict.fromkeys(names, 0)
    for who in schedule:
        name = names[who]
        assert _take(draws.stream(name)) == reference_draw(
            seed, name, context, taken[name]
        )
        taken[name] += 1


def test_begin_restarts_only_what_was_touched_and_rekeys_everything():
    draws = RandomStreams(5).draws
    touched, idle = draws.stream("relay:A"), draws.stream("relay:B")
    for _ in range(BLOCK_DRAWS + 3):
        _take(touched)
    draws.begin("pair:x:y")
    assert _take(touched) == reference_draw(5, "relay:A", "pair:x:y", 0)
    assert _take(idle) == reference_draw(5, "relay:B", "pair:x:y", 0)
    # A link's stream is forgotten by name at the boundary; the holder of
    # the old object (a relay keeps its own) goes on with it.
    assert draws.stream("relay:A") is not touched


@pytest.mark.parametrize("marked_at", [0, 5, BLOCK_DRAWS - 1, BLOCK_DRAWS])
def test_rewind_across_a_block_boundary_restores_the_earlier_block(marked_at):
    stream = RandomStreams(8).draws.stream("link:a>b")
    for _ in range(marked_at):
        _take(stream)
    mark = stream.base + stream.pos
    first = [_take(stream) for _ in range(BLOCK_DRAWS + 4)]  # into the next block
    stream.rewind(mark)
    assert stream.base + stream.pos == mark
    assert [_take(stream) for _ in range(BLOCK_DRAWS + 4)] == first
    assert first[0] == reference_draw(8, "link:a>b", None, marked_at)
