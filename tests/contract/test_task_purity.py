"""Contract: a measurement is a function of its task alone.

Under task isolation every task starts from a clock at zero, draws from
streams keyed by ``(root seed, entity, task key)`` and tears down its
own connections, so *which* process measures a pair, after which other
pairs, in chunks of what size, cannot show in anything the task
produces. This file holds the sharded engine to that with ``==`` — no
tolerance, no rounding — across forked workers, the in-process
emulation, a single worker and an unsharded isolated campaign, in one
generated differential: the sharded engine's one invariance check (see
:func:`_outcome` for what it compares). It also holds the draw source
to the rule it states (a block is a pure function of root seed, entity
name, isolation context and block number), since everything above
rests on it.

(The third file of ``tests/contract/``, ROADMAP item 2(b)'s first half.)
"""

from __future__ import annotations

import functools
import math
from dataclasses import replace

import numpy as np
import pytest
from conftest import SHARD_POLICY, reference_draw, take_draw as _take
from hypothesis import example, given, settings, strategies as st

from repro.core.dataset import CampaignDataset, RttMatrix
from repro.core.parallel import ParallelCampaign
from repro.core.planner import CampaignPlanner
from repro.core.sampling import AdaptiveSpec, SamplePolicy
from repro.core.shard import LEG_PHASE, CampaignTelemetry, ShardedCampaign
from repro.obs.health import health_report
from repro.testbeds.livetor import LiveTorTestbed
from repro.util.rng import BLOCK_DRAWS, RandomStreams

FIXED = SamplePolicy(samples=4, interval_ms=2.0)
ADAPTIVE = SamplePolicy(
    samples=6,
    interval_ms=None,
    adaptive=AdaptiveSpec(absolute_ms=1.0, min_samples=2, patience=2, confirm_k=2),
)


#: The merged registry's counters that no layout may move.
COUNTERS = (
    "campaign.pairs_attempted", "campaign.pairs_measured", "campaign.task_isolations",
    "ting.leg_cache_lookups", "ting.leg_cache_hits", "ting.leg_cache_misses",
    "echo.probes_sent",
)


def _world(seed: int, n_relays: int, down: str | None):
    """A world with relay ``down`` (if any) shut down before any round."""
    testbed = LiveTorTestbed.build(seed=seed, n_relays=n_relays)
    if down is not None:
        {relay.fingerprint: relay for relay in testbed.relays}[down].shutdown()
    return testbed


def _campaign_counts(bus) -> list:
    return sorted(item for item in bus.counts().items() if item[0][0] == "campaign")


def _shared(report, events: int, observed) -> dict:
    """What a sharded run and an unsharded isolated campaign both report;
    ``observed`` is their ``(registry, bus, provenance)``, or ``None``.

    A layout appends provenance rows in its own order, so the health
    scorecard leaves out what reads a row's age: the anomalies it lists,
    the quality percentiles and ``worst`` pairs (their sums, the mean
    and the counts, stay)."""
    shared = {
        "matrix": report.matrix.as_array().tobytes(),
        "failures": sorted(report.failures),
        "events": events,
        "probes": (
            report.probes_sent, report.probes_saved, report.early_stops,
            report.pairs_attempted, report.pairs_measured,
        ),
    }
    if observed is None:
        return shared
    registry, bus, log = observed
    dataset = CampaignDataset(matrix=RttMatrix(report.matrix.nodes))
    dataset.absorb(report.matrix, provenance=log)
    health = health_report(dataset).to_dict()
    return {
        **shared,
        "counters": {name: registry.counter(name) for name in COUNTERS},
        "bus": _campaign_counts(bus),
        "pair_rows": sorted(repr(replace(row, shard=None)) for row in log),
        "leg_rows": sorted(repr(leg) for leg in log.legs()),
        "health": {
            **health, "anomalies": health["anomalies"]["counts"],
            "quality": {**health["quality"], "percentiles": None, "worst": None},
        },
    }


def _outcome(report, caches) -> dict:
    """Everything of a sharded run that must not depend on how the pair
    list was cut up (the ``shard`` tag on a pair's provenance row says
    who measured it, which is the one thing that may): with the leg
    caches its pair round was handed, in campaign order, and with live
    telemetry the progress totals."""
    observed = None if report.metrics is None else (
        report.metrics, report.events, report.provenance)
    outcome = _shared(report, report.events_processed, observed)
    outcome["cells"] = report.cells_processed
    outcome["legs"] = (
        report.leg_phase.shard_index, report.legs_measured,
        report.leg_phase.legs_measured, max(shard.legs_measured for shard in report.shards),
    )
    outcome["caches"] = [list(cache.items()) for cache in caches]
    if observed is not None:
        outcome["spans"] = [report.spans.count(name) for name in ("campaign", "leg", "pair")]
    if report.progress is not None:
        progress, claims = report.progress, report.progress.shard_progress()
        outcome["stream"] = _campaign_counts(report.stream)
        outcome["progress"] = (
            progress.pairs_done, progress.pairs_total, progress.pairs_failed,
            progress.probes_sent, progress.probes_saved, progress.in_flight(),
        )
        # Who claimed which pairs is the layout's; their sum is not.
        leg_claims = claims.pop(LEG_PHASE)
        outcome["claims"] = (leg_claims, tuple(map(sum, zip(*claims.values()))))
    return outcome


def _sharded(factory, fingerprints, pairs, policy, telemetry=False, observe=True, **kwargs):
    """A sharded run, and the two leg caches its pair round was handed."""
    campaign = ShardedCampaign(
        factory, fingerprints, policy=policy, pairs=pairs, observe=observe,
        telemetry=CampaignTelemetry(heartbeat_s=0.05) if telemetry else None, **kwargs,
    )
    fold, caches = campaign._fold_leg_round, []

    def spy(*args):
        folded, *found = fold(*args)
        caches.extend(found)
        return folded, *found

    campaign._fold_leg_round = spy
    return campaign.run(), caches


def _unsharded(factory, fingerprints, pairs, policy) -> dict:
    """The same campaign run unsharded (one ``ParallelCampaign``), isolated."""
    testbed = factory()
    host = testbed.measurement
    registry = host.enable_observability()
    by_fp = {relay.fingerprint: relay for relay in testbed.relays}
    report = ParallelCampaign(
        host, [by_fp[fp].descriptor() for fp in fingerprints], policy=policy,
        pairs=pairs, isolation=testbed.task_isolation(),
    ).run()
    observed = (registry, host.events, host.provenance)
    return _shared(report, testbed.sim.events_processed, observed)


# ----------------------------------------------------------------------
# Forked == inline == one worker == unsharded


@settings(max_examples=8, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=500),
    relays=st.integers(min_value=4, max_value=12),
    budget=st.integers(min_value=1, max_value=14),
    workers=st.integers(min_value=2, max_value=4),
    chunk=st.integers(min_value=1, max_value=9),
    adaptive=st.booleans(),
    down=st.one_of(st.none(), st.integers(min_value=0, max_value=11)),
    telemetry=st.booleans(),
    forked_observes=st.booleans(),
)
# The layouts worth naming, on five relays (10 pairs) and six:
# one chunk larger than the pair list (nothing forks);
@example(seed=3, relays=5, budget=4, workers=2, chunk=9, adaptive=False, down=None,
         telemetry=False, forked_observes=True)
# more workers than chunks (2 pair chunks, 1 leg chunk), live telemetry on;
@example(seed=3, relays=5, budget=10, workers=4, chunk=8, adaptive=False, down=None,
         telemetry=True, forked_observes=False)
# a leg round narrower than the pair round (2 leg chunks, 4 pair chunks)
# with a relay down: its leg fails once, each of its 4 pairs for it;
@example(seed=3, relays=5, budget=10, workers=4, chunk=3, adaptive=False, down=2,
         telemetry=False, forked_observes=True)
# a leg round wider than the pair round (4 leg chunks, 3 pair chunks).
@example(seed=5, relays=6, budget=3, workers=4, chunk=1, adaptive=False, down=None,
         telemetry=True, forked_observes=True)
def test_forked_inline_and_single_worker_runs_are_equal(
    seed, relays, budget, workers, chunk, adaptive, down, telemetry, forked_observes
):
    """The sharded engine's one invariance check. Relay ``down`` is shut
    down before any round; the forked run observes nothing unless
    ``forked_observes``, and then must agree on what it does report."""
    fingerprints = [relay.fingerprint for relay in LiveTorTestbed.build(
        seed=seed, n_relays=26).relays][:relays]
    down = None if down is None else fingerprints[down % relays]
    factory = functools.partial(_world, seed, 26, down)
    pairs = CampaignPlanner(fingerprints, seed=seed).plan(budget_pairs=budget).pairs
    policy = ADAPTIVE if adaptive else FIXED
    runs = [
        _sharded(factory, fingerprints, pairs, policy, telemetry, workers=1),
        _sharded(factory, fingerprints, pairs, policy, telemetry,
                 workers=workers, steal_chunk_pairs=chunk, force_inline=True),
        _sharded(factory, fingerprints, pairs, policy, telemetry, forked_observes,
                 workers=workers, steal_chunk_pairs=chunk),
    ]
    single, *others = [_outcome(*run) for run in runs]
    for outcome in others:
        assert outcome == {key: single[key] for key in outcome}
    unsharded = _unsharded(factory, fingerprints, pairs, policy)
    assert unsharded == {key: single[key] for key in unsharded}

    # What every layout agrees on, held to what it must be.
    touched = [fp for fp in fingerprints if any(fp in pair for pair in pairs)]
    counters = single["counters"]
    assert counters["ting.leg_cache_hits"] + counters["ting.leg_cache_misses"] == (
        counters["ting.leg_cache_lookups"])
    assert counters["ting.leg_cache_misses"] == len(touched)  # all in the leg round
    assert counters["campaign.task_isolations"] == len(touched) + len(pairs)
    assert single["legs"] == (LEG_PHASE, len(touched), len(touched), 0)
    assert [[fp for fp, _ in cache] for cache in single["caches"]] == [
        [fp for fp in touched if fp != down], [fp for fp in touched if fp == down]]
    assert sum(down in (x, y) for x, y, _ in single["failures"]) == sum(
        down in pair for pair in pairs)
    for (report, _), size in zip(runs, (8, chunk, chunk)):
        assert report.leg_phase.chunks == math.ceil(len(touched) / size)
    assert {leg.shard for leg in runs[0][0].provenance.legs()} <= {None}
    if telemetry:
        assert single["stream"] == single["bus"]
        assert single["progress"] == (
            len(pairs), len(pairs), len(single["failures"]), *single["probes"][:2], {})
        assert single["claims"] == ((0, 0), (len(pairs), len(pairs)))


@pytest.mark.parametrize("workers", [1, 2, 4])
def test_the_five_relay_world_in_numbers(fingerprints, workers):
    """The sharded-engine tests' world (10 pairs), whole and with one
    relay down, in exact counts at each worker count (forked): one miss
    per relay, in the leg round; two hits per measured pair; one
    isolation and 3 probes per task (a leg or a pair); the downed
    relay's leg fails once, and each of its 4 pairs fails for it."""
    seen = []
    for down in (None, fingerprints[2]):
        factory = functools.partial(_world, 3, 14, down)
        report, caches = _sharded(factory, fingerprints, None, SHARD_POLICY, workers=workers)
        seen.append((
            [report.metrics.counter(name) for name in COUNTERS],
            len(report.provenance.legs()), list(caches[1]), len(report.failures),
        ))
    # COUNTERS: pairs attempted, measured; isolations; leg-cache lookups,
    # hits, misses; probes sent.
    assert seen == [
        ([10, 10, 15, 25, 20, 5, 45], 5, [], 0),
        ([10, 6, 15, 17, 12, 5, 30], 4, [fingerprints[2]], 4),
    ]


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
    assert single[0].pairs_measured == 150
    assert np.array_equal(
        forked[0].matrix.as_array(), single[0].matrix.as_array(), equal_nan=True
    )
    assert _outcome(*forked) == _outcome(*inline) == _outcome(*single)


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
