"""Extension — the sharded multiprocess campaign at 60-relay scale.

The claim under test: partitioning an all-pairs campaign across worker
processes (a) cuts the per-process event load by ~the shard count, (b)
beats the single-process campaign's wall clock whenever more than one
core is actually available, and (c) changes *nothing* about the data —
the merged matrix covers exactly the same pairs.

On a single-core box (CI containers are often pinned to one CPU) the
wall-clock assertion is vacuous — four workers timeshare one core and
pay the task-isolation overhead on top — so it is gated on the core
count and the per-process work reduction carries the guard instead.
"""

import functools
import time

import pytest

from _config import scaled
from repro.analysis.report import TextTable
from repro.core.parallel import ParallelCampaign
from repro.core.sampling import SamplePolicy
from repro.core.shard import ShardedCampaign
from repro.testbeds.livetor import LiveTorTestbed
from repro.util.cpus import schedulable_cpu_count as _cpus

#: Floor on the sharded campaign's event throughput as a fraction of the
#: single-process campaign's on the same relays. Healthy ratios on a
#: loaded single-core box span 0.88-1.30, while the v1 duplicated-work
#: bug (legs re-measured per worker, world re-built per worker) pinned
#: the ratio at ~0.5-0.6 — 0.75 separates the two populations with
#: margin on both sides.
CROSS_WORKLOAD_MARGIN = 0.75

#: Floor on a forked worker's CPU time over its wall time. A worker with
#: a CPU to itself reads 0.95+; two workers left on one CPU read ~0.5
#: each — which is what every forked worker read before placement.
BUSY_FLOOR = 0.8


def test_ext_sharded_campaign(report):
    n_relays = scaled(60, minimum=60)
    workers = 4
    seed, network = 47, n_relays + 15
    policy = SamplePolicy(samples=scaled(6, minimum=4), interval_ms=2.0)
    factory = functools.partial(LiveTorTestbed.build, seed=seed, n_relays=network)

    testbed = factory()
    relays = testbed.random_relays(n_relays, testbed.streams.get("shard.bench"))
    start = time.perf_counter()
    single = ParallelCampaign(
        testbed.measurement, relays, policy=policy, concurrency=16
    ).run()
    single_wall = time.perf_counter() - start
    single_events = testbed.sim.events_processed

    sharded = ShardedCampaign(
        factory,
        [r.fingerprint for r in relays],
        policy=policy,
        workers=workers,
    ).run()
    peak_shard_events = max(s.events_processed for s in sharded.shards)

    table = TextTable(
        f"Extension: sharded campaign ({n_relays} relays, "
        f"{len(sharded.shards)} shards, {_cpus()} cpus)",
        ["metric", "single-process", f"sharded x{workers}"],
    )
    table.add_row("wall (s)", f"{single_wall:.1f}", f"{sharded.wall_s:.1f}")
    table.add_row("events total", single_events, sharded.events_processed)
    table.add_row("events peak/process", single_events, peak_shard_events)
    table.add_row("pairs measured", single.pairs_measured, sharded.pairs_measured)
    report(table.render())

    # (c) same coverage either way.
    assert sharded.matrix.is_complete
    assert sharded.pairs_measured == single.pairs_measured
    # The leg phase measured every relay exactly once, campaign-wide;
    # no worker rebuilt a leg the phase had already paid for.
    assert sharded.legs_measured == n_relays
    assert all(s.legs_measured == 0 for s in sharded.shards)
    # (a) per-process event load drops by ~the shard count; task
    # isolation may add a modest constant overhead, hence the slack.
    assert peak_shard_events * (workers - 1) < single_events
    # (b) with real cores behind the workers, wall clock must win too.
    if _cpus() >= 2:
        assert sharded.wall_s < single_wall
    else:
        report("single CPU visible: wall-clock comparison not meaningful")


@pytest.mark.benchguard
def test_sharded_keeps_up_with_single_process(report):
    """``ShardedCampaign(clamp_to_cpus=True)`` must keep at least 0.75x
    of ``ParallelCampaign``'s events/s on the same relays, world build
    included on both sides. A sharded run that duplicates leg work,
    rebuilds the testbed per worker, or serializes on the fork channel
    loses to the single process again and fails here, whatever the
    absolute wall times."""
    n_relays = scaled(40, minimum=40)
    policy = SamplePolicy(samples=6, interval_ms=2.0)
    factory = functools.partial(LiveTorTestbed.build, seed=47, n_relays=n_relays + 15)

    start = time.perf_counter()
    testbed = factory()
    relays = testbed.random_relays(n_relays, testbed.streams.get("shard.bench"))
    ParallelCampaign(testbed.measurement, relays, policy=policy, concurrency=16).run()
    parallel_rate = testbed.sim.events_processed / (time.perf_counter() - start)

    sharded = ShardedCampaign(
        factory,
        [r.fingerprint for r in relays],
        policy=policy,
        workers=4,
        # Forking past the core count is pure overhead; stealing makes
        # the cap result-invariant, so this measures the engine's best
        # dispatch for the box instead of fork thrash.
        clamp_to_cpus=True,
    ).run()
    sharded_rate = sharded.events_processed / sharded.wall_s
    report(
        f"sharded {sharded_rate:,.0f} events/s vs single-process "
        f"{parallel_rate:,.0f} events/s ({sharded_rate / parallel_rate:.2f}x, "
        f"floor {CROSS_WORKLOAD_MARGIN}x, {_cpus()} cpus)"
    )
    assert sharded.legs_measured == n_relays
    assert sharded_rate >= CROSS_WORKLOAD_MARGIN * parallel_rate


@pytest.mark.benchguard
def test_forked_workers_each_keep_a_cpu_busy(report):
    if _cpus() < 2:
        pytest.skip("one schedulable CPU: forked workers must share it")
    n_relays = 40
    factory = functools.partial(LiveTorTestbed.build, seed=47, n_relays=n_relays + 15)
    testbed = factory()
    relays = testbed.random_relays(n_relays, testbed.streams.get("shard.bench"))
    sharded = ShardedCampaign(
        factory,
        [r.fingerprint for r in relays],
        policy=SamplePolicy(samples=4, interval_ms=2.0),
        workers=2,
    ).run()
    assert len(sharded.shards) == 2
    table = TextTable(
        f"Forked worker placement ({n_relays} relays, {_cpus()} cpus)",
        ["worker", "cpu (s)", "wall (s)", "cpu/wall"],
    )
    leg = sharded.leg_phase
    table.add_row("leg round (2)", f"{leg.cpu_s:.2f}", f"{leg.wall_s:.2f}",
                  f"{leg.cpu_s / leg.wall_s:.2f}")
    for shard in sharded.shards:
        table.add_row(
            f"pair shard {shard.shard_index}", f"{shard.cpu_s:.2f}",
            f"{shard.wall_s:.2f}", f"{shard.cpu_s / shard.wall_s:.2f}",
        )
    report(table.render())
    # The leg round's row is its workers' CPU over the *round's* wall
    # (forks and joins included), so it is shown, not gated.
    for shard in sharded.shards:
        assert shard.cpu_s / shard.wall_s >= BUSY_FLOOR, shard.shard_index
