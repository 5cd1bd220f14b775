"""The repro bench harness: timed representative workloads.

``repro bench`` times the pipeline's hot paths end to end — cell
crypto, the event engine, a single Ting pair, a concurrent all-pairs
campaign, the sharded multiprocess campaign, and a planner-budgeted
campaign at full-network relay scale (1,000 relays) — and writes a
schema-stable JSON report (``BENCH_ting.json``)::

    {workload: {wall_s, events_processed, cells_processed, throughput}}

Campaign-scale workloads additionally carry ``pairs_measured`` and
``pair_cost_ms`` (wall per attempted pair); ``--check`` pins the
full-network workload's per-pair cost to :data:`PAIR_COST_CEILING_MS`
via :func:`check_pair_cost`.

The committed report is the performance baseline for this machine
class; ``repro bench --check`` re-runs the workloads and exits nonzero
if any workload's wall time regressed by more than
:data:`REGRESSION_FACTOR` against the baseline. The factor is loose on
purpose: wall timings on shared CI boxes jitter by tens of percent, and
the check exists to catch order-of-magnitude fast-path regressions
(per-byte crypto loops, O(n^2) queue drains), not 10% noise.

``--check`` also enforces *cross-workload* invariants inside the fresh
report (:func:`check_cross_workload`): the sharded campaign — leg phase
plus work-stealing workers, no duplicated leg work, the testbed built
once — must not fall below :data:`CROSS_WORKLOAD_MARGIN` of the
single-process campaign's event throughput, even on one core. Before
the shard-engine v2 rework the sharded path re-built the world and
re-measured every leg per worker and sat at ~0.5x parallel throughput
on a single-CPU box; this guard keeps that class of duplicated-work
regression from coming back.
"""

from __future__ import annotations

import gc
import json
import time
from pathlib import Path
from typing import Callable

from repro.core.parallel import ParallelCampaign
from repro.core.planner import CampaignPlanner
from repro.core.sampling import AdaptiveSpec, SamplePolicy
from repro.core.shard import ShardedCampaign
from repro.core.ting import TingMeasurer
from repro.netsim.engine import Simulator
from repro.testbeds.livetor import LiveTorTestbed
from repro.tor.crypto import LayerCipher
from repro.util.cpus import schedulable_cpu_count

#: ``--check`` fails when a workload's wall time exceeds baseline x this.
REGRESSION_FACTOR = 2.0

#: ``--check`` fails when the sharded campaign's throughput drops below
#: this fraction of the single-process campaign's *in the same report*.
#: The committed baseline holds sharded >= parallel outright; the
#: runtime margin absorbs shared-CI scheduling jitter. Calibration:
#: healthy ratios observed on a loaded single-core box span 0.88-1.30,
#: while the v1 duplicated-work bug (legs re-measured per worker, world
#: re-built per worker) pinned the ratio at ~0.5-0.6 — 0.75 separates
#: the two populations with margin on both sides.
CROSS_WORKLOAD_MARGIN = 0.75

#: Keys every workload entry carries, in schema order.
WORKLOAD_KEYS = ("wall_s", "events_processed", "cells_processed", "throughput")

#: Extra keys campaign-scale workloads may carry on top of
#: :data:`WORKLOAD_KEYS` (``--check`` and the schema tests allow them).
OPTIONAL_WORKLOAD_KEYS = (
    "pairs_measured",
    "pair_cost_ms",
    "point_qps",
    "knn_qps",
    "index_build_s",
    "point_p50_ms",
    "point_p99_ms",
    "knn_p50_ms",
    "knn_p99_ms",
    "percentile_p50_ms",
    "percentile_p99_ms",
    "via_p50_ms",
    "via_p99_ms",
)

#: ``--check`` fails when ``campaign_fullnet``'s per-pair wall cost
#: exceeds this. Calibration: one isolated pair task (samples=4) costs
#: ~10 ms of simulation on this machine class and the amortized leg
#: phase adds ~2 ms/pair at a 3,000-pair budget; 40 ms absorbs loaded-CI
#: jitter while still catching any return of per-pair Python-object or
#: per-worker duplicated work (which showed up as 2-5x per-pair cost).
PAIR_COST_CEILING_MS = 40.0

#: ``--check`` floors for the serve-layer query workload: point lookups
#: and k-NN queries per second against the 1,000-relay index. The
#: ROADMAP's "millions of users" story needs the query side to be
#: decisively cheaper than the measurement side; these are the rates
#: below which a per-query allocation or name-hashing tax has crept
#: into the hot path. Calibration: the index answers ~850k point and
#: ~100k k-NN queries/sec on this machine class, so the floors sit at
#: ~8-10x headroom — loose enough for loaded-CI jitter, tight enough
#: that an accidental O(n) scan per query can never pass.
SERVE_POINT_QPS_FLOOR = 100_000.0
SERVE_KNN_QPS_FLOOR = 10_000.0

#: ``--check`` ceilings for the ``serve_latency`` workload: per-op
#: latency quantiles through the full instrumented query path (dict
#: dispatch + telemetry recording), measured by the telemetry's own
#: µs-bucketed histograms. These are the SLOs a deployment would page
#: on, enforced offline. Calibration: on this machine class the
#: instrumented path answers point queries at p50 ~2 µs / p99 ~7 µs and
#: k-NN (k=10) at p50 ~10 µs / p99 ~43 µs; ceilings sit at ~15-30x so
#: loaded-CI jitter passes while an accidental per-query allocation
#: storm (a 100x miss) cannot. Row percentiles (p50 ~1.7 µs: two reads
#: and a lerp off the presorted row) and via detours (k=3, p50 ~19 µs:
#: one O(n) pass) are held to the same rule — a 44 µs
#: ``np.percentile`` call per query sat unnoticed because only point
#: and k-NN were timed; its ceiling sits at the low end of the range so
#: that path can never pass again.
SERVE_POINT_P50_CEILING_MS = 0.05
SERVE_POINT_P99_CEILING_MS = 0.25
SERVE_KNN_P50_CEILING_MS = 0.15
SERVE_KNN_P99_CEILING_MS = 0.60
SERVE_PERCENTILE_P50_CEILING_MS = 0.03
SERVE_VIA_P50_CEILING_MS = 0.50
#: Detours asked for per ``via`` query in ``serve_latency``.
SERVE_VIA_K = 3

#: Fixed cell-body size for the crypto workload (the Tor relay-cell
#: payload the acceptance criteria are phrased in terms of).
CRYPTO_BODY_BYTES = 512


def _entry(
    wall_s: float, events: int, cells: int, units_per_s: float
) -> dict[str, float]:
    return {
        "wall_s": round(wall_s, 6),
        "events_processed": int(events),
        "cells_processed": int(cells),
        "throughput": round(units_per_s, 3),
    }


def _testbed_cells(testbed: LiveTorTestbed) -> int:
    cells = sum(relay.cells_processed for relay in testbed.relays)
    cells += testbed.measurement.relay_w.cells_processed
    cells += testbed.measurement.relay_z.cells_processed
    return cells


# --- workloads ---------------------------------------------------------


def bench_cell_crypto(cells: int = 20_000) -> dict[str, float]:
    """Onion-encrypt ``cells`` relay-cell bodies through three layers."""
    layers = [LayerCipher(bytes([i]) * 32) for i in range(3)]
    body = bytes(range(256)) * (CRYPTO_BODY_BYTES // 256)
    start = time.perf_counter()
    for _ in range(cells):
        data = body
        for layer in layers:
            data = layer.process(data)
    wall = time.perf_counter() - start
    return _entry(wall, 0, cells, cells / wall)


def bench_engine_events(events: int = 200_000) -> dict[str, float]:
    """Push ``events`` timer events through a fresh simulator.

    Half the events are cancelled before firing, so the heap-compaction
    path is exercised the way echo-probe deadline timers exercise it.
    """
    sim = Simulator()

    def noop() -> None:
        pass

    start = time.perf_counter()
    handles = [sim.schedule(float(i % 97), noop) for i in range(events)]
    for handle in handles[::2]:
        handle.cancel()
    sim.run()
    wall = time.perf_counter() - start
    return _entry(wall, sim.events_processed, 0, sim.events_processed / wall)


def bench_ting_single_pair(seed: int = 2015) -> dict[str, float]:
    """One full Ting measurement (both legs + pair) on a small world."""
    start = time.perf_counter()
    testbed = LiveTorTestbed.build(seed=seed, n_relays=20)
    a, b = testbed.random_relays(2, testbed.streams.get("bench.pair"))
    measurer = TingMeasurer(
        testbed.measurement, policy=SamplePolicy(samples=10, interval_ms=2.0)
    )
    measurer.measure_pair(a, b)
    wall = time.perf_counter() - start
    events = testbed.sim.events_processed
    return _entry(wall, events, _testbed_cells(testbed), events / wall)


def bench_campaign_parallel(
    seed: int = 47, relays: int = 60, samples: int = 6
) -> dict[str, float]:
    """Single-process concurrent all-pairs campaign (concurrency 16)."""
    start = time.perf_counter()
    testbed = LiveTorTestbed.build(seed=seed, n_relays=relays + 15)
    selected = testbed.random_relays(relays, testbed.streams.get("bench.campaign"))
    ParallelCampaign(
        testbed.measurement,
        selected,
        policy=SamplePolicy(samples=samples, interval_ms=2.0),
        concurrency=16,
    ).run()
    wall = time.perf_counter() - start
    events = testbed.sim.events_processed
    return _entry(wall, events, _testbed_cells(testbed), events / wall)


def bench_campaign_adaptive(
    seed: int = 47, relays: int = 60, samples: int = 6
) -> dict[str, float]:
    """The concurrent campaign under convergence-triggered sampling.

    Same world, relay selection, concurrency, and sample cap as
    :func:`bench_campaign_parallel`, but probing stops per circuit as
    soon as the running minimum plateaus (1 ms tolerance) instead of
    always sending the fixed count — the bench-scale operating point of
    the Section 4.4 adaptive engine (min 2 samples, patience 2, a
    2-sample confirmation window). The wall-clock gap to
    ``campaign_parallel`` is the probe volume the early stop avoided
    simulating; legs run at the full cap (``SamplePolicy.for_leg``), so
    the saving all comes from the C(n,2) pair circuits.
    """
    start = time.perf_counter()
    testbed = LiveTorTestbed.build(seed=seed, n_relays=relays + 15)
    selected = testbed.random_relays(relays, testbed.streams.get("bench.campaign"))
    ParallelCampaign(
        testbed.measurement,
        selected,
        policy=SamplePolicy(
            samples=samples,
            interval_ms=None,
            adaptive=AdaptiveSpec(
                absolute_ms=1.0, min_samples=2, patience=2, confirm_k=2
            ),
        ),
        concurrency=16,
    ).run()
    wall = time.perf_counter() - start
    events = testbed.sim.events_processed
    return _entry(wall, events, _testbed_cells(testbed), events / wall)


def bench_campaign_sharded(
    seed: int = 47, relays: int = 60, samples: int = 6, workers: int = 4
) -> dict[str, float]:
    """The same all-pairs campaign split across ``workers`` processes."""
    import functools

    testbed = LiveTorTestbed.build(seed=seed, n_relays=relays + 15)
    selected = testbed.random_relays(relays, testbed.streams.get("bench.campaign"))
    campaign = ShardedCampaign(
        functools.partial(LiveTorTestbed.build, seed=seed, n_relays=relays + 15),
        [d.fingerprint for d in selected],
        policy=SamplePolicy(samples=samples, interval_ms=2.0),
        workers=workers,
        # Forking past the core count is pure overhead; stealing makes
        # the cap result-invariant, so the bench measures the engine's
        # best dispatch for the box instead of fork thrash.
        clamp_to_cpus=True,
    )
    report = campaign.run()
    entry = _entry(
        report.wall_s,
        report.events_processed,
        report.cells_processed,
        report.events_processed / report.wall_s,
    )
    entry["pairs_measured"] = int(report.pairs_measured)
    entry["pair_cost_ms"] = round(
        report.wall_s * 1000.0 / max(1, report.pairs_attempted), 3
    )
    return entry


def bench_campaign_fullnet(
    seed: int = 47,
    relays: int = 1000,
    budget_pairs: int = 3000,
    samples: int = 4,
    workers: int = 4,
) -> dict[str, float]:
    """A planner-budgeted sharded campaign at full-network relay scale.

    This is the scale proof for the columnar stack: ≥1,000 relays (the
    paper's network is ~6,500; pre-columnar benches topped out at 60),
    with the pair list produced by :class:`CampaignPlanner` instead of
    all-pairs enumeration — a cold-start plan, so the budget buys the
    highest-coverage pairs. The leg phase only pre-warms relays the
    planned pairs touch, and ``pair_cost_ms`` (wall per attempted pair,
    leg phase amortized in) is the number ``--check`` pins: it is flat
    in n for the budgeted campaign, so a per-pair Python-object tax
    creeping back shows up here first.
    """
    import functools

    build = functools.partial(LiveTorTestbed.build, seed=seed, n_relays=relays + 15)
    testbed = build()
    selected = testbed.random_relays(relays, testbed.streams.get("bench.campaign"))
    fingerprints = [d.fingerprint for d in selected]
    plan = CampaignPlanner(fingerprints, seed=seed).plan(budget_pairs=budget_pairs)
    campaign = ShardedCampaign(
        build,
        fingerprints,
        policy=SamplePolicy(samples=samples, interval_ms=2.0),
        workers=workers,
        pairs=plan.pairs,
        clamp_to_cpus=True,
    )
    report = campaign.run()
    entry = _entry(
        report.wall_s,
        report.events_processed,
        report.cells_processed,
        report.events_processed / report.wall_s,
    )
    entry["pairs_measured"] = int(report.pairs_measured)
    entry["pair_cost_ms"] = round(
        report.wall_s * 1000.0 / max(1, report.pairs_attempted), 3
    )
    return entry


def bench_serve_qps(
    seed: int = 47,
    relays: int = 1000,
    hole_fraction: float = 0.1,
    point_queries: int = 100_000,
    knn_queries: int = 20_000,
    knn_k: int = 10,
) -> dict[str, float]:
    """Query throughput of the serve-layer index at fullnet scale.

    Builds a :class:`~repro.serve.index.MatrixIndex` over a synthetic
    1,000-relay matrix (10% unmeasured holes, matching a budgeted
    campaign's coverage) and times the two consumer hot paths: point
    lookups and k-NN queries, each over pre-drawn random node pairs so
    the timed loop measures the index, not the RNG. The entry's
    ``throughput`` is the point-query rate; ``point_qps``, ``knn_qps``
    and ``index_build_s`` ride along for :func:`check_serve_qps`.
    """
    import numpy as np

    from repro.core.dataset import RttMatrix
    from repro.serve.index import MatrixIndex

    rng = np.random.default_rng(seed)
    nodes = [f"relay{i:04d}" for i in range(relays)]
    iu, ju = np.triu_indices(relays, k=1)
    rtts = rng.uniform(2.0, 400.0, size=iu.size)
    rtts[rng.random(iu.size) < hole_fraction] = np.nan
    values = np.zeros((relays, relays))
    values[iu, ju] = rtts
    values[ju, iu] = rtts
    matrix = RttMatrix.from_array(nodes, values, copy=False)

    start = time.perf_counter()
    index = MatrixIndex.build(matrix)
    build_s = time.perf_counter() - start

    pair_ids = rng.integers(0, relays, size=(point_queries, 2))
    pairs = [(nodes[int(i)], nodes[int(j)]) for i, j in pair_ids]
    point = index.point
    start = time.perf_counter()
    for a, b in pairs:
        point(a, b)
    point_wall = time.perf_counter() - start

    knn_nodes = [nodes[int(i)] for i in rng.integers(0, relays, size=knn_queries)]
    k_nearest = index.k_nearest
    start = time.perf_counter()
    for a in knn_nodes:
        k_nearest(a, knn_k)
    knn_wall = time.perf_counter() - start

    entry = _entry(
        build_s + point_wall + knn_wall,
        0,
        0,
        point_queries / point_wall,
    )
    entry["point_qps"] = round(point_queries / point_wall, 3)
    entry["knn_qps"] = round(knn_queries / knn_wall, 3)
    entry["index_build_s"] = round(build_s, 6)
    return entry


def bench_serve_latency(
    seed: int = 47,
    relays: int = 1000,
    hole_fraction: float = 0.1,
    point_queries: int = 50_000,
    knn_queries: int = 10_000,
    knn_k: int = 10,
) -> dict[str, float]:
    """Per-query latency quantiles through the instrumented serve path.

    Where :func:`bench_serve_qps` times raw index method calls, this
    workload goes through :meth:`QueryServer.query` with *live*
    telemetry — dict dispatch, answer building, and per-op histogram
    recording included — and reads the p50/p99 off the telemetry's own
    µs-bucketed histograms, exactly the numbers a production scrape
    would alert on. :func:`check_serve_latency` pins them under the
    ``SERVE_*_CEILING_MS`` SLOs. Row-percentile and via
    (``k=SERVE_VIA_K``) queries get half of ``knn_queries`` each.
    """
    import numpy as np

    from repro.core.dataset import RttMatrix
    from repro.serve.index import MatrixIndex
    from repro.serve.server import QueryServer
    from repro.serve.telemetry import ServeTelemetry

    rng = np.random.default_rng(seed)
    nodes = [f"relay{i:04d}" for i in range(relays)]
    iu, ju = np.triu_indices(relays, k=1)
    rtts = rng.uniform(2.0, 400.0, size=iu.size)
    rtts[rng.random(iu.size) < hole_fraction] = np.nan
    values = np.zeros((relays, relays))
    values[iu, ju] = rtts
    values[ju, iu] = rtts
    index = MatrixIndex.build(RttMatrix.from_array(nodes, values, copy=False))

    telemetry = ServeTelemetry(slow_ms=1.0, sample_every=0)
    server = QueryServer(index, telemetry=telemetry)
    pair_ids = rng.integers(0, relays, size=(point_queries, 2))
    queries = [
        {"op": "point", "x": nodes[int(i)], "y": nodes[int(j)]}
        for i, j in pair_ids
    ]
    queries += [
        {"op": "knn", "x": nodes[int(i)], "k": knn_k}
        for i in rng.integers(0, relays, size=knn_queries)
    ]
    queries += [
        {"op": "percentile", "x": nodes[int(i)], "q": float(q)}
        for i, q in zip(
            rng.integers(0, relays, size=knn_queries // 2),
            rng.uniform(1.0, 99.0, size=knn_queries // 2),
        )
    ]
    via_first = rng.integers(0, relays, size=knn_queries // 2)
    # An offset in [1, relays) keeps the two endpoints distinct.
    via_second = (
        via_first + rng.integers(1, relays, size=knn_queries // 2)
    ) % relays
    queries += [
        {"op": "via", "x": nodes[int(i)], "y": nodes[int(j)], "k": SERVE_VIA_K}
        for i, j in zip(via_first, via_second)
    ]
    query = server.query
    start = time.perf_counter()
    for q in queries:
        query(q)
    wall = time.perf_counter() - start

    entry = _entry(wall, 0, 0, len(queries) / wall)
    for op in ("point", "knn", "percentile", "via"):
        hist = telemetry.registry.histogram(f"serve.latency_ms.{op}")
        entry[f"{op}_p50_ms"] = round(hist.quantile(0.5), 6)
        entry[f"{op}_p99_ms"] = round(hist.quantile(0.99), 6)
    return entry


# --- harness -----------------------------------------------------------


def run_bench(
    seed: int = 47,
    relays: int = 60,
    samples: int = 6,
    workers: int = 4,
    progress: Callable[[str], None] | None = None,
) -> dict[str, dict[str, float]]:
    """Run every workload; returns the schema-stable report mapping."""
    say = progress or (lambda _msg: None)
    report: dict[str, dict[str, float]] = {
        # Run configuration + machine class, so a committed baseline is
        # interpretable (the sharded workloads clamp their fork count to
        # ``cpus``: on one core they measure the inline work-stealing
        # emulation, on many cores real process parallelism).
        # ``_``-prefixed keys are ignored by --check.
        "_meta": {
            "seed": seed,
            "relays": relays,
            "samples": samples,
            "workers": workers,
            "cpus": schedulable_cpu_count(),
        },
    }
    workloads: list[tuple[str, Callable[[], dict[str, float]]]] = [
        ("cell_crypto", bench_cell_crypto),
        ("engine_events", bench_engine_events),
        ("ting_single_pair", lambda: bench_ting_single_pair(seed=2015)),
        (
            "campaign_parallel",
            lambda: bench_campaign_parallel(
                seed=seed, relays=relays, samples=samples
            ),
        ),
        (
            "campaign_adaptive",
            lambda: bench_campaign_adaptive(
                seed=seed, relays=relays, samples=samples
            ),
        ),
        (
            "campaign_sharded",
            lambda: bench_campaign_sharded(
                seed=seed, relays=relays, samples=samples, workers=workers
            ),
        ),
        (
            "campaign_fullnet",
            lambda: bench_campaign_fullnet(seed=seed, workers=workers),
        ),
        ("serve_qps", lambda: bench_serve_qps(seed=seed)),
        ("serve_latency", lambda: bench_serve_latency(seed=seed)),
    ]
    for name, workload in workloads:
        say(f"  {name} ...")
        # Level the heap-state playing field: without this, workloads
        # late in the list pay for their predecessors' garbage (and the
        # cross-workload sharded-vs-parallel comparison would measure
        # run order, not the engines).
        gc.collect()
        report[name] = workload()
        say(
            f"  {name}: {report[name]['wall_s']:.2f}s, "
            f"throughput {report[name]['throughput']:,.0f}/s"
        )
    return report


def check_regressions(
    report: dict[str, dict[str, float]],
    baseline: dict[str, dict[str, float]],
    factor: float = REGRESSION_FACTOR,
) -> list[str]:
    """Compare a fresh report to a baseline; returns regression messages.

    A workload regresses when its wall time exceeds ``factor`` times the
    baseline's. Workloads missing from either side are reported too — a
    renamed or dropped workload silently escaping the guard is itself a
    regression of the harness.
    """
    problems: list[str] = []
    for name, base in baseline.items():
        if name.startswith("_"):
            continue
        fresh = report.get(name)
        if fresh is None:
            problems.append(f"{name}: missing from fresh run")
            continue
        if fresh["wall_s"] > factor * base["wall_s"]:
            problems.append(
                f"{name}: wall {fresh['wall_s']:.3f}s > "
                f"{factor:g}x baseline {base['wall_s']:.3f}s"
            )
    for name in report:
        if not name.startswith("_") and name not in baseline:
            problems.append(f"{name}: missing from baseline")
    return problems


def check_cross_workload(
    report: dict[str, dict[str, float]],
    margin: float = CROSS_WORKLOAD_MARGIN,
) -> list[str]:
    """Relative invariants between workloads of one report.

    Unlike :func:`check_regressions` this needs no baseline: the
    workloads guard each other. Today's single invariant is the reason
    the sharded engine exists — ``campaign_sharded`` must keep at least
    ``margin`` of ``campaign_parallel``'s event throughput. A sharded
    run that duplicates leg work, rebuilds the testbed per worker, or
    serializes on the fork channel loses to the single process again
    and fails here, machine-independent of absolute wall times.
    """
    problems: list[str] = []
    parallel = report.get("campaign_parallel")
    sharded = report.get("campaign_sharded")
    if parallel is None or sharded is None:
        problems.append(
            "cross-workload: campaign_parallel/campaign_sharded missing"
        )
        return problems
    floor = margin * parallel["throughput"]
    if sharded["throughput"] < floor:
        problems.append(
            f"campaign_sharded: throughput {sharded['throughput']:,.0f}/s < "
            f"{margin:g}x campaign_parallel ({parallel['throughput']:,.0f}/s) "
            "— sharding is losing to the single process again"
        )
    return problems


def check_pair_cost(
    report: dict[str, dict[str, float]],
    ceiling_ms: float = PAIR_COST_CEILING_MS,
) -> list[str]:
    """Absolute per-pair cost ceiling for the full-network workload.

    ``campaign_fullnet`` measures a fixed pair budget, so its wall time
    *is* its per-pair cost — a machine-class constant, unlike the
    all-pairs workloads whose wall scales O(n²). A report without the
    workload passes (``check_regressions`` already flags workload-set
    drift against the baseline); a fullnet entry without the metric, or
    over the ceiling, fails.
    """
    problems: list[str] = []
    entry = report.get("campaign_fullnet")
    if entry is None:
        return problems
    cost = entry.get("pair_cost_ms")
    if cost is None:
        problems.append("campaign_fullnet: entry lacks pair_cost_ms")
    elif cost > ceiling_ms:
        problems.append(
            f"campaign_fullnet: per-pair cost {cost:.2f} ms > ceiling "
            f"{ceiling_ms:g} ms — the budgeted campaign is paying "
            "per-pair overhead again"
        )
    return problems


def check_serve_qps(
    report: dict[str, dict[str, float]],
    point_floor: float = SERVE_POINT_QPS_FLOOR,
    knn_floor: float = SERVE_KNN_QPS_FLOOR,
) -> list[str]:
    """Absolute query-rate floors for the serve-layer workload.

    Floors, not regression factors, because query rates are the
    product's contract with its consumers: the serve layer exists to
    answer at client rates, and "half as fast as last time but still
    fast" should pass while "under 100k point queries/sec at 1,000
    relays" should not, whatever the baseline says. A report without
    the workload passes (:func:`check_regressions` flags workload-set
    drift); a ``serve_qps`` entry missing either rate fails.
    """
    problems: list[str] = []
    entry = report.get("serve_qps")
    if entry is None:
        return problems
    for key, floor in (("point_qps", point_floor), ("knn_qps", knn_floor)):
        rate = entry.get(key)
        if rate is None:
            problems.append(f"serve_qps: entry lacks {key}")
        elif rate < floor:
            problems.append(
                f"serve_qps: {key} {rate:,.0f}/s < floor {floor:,.0f}/s — "
                "a per-query tax has crept into the index hot path"
            )
    return problems


def check_serve_latency(
    report: dict[str, dict[str, float]],
    ceilings: dict[str, float] | None = None,
) -> list[str]:
    """Per-op latency SLOs for the instrumented serve workload.

    Absolute ceilings like :func:`check_serve_qps`'s floors — latency
    quantiles are the contract a deployment alerts on, so the check is
    baseline-independent. A report without the workload passes
    (:func:`check_regressions` flags workload-set drift); an entry
    missing any quantile, or over its ceiling, fails.
    """
    if ceilings is None:
        ceilings = {
            "point_p50_ms": SERVE_POINT_P50_CEILING_MS,
            "point_p99_ms": SERVE_POINT_P99_CEILING_MS,
            "knn_p50_ms": SERVE_KNN_P50_CEILING_MS,
            "knn_p99_ms": SERVE_KNN_P99_CEILING_MS,
            "percentile_p50_ms": SERVE_PERCENTILE_P50_CEILING_MS,
            "via_p50_ms": SERVE_VIA_P50_CEILING_MS,
        }
    problems: list[str] = []
    entry = report.get("serve_latency")
    if entry is None:
        return problems
    for key, ceiling in ceilings.items():
        value = entry.get(key)
        if value is None:
            problems.append(f"serve_latency: entry lacks {key}")
        elif value > ceiling:
            problems.append(
                f"serve_latency: {key} {value * 1000:.1f} us > SLO "
                f"{ceiling * 1000:g} us — the instrumented query path "
                "is missing its latency contract"
            )
    return problems


def save_report(report: dict[str, dict[str, float]], path: Path) -> None:
    """Write the report as stable, diff-friendly JSON."""
    path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")


def load_report(path: Path) -> dict[str, dict[str, float]]:
    """Load a previously saved bench report."""
    return json.loads(path.read_text())
