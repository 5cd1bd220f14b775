"""The four workloads. Each measures the program from outside: it times
calls into public functions (names documented in ``API.md``) and reads
public counters, report fields and the obs registry.

A workload object is one (seed, size) configuration. ``setup`` builds
the world and inputs (timed by the harness as ``setup_s``); ``run``
holds the timed section and returns an :class:`Outcome`; ``check`` runs
the workload's correctness gates once per invocation, outside the timed
repeats; ``derive`` adds the modelled per-layer metrics.

Why these four is recorded in ``bench/README.md``.
"""

from __future__ import annotations

import functools
import hashlib
import os
import pickle
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterator

import numpy as np

from repro.core import (
    AdaptiveSpec,
    AllPairsCampaign,
    ParallelCampaign,
    RttMatrix,
    SamplePolicy,
    TingMeasurer,
)
from repro.core.dataset import CampaignDataset
from repro.core.planner import CampaignPlanner
from repro.core.shard import ShardedCampaign
from repro.obs.health import health_report
from repro.serve import MatrixIndex, QueryServer, ServeTelemetry
from repro.testbeds.livetor import LiveTorTestbed

from bench import check
from bench.harness import box_speed_ms, gc_fence, percentile
from bench.kernels import testbed_cells
from bench.queries import distinct_pairs, generate_queries, synthetic_matrix
from bench.trace import NullRecorder, SpanRecorder

Tracer = SpanRecorder | NullRecorder

#: Relays in the world beyond the measured set, as ``repro bench`` does.
SPARE_RELAYS = 15
#: ``nproc`` on the reference box; the pipeline forks this many workers.
WORKERS = 2


@dataclass
class Outcome:
    """What one repeat produced."""

    #: The timed section, seconds.
    wall_s: float
    #: ``box_speed_ms()`` read the moment the timed section ended.
    spin_after_ms: float
    #: User-visible units of work done (pairs attempted / queries answered)
    #: and the wall that ``unit_cost_us`` divides by them.
    units: int
    unit_wall_s: float
    failed: int
    #: Operations attempted, for the failure count to be set against.
    attempted: int
    #: Hash of the simulated result; identical in every repeat or the run fails.
    fingerprint: str
    #: Per-layer metrics that must repeat exactly (counts, simulated statistics).
    exact: dict[str, float] = field(default_factory=dict)
    #: Per-layer host-time metrics (best-of-k across repeats).
    host: dict[str, float] = field(default_factory=dict)
    #: Whatever ``check`` needs from this repeat.
    artifacts: dict[str, Any] = field(default_factory=dict)

    @property
    def unit_cost_us(self) -> float:
        return self.unit_wall_s * 1e6 / self.units


class _Stages:
    """Wall time per named stage; each stage is also a span when tracing."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self.walls: dict[str, float] = {}

    @contextmanager
    def stage(self, name: str, **attrs: Any) -> Iterator[None]:
        with self.tracer.span(name, **attrs):
            start = time.perf_counter()
            try:
                yield
            finally:
                elapsed = time.perf_counter() - start
                self.walls[name] = self.walls.get(name, 0.0) + elapsed

    def seconds(self) -> dict[str, float]:
        """Stage walls as per-layer metrics: ``<stage>_s``."""
        return {f"{name}_s": wall for name, wall in self.walls.items()}


def _estimate_errors(
    testbed: LiveTorTestbed, matrix: RttMatrix, descriptors: list
) -> list[float]:
    """Sorted ``|estimate − oracle|`` over every measured pair."""
    by_fp = {d.fingerprint: d for d in descriptors}
    values = matrix.matrix
    nodes = matrix.nodes
    rows, cols = np.nonzero(np.triu(~np.isnan(values), k=1))
    return sorted(
        abs(
            float(values[i, j])
            - testbed.oracle_rtt(by_fp[nodes[int(i)]], by_fp[nodes[int(j)]])
        )
        for i, j in zip(rows, cols)
    )


def _error_metrics(errors: list[float]) -> dict[str, float]:
    return {
        "core.ting.est_err_p50_ms": percentile(errors, 50),
        "core.ting.est_err_p90_ms": percentile(errors, 90),
    }


#: obs-registry counter → per-layer metric, read after an observed run.
REGISTRY_COUNTERS = {
    "tor.circuits_built": "tor.client.circuits_built",
    "tor.circuits_failed": "tor.client.circuits_failed",
    "tor.streams_attached": "tor.client.streams_attached",
    "tor.stream_failures": "tor.client.stream_failures",
    "echo.probes_sent": "echo.client.probes_sent",
    "echo.probes_received": "echo.client.probes_received",
    "echo.probes_lost": "echo.client.probes_lost",
    "echo.probes_saved": "echo.client.probes_saved",
    "echo.early_stops": "echo.client.early_stops",
    "ting.leg_cache_hits": "core.ting.leg_cache_hits",
    "ting.leg_cache_misses": "core.ting.leg_cache_misses",
    # Only the helper relays w and z report to the registry.
    "relay.cells_relayed": "tor.relay.cells_relayed",
}


def _registry_counts(*registries: Any) -> dict[str, float]:
    out = {
        metric: float(sum(r.counter(counter) for r in registries))
        for counter, metric in REGISTRY_COUNTERS.items()
    }
    sent = out["echo.client.probes_sent"]
    out["echo.client.useful_ratio"] = (
        out["echo.client.probes_received"] / sent if sent else 0.0
    )
    return out


def _simulator_counts(testbed: LiveTorTestbed, pairs: int) -> dict[str, float]:
    sim = testbed.sim
    cells = testbed_cells(testbed)
    return {
        "netsim.engine.events": sim.events_processed,
        "netsim.engine.events_cancelled": sim.events_cancelled,
        "netsim.engine.heap_peak": sim.heap_peak,
        "netsim.engine.heap_compactions": sim.heap_compactions,
        "netsim.engine.events_per_pair": sim.events_processed / pairs,
        "tor.relay.cells_processed": cells,
        "tor.relay.cells_per_pair": cells / pairs,
    }


class Workload:
    """Base: sizes, the world builder and the modelled-share arithmetic."""

    name: str
    #: Layer prefix of the campaign engine this workload drives.
    engine_layer: str | None = None
    #: Whether the workload constructs a ``Simulator`` (kernels apply).
    simulated = True
    #: Whether results are produced by forked workers (see check.FORK_ATOL_MS).
    across_fork = False
    #: Extra ``LiveTorTestbed.build`` arguments.
    testbed_kwargs: dict[str, Any] = {}
    sizes: dict[str, dict[str, int]]

    def __init__(self, seed: int, smoke: bool, out_dir: Path) -> None:
        self.seed = seed
        self.smoke = smoke
        self.size = self.sizes["smoke" if smoke else "full"]
        self.out_dir = out_dir

    def setup(self, tracer: Tracer) -> dict[str, Any]:
        """The campaign workloads' world: a testbed and the relays to measure."""
        stages = _Stages(tracer)
        with stages.stage("testbeds.livetor.build"):
            testbed = LiveTorTestbed.build(
                seed=self.seed,
                n_relays=self.size["relays"] + SPARE_RELAYS,
                **self.testbed_kwargs,
            )
        relays = testbed.random_relays(
            self.size["relays"], testbed.streams.get("bench.campaign")
        )
        return {"testbed": testbed, "relays": relays, "stages": stages}

    def run(self, world: dict[str, Any], tracer: Tracer) -> Outcome:
        raise NotImplementedError

    def _single_process_outcome(
        self,
        world: dict[str, Any],
        report: Any,
        stage: str,
        spin_after_ms: float,
        legs: int,
        exact: dict[str, float],
        host: dict[str, float],
    ) -> Outcome:
        """The outcome of a campaign that ran on the bench's own testbed."""
        testbed, relays = world["testbed"], world["relays"]
        wall = world["stages"].walls[stage]
        pairs = report.pairs_attempted
        errors = _estimate_errors(testbed, report.matrix, relays)
        exact = {**_simulator_counts(testbed, pairs), **_error_metrics(errors), **exact}
        if testbed.measurement.metrics.enabled:
            exact.update(_registry_counts(testbed.measurement.metrics))
        values = report.matrix.as_array()
        return Outcome(
            wall_s=wall,
            spin_after_ms=spin_after_ms,
            units=pairs,
            unit_wall_s=wall,
            failed=len(report.failures),
            attempted=pairs,
            fingerprint=check.matrix_hash(values),
            exact=exact,
            host={**world["stages"].seconds(), **host},
            artifacts={
                "values": values,
                "measured": report.pairs_measured,
                "pair_failures": len(report.failures),
                "legs": legs,
                "relays": len(relays),
                "err_p50": exact["core.ting.est_err_p50_ms"],
            },
        )

    def check(self, outcome: Outcome) -> list[str]:
        """The gates every campaign workload shares, on the last repeat."""
        a = outcome.artifacts
        return check.campaign(
            self.name, a["values"], outcome.units, a["measured"],
            a["pair_failures"], a["legs"], a["relays"], a["err_p50"],
            # The accuracy ceiling is a property of the full-size workload;
            # a handful of smoke pairs at a few samples cannot meet it.
            None if self.smoke else check.EST_ERR_P50_CEILING_MS[self.name],
        )

    def derive(
        self,
        layer: dict[str, float],
        kernel: dict[str, float],
        wall: float,
        pairs: int,
    ) -> None:
        """Modelled metrics: unit costs from the kernels × this run's counts.

        ``layer`` holds the aggregated per-layer values so far; ``wall``
        is the untraced campaign wall they are set against.
        """
        if not kernel:
            return
        events = layer["netsim.engine.events"] + layer["netsim.engine.events_cancelled"]
        engine = events * kernel["netsim.engine.kernel_ns_per_event"] * 1e-9 / wall
        crypto = (
            layer["tor.relay.cells_processed"]
            * kernel["tor.crypto.kernel_ns_per_cell"] * 1e-9 / wall
        )
        layer["netsim.engine.model_share"] = engine
        layer["tor.crypto.model_share"] = crypto
        layer["harness.model_residual_frac"] = 1.0 - engine - crypto
        if self.engine_layer is not None:
            modelled_us = (
                layer["tor.client.circuits_built"]
                * kernel["tor.client.kernel_us_per_circuit"]
                + layer["echo.client.probes_sent"]
                * kernel["echo.client.kernel_us_per_probe"]
            )
            layer[f"{self.engine_layer}.bookkeeping_ms_per_pair"] = (
                (wall * 1e6 - modelled_us) / pairs / 1000.0
            )


class AllPairsDense(Workload):
    """Concurrent all-pairs campaign: circuit set-up dominated."""

    name = "allpairs_dense"
    engine_layer = "core.parallel"
    sizes = {"full": {"relays": 20}, "smoke": {"relays": 6}}
    policy = SamplePolicy(samples=6, interval_ms=2.0)

    def run(self, world: dict[str, Any], tracer: Tracer) -> Outcome:
        testbed = world["testbed"]
        if tracer.enabled:
            testbed.measurement.enable_observability()
        campaign = ParallelCampaign(
            testbed.measurement, world["relays"], policy=self.policy, concurrency=16
        )
        with gc_fence(), world["stages"].stage("core.parallel.run"):
            report = campaign.run()
        spin_after = box_speed_ms()
        return self._single_process_outcome(
            world, report, "core.parallel.run", spin_after, report.legs_measured,
            exact={
                "core.parallel.peak_concurrency": report.peak_concurrency,
                "core.parallel.makespan_ms": report.makespan_ms,
                "core.parallel.sim_ms_per_pair": (
                    report.makespan_ms / report.pairs_attempted
                ),
                "core.parallel.legs_measured": report.legs_measured,
            },
            host={},
        )


class HighAccSerial(Workload):
    """The paper's operating point: 200 ping-pong samples, one pair at a
    time, on the sync sequential engine with relay service queues on."""

    name = "highacc_serial"
    engine_layer = "core.campaign"
    testbed_kwargs = {"service_queues": True}
    sizes = {
        "full": {"relays": 7, "samples": 200},
        "smoke": {"relays": 4, "samples": 20},
    }

    def run(self, world: dict[str, Any], tracer: Tracer) -> Outcome:
        testbed = world["testbed"]
        if tracer.enabled:
            testbed.measurement.enable_observability()
        measurer = TingMeasurer(
            testbed.measurement,
            policy=SamplePolicy.serial(self.size["samples"]),
            cache_legs=True,
        )
        pair_calls: list[tuple[int, float]] = []
        if tracer.enabled:
            self._trace_pair_calls(measurer, tracer, pair_calls)
        campaign = AllPairsCampaign(measurer, world["relays"])
        with gc_fence(), world["stages"].stage("core.campaign.run"):
            report = campaign.run()
        spin_after = box_speed_ms()
        pairs = report.pairs_attempted
        legs = measurer.circuits_built - pairs
        return self._single_process_outcome(
            world, report, "core.campaign.run", spin_after, legs,
            exact={
                "core.campaign.makespan_ms": report.duration_ms,
                "core.campaign.sim_ms_per_pair": report.duration_ms / pairs,
                "core.campaign.legs_measured": legs,
            },
            host={
                "echo.client.probe_cost_us": (
                    world["stages"].walls["core.campaign.run"] * 1e6 / report.probes_sent
                ),
                **self._pair_call_metrics(pair_calls),
            },
        )

    @staticmethod
    def _trace_pair_calls(
        measurer: TingMeasurer, tracer: Tracer, calls: list[tuple[int, float]]
    ) -> None:
        """Span every ``measure_pair`` call the campaign makes.

        ``measure_pair`` reaches legs through a private method, so a leg
        call cannot be spanned from outside; instead each pair span
        records how many of its two legs missed the cache
        (``leg_is_cached`` is public), and the leg cost is read off the
        difference between one-miss and no-miss pair calls.
        """
        inner = measurer.measure_pair

        def traced(x, y, policy=None):
            misses = 2 - measurer.leg_is_cached(x) - measurer.leg_is_cached(y)
            with tracer.span("core.ting.measure_pair", leg_misses=misses) as span:
                result = inner(x, y, policy=policy)
            calls.append((misses, span.duration_s * 1000.0))
            return result

        measurer.measure_pair = traced

    @staticmethod
    def _pair_call_metrics(calls: list[tuple[int, float]]) -> dict[str, float]:
        warm = sorted(ms for misses, ms in calls if misses == 0)
        one_miss = sorted(ms for misses, ms in calls if misses == 1)
        out = {}
        if warm:
            out["core.ting.pair_call_ms_p50"] = percentile(warm, 50)
            out["core.ting.pair_call_ms_p90"] = percentile(warm, 90)
        if warm and one_miss:
            out["core.ting.leg_call_ms_p50"] = max(
                0.0, percentile(one_miss, 50) - percentile(warm, 50)
            )
        return out


class PipelineFullnet(Workload):
    """The user's real loop at full-network relay count: plan → sharded
    run → absorb → quality-steered refresh under adaptive early stop →
    absorb → save → mmap load → health → index build → point queries."""

    name = "pipeline_fullnet"
    across_fork = True
    sizes = {
        "full": {"relays": 1000, "cold": 100, "refresh": 50, "queries": 10_000},
        "smoke": {"relays": 40, "cold": 30, "refresh": 15, "queries": 500},
    }
    cold_policy = SamplePolicy(samples=4, interval_ms=2.0)
    refresh_policy = SamplePolicy(
        samples=4,
        interval_ms=None,
        adaptive=AdaptiveSpec(absolute_ms=1.0, min_samples=2, patience=2, confirm_k=2),
    )

    def setup(self, tracer: Tracer) -> dict[str, Any]:
        world = super().setup(tracer)
        fingerprints = [d.fingerprint for d in world["relays"]]
        first, second = distinct_pairs(
            np.random.default_rng(self.seed), len(fingerprints), self.size["queries"]
        )
        queries = [
            {"op": "point", "x": fingerprints[int(i)], "y": fingerprints[int(j)]}
            for i, j in zip(first, second)
        ]
        return {**world, "fingerprints": fingerprints, "queries": queries}

    def _factory(self):
        return functools.partial(
            LiveTorTestbed.build,
            seed=self.seed,
            n_relays=self.size["relays"] + SPARE_RELAYS,
        )

    def _campaign(self, fingerprints, pairs, policy, **kwargs) -> ShardedCampaign:
        return ShardedCampaign(
            self._factory(), fingerprints, policy=policy, workers=WORKERS,
            pairs=pairs, observe=True, **kwargs,
        )

    def run(self, world: dict[str, Any], tracer: Tracer) -> Outcome:
        fingerprints, stages = world["fingerprints"], world["stages"]
        stage = stages.stage
        path = self.out_dir / f"pipeline-{self.seed}-{os.getpid()}.npz"
        path.parent.mkdir(parents=True, exist_ok=True)
        with gc_fence():
            start = time.perf_counter()
            with stage("core.planner.plan_cold"):
                plan = CampaignPlanner(fingerprints, seed=self.seed).plan(
                    budget_pairs=self.size["cold"]
                )
            with stage("core.shard.run_cold"):
                cold = self._campaign(
                    fingerprints, plan.pairs, self.cold_policy, clamp_to_cpus=True
                ).run()
            dataset = CampaignDataset(matrix=RttMatrix(fingerprints))
            with stage("core.dataset.absorb"):
                dataset.absorb(cold.matrix, provenance=cold.provenance)
            with stage("core.dataset.quality"):
                quality = dataset.quality()
            with stage("core.planner.plan_refresh"):
                replan = CampaignPlanner(
                    fingerprints, dataset=dataset, seed=self.seed + 1, quality=quality
                ).plan(budget_pairs=self.size["refresh"])
            with stage("core.shard.run_refresh"):
                refresh = self._campaign(
                    fingerprints, replan.pairs, self.refresh_policy, clamp_to_cpus=True
                ).run()
            with stage("core.dataset.absorb"):
                dataset.absorb(refresh.matrix, provenance=refresh.provenance)
            with stage("core.dataset.save"):
                dataset.save(path)
            with stage("core.dataset.load_mmap"):
                loaded = CampaignDataset.load(path, mmap=True)
            with stage("obs.health.report"):
                health = health_report(loaded)
            with stage("serve.index.build"):
                index = MatrixIndex.build(loaded)
            query = QueryServer(index).query
            with stage("serve.server.queries"):
                answers = [query(q) for q in world["queries"]]
            wall = time.perf_counter() - start
        spin_after = box_speed_ms()

        runs = (cold, refresh)
        pairs = sum(r.pairs_attempted for r in runs)
        campaign_wall = sum(r.wall_s for r in runs)
        events = sum(r.events_processed for r in runs)
        cells = sum(r.cells_processed for r in runs)
        errors = _estimate_errors(world["testbed"], loaded.matrix, world["relays"])
        sent = refresh.probes_sent
        exact = {
            "netsim.engine.events": events,
            "netsim.engine.events_per_pair": events / pairs,
            "netsim.engine.heap_compactions": sum(
                r.metrics.counter("sim.heap_compactions") for r in runs
            ),
            "tor.relay.cells_processed": cells,
            "tor.relay.cells_per_pair": cells / pairs,
            **_error_metrics(errors),
            **_registry_counts(cold.metrics, refresh.metrics),
            "core.sampling.probes_saved_frac": (
                refresh.probes_saved / (sent + refresh.probes_saved)
            ),
            "core.sampling.early_stops": refresh.early_stops,
            "core.planner.candidates": plan.candidates,
            "core.planner.planned": len(plan.pairs) + len(replan.pairs),
            "core.shard.legs_measured": sum(r.legs_measured for r in runs),
            "core.shard.chunks": sum(s.chunks for r in runs for s in r.shards),
            "obs.health.checks_failed": sum(
                1 for c in health.to_dict()["checks"] if c["status"] == "fail"
            ),
        }
        worker_walls = [s.wall_s for s in cold.shards]
        host = stages.seconds()
        host.update({
            # The merged registry keeps per-process gauges as a max, and which
            # worker stole which chunk varies: not exact on this workload.
            "netsim.engine.events_cancelled": max(
                r.metrics.gauge("sim.events_cancelled") for r in runs
            ),
            "netsim.engine.heap_peak": max(
                r.metrics.gauge("sim.heap_peak") for r in runs
            ),
            "core.shard.leg_phase_s": cold.leg_phase.wall_s,
            "core.shard.worker_imbalance": max(worker_walls) / min(worker_walls),
            "core.shard.ship_merge_s": sum(
                r.wall_s - r.leg_phase.wall_s - max(s.wall_s for s in r.shards)
                for r in runs
            ),
            "core.shard.shipped_bytes": sum(len(pickle.dumps(r.shards)) for r in runs),
            "core.dataset.file_bytes": path.stat().st_size,
            "serve.server.query_qps": (
                len(answers) / stages.walls["serve.server.queries"]
            ),
        })
        saved_hash = dataset.matrix.content_hash()
        loaded_hash = loaded.matrix.content_hash()
        touched = [
            len({fp for pair in pairs_ for fp in pair})
            for pairs_ in (plan.pairs, replan.pairs)
        ]
        pair_failures = sum(len(r.failures) for r in runs)
        outcome = Outcome(
            wall_s=wall,
            spin_after_ms=spin_after,
            units=pairs,
            unit_wall_s=campaign_wall,
            failed=pair_failures + sum(1 for a in answers if "error" in a),
            attempted=pairs + len(answers),
            fingerprint=loaded_hash,
            exact=exact,
            host=host,
            artifacts={
                "values": loaded.matrix.as_array(),
                "measured": sum(r.pairs_measured for r in runs),
                "pair_failures": pair_failures,
                "legs": sum(r.legs_measured for r in runs),
                "relays": sum(touched),
                "err_p50": exact["core.ting.est_err_p50_ms"],
                "cold_pairs": plan.pairs,
                "cold_values": cold.matrix.as_array(),
                "fingerprints": fingerprints,
                "saved_hash": saved_hash,
                "loaded_hash": loaded_hash,
                "index_version": index.version,
            },
        )
        del loaded, index  # release the mapping before the file goes
        path.unlink()
        return outcome

    def check(self, outcome: Outcome) -> list[str]:
        a = outcome.artifacts
        # The sharded engine's invariance claim, checked against this very
        # plan: the forked, work-stealing run must produce the matrix the
        # in-process emulation does.
        inline = self._campaign(
            a["fingerprints"], a["cold_pairs"], self.cold_policy, force_inline=True
        ).run()
        return (
            super().check(outcome)
            + check.sharded_equals_inline(a["cold_values"], inline.matrix.as_array())
            + check.dataset_round_trip(
                a["saved_hash"], a["loaded_hash"], a["index_version"]
            )
            + ([] if outcome.failed == 0 else [
                f"{self.name}: {outcome.failed} failed pairs or error answers"
            ])
        )


class ServeMixed(Workload):
    """Read side only: a closed loop of one client through ``QueryServer``.

    Closed loop because the callers (``CircuitSelector``,
    ``repro serve --batch``) wait for each answer before the next query.
    """

    name = "serve_mixed"
    simulated = False
    sizes = {
        "full": {"nodes": 1000, "queries": 60_000, "builds": 5},
        "smoke": {"nodes": 60, "queries": 2_000, "builds": 2},
    }

    def setup(self, tracer: Tracer) -> dict[str, Any]:
        stages = _Stages(tracer)
        rng = np.random.default_rng(self.seed)
        with stages.stage("harness.generate_inputs"):
            nodes, values = synthetic_matrix(rng, self.size["nodes"])
            queries = generate_queries(rng, nodes, self.size["queries"])
        return {"nodes": nodes, "values": values, "queries": queries, "stages": stages}

    def run(self, world: dict[str, Any], tracer: Tracer) -> Outcome:
        stages, queries = world["stages"], world["queries"]
        matrix = RttMatrix.from_array(world["nodes"], world["values"], copy=False)
        with gc_fence():
            start = time.perf_counter()
            with stages.stage("serve.index.build"):
                index = MatrixIndex.build(matrix)
            server = QueryServer(index)
            query = server.query
            with stages.stage("serve.server.pass_a"):
                answers = [query(q) for q in queries]
            wall = time.perf_counter() - start
        spin_after = box_speed_ms()
        pass_a = stages.walls["serve.server.pass_a"]
        host = {"serve.server.query_qps": len(queries) / pass_a}
        if tracer.enabled:
            host.update(self._layer_passes(matrix, server, queries, pass_a, stages))
        errors = sum(1 for a in answers if "error" in a)
        digest = hashlib.sha256(
            repr(answers[:: max(1, len(answers) // check.REFERENCE_SAMPLES)]).encode()
        ).hexdigest()
        return Outcome(
            wall_s=wall,
            spin_after_ms=spin_after,
            units=len(queries),
            unit_wall_s=pass_a,
            failed=errors,
            attempted=len(queries),
            fingerprint=digest,
            host=host,
            artifacts={"world": world, "answers": answers, "server": server},
        )

    def _layer_passes(
        self,
        matrix: RttMatrix,
        server: QueryServer,
        queries: list[dict[str, Any]],
        pass_a_s: float,
        stages: _Stages,
    ) -> dict[str, float]:
        """The traced run's extra passes: none of them feeds an end-to-end number."""
        index = server.index
        builds = []
        for _ in range(self.size["builds"]):
            with stages.stage("serve.index.rebuild"):
                start = time.perf_counter()
                MatrixIndex.build(matrix)
                builds.append(time.perf_counter() - start)

        # Pass B: the same queries, each call timed on its own.
        clock = time.perf_counter_ns
        by_op: dict[str, list[int]] = {}
        query = server.query
        with stages.stage("serve.server.pass_b"):
            for q in queries:
                t0 = clock()
                query(q)
                by_op.setdefault(q["op"], []).append(clock() - t0)
        host: dict[str, float] = {}
        for op, layer in (
            ("point", "serve.server"), ("knn", "serve.server"),
            ("via", "serve.index"), ("percentile", "serve.index"),
            ("path", "serve.index"),
        ):
            ns = sorted(by_op[op])
            host[f"{layer}.{op}_p50_us"] = percentile(ns, 50) / 1000.0
            host[f"{layer}.{op}_p99_us"] = percentile(ns, 99) / 1000.0

        # Direct index calls, no dict dispatch.
        points = [(q["x"], q["y"]) for q in queries if q["op"] == "point"]
        knns = [(q["x"], q["k"]) for q in queries if q["op"] == "knn"]
        point, k_nearest = index.point, index.k_nearest
        direct_ns = []
        with stages.stage("serve.index.point_calls"):
            for a, b in points:
                t0 = clock()
                point(a, b)
                direct_ns.append(clock() - t0)
        host["serve.index.point_qps"] = (
            len(points) / stages.walls["serve.index.point_calls"]
        )
        with stages.stage("serve.index.knn_calls"):
            for a, k in knns:
                k_nearest(a, k)
        host["serve.index.knn_qps"] = len(knns) / stages.walls["serve.index.knn_calls"]
        direct_ns.sort()
        host["serve.server.dispatch_overhead_us"] = (
            host["serve.server.point_p50_us"] - percentile(direct_ns, 50) / 1000.0
        )

        with stages.stage("serve.server.batch"):
            server.batch(queries, workers=WORKERS)
        batch_s = stages.walls["serve.server.batch"]
        host["serve.server.batch_qps"] = len(queries) / batch_s
        # Modelled: a slice costs its share of pass A; the rest is fork + ship.
        host["serve.server.batch_fork_s"] = batch_s - pass_a_s / WORKERS

        live = QueryServer(index, telemetry=ServeTelemetry(sample_every=0)).query
        with stages.stage("serve.telemetry.pass"):
            for q in queries:
                live(q)
        host["serve.telemetry.record_ns"] = (
            (stages.walls["serve.telemetry.pass"] - pass_a_s) * 1e9 / len(queries)
        )
        return {**stages.seconds(), **host, "serve.index.build_s": min(builds)}

    def check(self, outcome: Outcome) -> list[str]:
        a = outcome.artifacts
        world, answers = a["world"], a["answers"]
        sample = world["queries"][:2_000]
        return (
            check.serve_answers(
                world["queries"], answers, world["values"], world["nodes"]
            )
            + check.batch_equals_inline(
                answers[: len(sample)], a["server"].batch(sample, workers=WORKERS)
            )
            + ([] if outcome.failed == 0 else [
                f"{self.name}: {outcome.failed} error answers"
            ])
        )


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls
    for cls in (AllPairsDense, HighAccSerial, PipelineFullnet, ServeMixed)
}
