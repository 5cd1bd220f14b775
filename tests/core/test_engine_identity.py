"""What the campaign engines measure is pinned, per configuration.

Every PR that touches the measurement path claims "no matrix, event
count or bench row moved". This file is that claim as a test: for each
configuration below it hashes the matrix bytes, the simulator's event
counts, heap peak and final clock, circuits built, probes sent and the
twelve registry counters ``bench/workloads.py`` reads — and, for the
callback engines (concurrent, isolated, sharded), the span records,
provenance rows and bus records too, wall stamps stripped. A moved
digest means a draw, an event or a record moved. The pins were computed
at the commit *before* the engines were collapsed onto one pair state
machine (PR 18's parent, d3cf574) with::

    PYTHONPATH=src python tests/core/test_engine_identity.py
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.core.campaign import AllPairsCampaign
from repro.core.fwd_delay import ForwardingDelayEstimator
from repro.core.parallel import ParallelCampaign
from repro.core.planner import CampaignPlanner
from repro.core.sampling import AdaptiveSpec, SamplePolicy
from repro.core.shard import ShardedCampaign
from repro.core.strawman import StrawmanMeasurer
from repro.core.ting import TingMeasurer
from repro.testbeds.churn import ChurnProcess
from repro.testbeds.livetor import LiveTorTestbed
from repro.testbeds.planetlab import PlanetLabTestbed

#: The registry counters ``bench/workloads.py:REGISTRY_COUNTERS`` reads.
COUNTERS = (
    "tor.circuits_built",
    "tor.circuits_failed",
    "tor.streams_attached",
    "tor.stream_failures",
    "echo.probes_sent",
    "echo.probes_received",
    "echo.probes_lost",
    "echo.probes_saved",
    "echo.early_stops",
    "ting.leg_cache_hits",
    "ting.leg_cache_misses",
    "relay.cells_relayed",
)

FIXED = SamplePolicy(samples=6, interval_ms=2.0)
ADAPTIVE = SamplePolicy(
    samples=6,
    interval_ms=None,
    adaptive=AdaptiveSpec(absolute_ms=1.0, min_samples=2, patience=2, confirm_k=2),
)


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else repr(part).encode())
        h.update(b"\n")
    return h.hexdigest()


def _measured(matrix, sim, circuits_built, probes_sent, registry) -> str:
    """The digest every engine is held to."""
    return _digest(
        matrix.as_array().tobytes(),
        sim.events_processed,
        sim.events_cancelled,
        sim.heap_peak,
        repr(sim.now),
        circuits_built,
        probes_sent,
        [registry.counter(name) for name in COUNTERS],
    )


def _recorded(spans, provenance, bus) -> str:
    """The callback engines' dialect: spans, provenance rows, bus records."""
    snapshot = bus.snapshot()
    ring = [
        {key: value for key, value in record.items() if key != "wall_s"}
        for record in snapshot["ring"]["events"]
    ]
    return _digest(
        spans.records(),
        [repr(record) for record in provenance],
        [repr(leg) for leg in provenance.legs()],
        snapshot["counts"],
        ring,
    )


# ----------------------------------------------------------------------
# Sequential: TingMeasurer under AllPairsCampaign


def _sequential(name: str) -> str:
    seed, service_queues = (47, True) if name in ("cached", "reuse") else (7, False)
    testbed = LiveTorTestbed.build(
        seed=seed, n_relays=22, service_queues=service_queues
    )
    host = testbed.measurement
    registry = host.enable_observability()
    relays = testbed.random_relays(5, testbed.streams.get("identity.relays"))
    policy = {
        "cached": SamplePolicy.serial(12),
        "churned": SamplePolicy(samples=6, interval_ms=2.0, timeout_ms=5_000.0),
    }.get(name, FIXED)
    measurer = TingMeasurer(
        host,
        policy=policy,
        cache_legs=name != "uncached",
        reuse_circuits=name == "reuse",
    )
    kwargs = {}
    if name in ("permuted", "reuse"):
        kwargs["rng"] = np.random.default_rng(seed)
    if name == "churned":
        measured = {descriptor.fingerprint for descriptor in relays}
        churn = ChurnProcess(
            testbed.sim,
            [relay for relay in testbed.relays if relay.fingerprint in measured],
            testbed.authority,
            # Chosen among the churn draws d3cf574 survives: there a
            # zero-reply probe round escapes the sequential engine as a
            # CircuitError and kills the campaign (fixed by the one
            # state machine, see test_ting.py).
            np.random.default_rng(2),
            mean_uptime_ms=10_000.0,
            mean_downtime_ms=4_000.0,
        )
        churn.start()
        kwargs.update(retries=1, retry_delay_ms=2_000.0)
    report = AllPairsCampaign(measurer, relays, **kwargs).run()
    if name == "churned":
        assert report.failures_total > 0, "the churned world must exercise failures"
    return _digest(
        _measured(
            report.matrix, testbed.sim, measurer.circuits_built,
            report.probes_sent, registry,
        ),
        report.pairs_measured,
        sorted((x, y) for x, y, _ in report.failures),
    )


SEQUENTIAL = {
    "cached": "6f5a4f888baa3fb23a8a8fce55342b432c60f1ce20f404e86a2b7f49fda35ebf",
    "uncached": "7b31e86a2b589d31ef20190f8c6e96fd30c49098b0a7347ca0fd6dbfea17402a",
    "reuse": "b6f71e0567227c11b78acb35e221d53cbb6d6f6a210f3cdc057b3aa120e5395f",
    "permuted": "739f3ff5d969196370b52bbf9ee03fd8dd82430ad8914fbda7e66c9ec4c56966",
    "churned": "ccb1db4bf120230aa23073035a59744a8c416b6f494d9ce12d15d86171de8136",
}


@pytest.mark.parametrize("name", sorted(SEQUENTIAL))
def test_sequential_engine_is_pinned(name):
    assert _sequential(name) == SEQUENTIAL[name]


# ----------------------------------------------------------------------
# Callback engines: concurrent, isolated, sharded


def _callback(name: str) -> tuple[str, str]:
    testbed = LiveTorTestbed.build(seed=47, n_relays=24)
    host = testbed.measurement
    registry = host.enable_observability()
    relays = testbed.random_relays(7, testbed.streams.get("identity.relays"))
    if name == "isolated":
        campaign = ParallelCampaign(
            host, relays, policy=ADAPTIVE, isolation=testbed.task_isolation()
        )
    else:
        campaign = ParallelCampaign(
            host, relays, policy=FIXED, concurrency=int(name.rpartition("-")[2])
        )
    report = campaign.run()
    assert report.pairs_measured == 21 and report.legs_measured == 7
    return (
        _digest(
            _measured(
                report.matrix, testbed.sim, registry.counter("tor.circuits_built"),
                report.probes_sent, registry,
            ),
            report.peak_concurrency,
            repr(report.makespan_ms),
        ),
        _recorded(host.spans, host.provenance, host.events),
    )


CALLBACK = {
    "concurrent-1": (
        "d215c03da804de8dc1101fda1d308cca9980d931846a504587cc9989342d8330",
        "4edc5a908c3d577bec9d9000b89fc04577efb41d0c021c909b63b34b2c94a843",
    ),
    "concurrent-16": (
        "c31e4b994b12bede2de86df0688f04ad315027fb323aae7877ff836e74af7062",
        "601cb5f9e5990b8027d98830d673c61be2696ee38bc115b1af89a81998c7e35a",
    ),
    "isolated": (
        "cda7b2158c73ccc34395923721d27580d6e995b0759f1fe9ea8a224e9f196491",
        "3a6f6631fc29b5f16f32f6270f78f8d64fa5cd5536a2ca241f3c3904a5b958b3",
    ),
}


@pytest.mark.parametrize("name", sorted(CALLBACK))
def test_callback_engine_is_pinned(name):
    assert _callback(name) == CALLBACK[name]


def _sharded(workers: int, chunk: int) -> tuple[str, str]:
    built = []

    def factory():
        built.append(LiveTorTestbed.build(seed=7, n_relays=30))
        return built[-1]

    fingerprints = [relay.fingerprint for relay in factory().relays][:12]
    pairs = CampaignPlanner(fingerprints, seed=7).plan(budget_pairs=20).pairs
    report = ShardedCampaign(
        factory,
        fingerprints,
        policy=ADAPTIVE,
        workers=workers,
        pairs=pairs,
        observe=True,
        steal_chunk_pairs=chunk,
        force_inline=True,
    ).run()
    assert report.pairs_measured == 20
    return (
        _digest(
            _measured(
                report.matrix, built[-1].sim,
                report.metrics.counter("tor.circuits_built"),
                report.probes_sent, report.metrics,
            ),
            report.legs_measured,
            report.events_processed,
            report.cells_processed,
        ),
        _recorded(report.spans, report.provenance, report.events),
    )


SHARDED = {
    (1, 1): (
        "7450e9ba866a4b78560896212ac025f6db8aa0072a6a8ad0511090d45fdf7164",
        "b404f29c57cf92858bbdcb50d72bfe5d8837e9baa4fc0558f65cf9c0f85489cb",
    ),
    (1, 8): (
        "7450e9ba866a4b78560896212ac025f6db8aa0072a6a8ad0511090d45fdf7164",
        "44d89905a189175d94975f44870447f91439c8d362cd5b78f57f3cbd1e139be6",
    ),
    (2, 1): (
        "122bdce40c065852d9e42f11aecfadd5254fa5698e8b32dce6796875e33c4621",
        "a2442a91799d3b7900700590f5a5904447c66853d0b66bc4031699ad46e91e89",
    ),
    (2, 8): (
        "e96b75c36dcc7a0b0afc26880ba0a9b45985007f0418d6802d5c53f484133764",
        "cc914fed1bc83755a12409643c5f4888b69b959907079706433884fb200688e3",
    ),
}


@pytest.mark.parametrize(("workers", "chunk"), sorted(SHARDED))
def test_sharded_engine_is_pinned(workers, chunk):
    assert _sharded(workers, chunk) == SHARDED[(workers, chunk)]


# ----------------------------------------------------------------------
# The two baselines that build their own circuits


def _baselines(seed: int) -> str:
    testbed = PlanetLabTestbed.build(seed=seed, n_relays=6)
    host = testbed.measurement
    policy = SamplePolicy(samples=10, interval_ms=2.0)
    a, b = testbed.relay_pairs()[0]
    strawman = StrawmanMeasurer(host, policy=policy, ping_count=10).measure_pair(a, b)
    after_strawman = (testbed.sim.events_processed, repr(testbed.sim.now))
    estimator = ForwardingDelayEstimator(host, policy=policy, probe_count=10)
    delays = [estimator.estimate(a, "icmp"), estimator.estimate(b, "tcp")]
    return _digest(
        repr(strawman),
        after_strawman,
        [repr(delay) for delay in delays],
        testbed.sim.events_processed,
        testbed.sim.events_cancelled,
        repr(testbed.sim.now),
    )


BASELINES = {
    2015: "377fea6c5374cb8e85389c64ac8e0c26a5ed4c793e527d1e14a3fb14755ceb92",
    11: "b663a2c5325d0b63ddcab55d16c180e33cad831da97aa3dafd78521bd8d98453",
}


@pytest.mark.parametrize("seed", sorted(BASELINES))
def test_baseline_measurers_are_pinned(seed):
    assert _baselines(seed) == BASELINES[seed]


def print_digests() -> None:
    """Print the pins (run at the commit whose measurements are to be kept)."""
    for name in sorted(SEQUENTIAL):
        print("sequential", name, _sequential(name))
    for name in sorted(CALLBACK):
        print("callback", name, _callback(name))
    for key in sorted(SHARDED):
        print("sharded", key, _sharded(*key))
    for seed in sorted(BASELINES):
        print("baselines", seed, _baselines(seed))


if __name__ == "__main__":
    print_digests()
