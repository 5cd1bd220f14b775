"""What the campaign engines measure is pinned, per configuration.

Every PR that touches the measurement path claims "nothing measured
moved". This file is that claim as a test, in two parts per
configuration. The **result** digest hashes what was measured: the
matrix bytes, the final simulated clock, circuits built, probes sent
and the twelve registry counters ``bench/workloads.py`` reads — and,
for the callback engines (concurrent, isolated, sharded), a second
digest over the span records, provenance rows and bus records, wall
stamps stripped. A moved result digest means a draw or a record moved.
The **work** tuple — events processed, events cancelled, heap peak — is
what the simulator spent getting there; a PR may lower it, but only by
a stated formula. The result digests were computed at the commit
*before* the engines were collapsed onto one pair state machine (PR
18's parent, d3cf574) and regenerated, split from the work tuples, at
b6f7dad with::

    PYTHONPATH=src python tests/core/test_engine_identity.py

Probe flights (PR 19) are the one thing that has moved a work tuple: a
flown probe crosses its circuit in one event instead of ``4·hops + 1``,
so a configuration that flies processes ``Σ_flown 4·hops`` fewer events
than ``WORK_BEFORE_FLIGHTS`` says, cancels as many and peaks as high.
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
from repro.tor.client import OnionProxy

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
    """The result digest every engine is held to."""
    return _digest(
        matrix.as_array().tobytes(),
        repr(sim.now),
        circuits_built,
        probes_sent,
        [registry.counter(name) for name in COUNTERS],
    )


def _work(sim) -> tuple[int, int, int]:
    """What the simulator spent: events processed, cancelled, heap peak."""
    return (sim.events_processed, sim.events_cancelled, sim.heap_peak)


@pytest.fixture
def events_saved(monkeypatch):
    """Counts ``4·hops`` for every probe flight that lands."""
    saved = [0]
    # Absent at b6f7dad, where this file was generated and nothing flies.
    land = getattr(OnionProxy, "_land", None)

    def counting(self, stream, *args):
        saved[0] += 4 * len(stream.circuit.layers)
        return land(self, stream, *args)

    if land is not None:
        monkeypatch.setattr(OnionProxy, "_land", counting)
    return saved


def _assert_work(work, before, saved, pinned) -> None:
    """``work`` is pinned, and differs from what the configuration cost
    ``before`` flights by the events the landed ones saved — nothing else."""
    assert work == pinned
    assert before[0] - work[0] == saved[0]
    assert work[1:3] == before[1:3]


#: (events processed, events cancelled, heap peak) per configuration at
#: b6f7dad, the last commit at which every probe was seventeen (or
#: thirteen) cell events; the sharded ones add the report's own sum.
WORK_BEFORE_FLIGHTS = {
    ("sequential", "cached"): (4010, 45, 34),
    ("sequential", "churned"): (3082, 59, 38),
    ("sequential", "permuted"): (2510, 45, 51),
    ("sequential", "reuse"): (2486, 48, 54),
    ("sequential", "uncached"): (4509, 90, 69),
    ("callback", "concurrent-1"): (4801, 84, 69),
    ("callback", "concurrent-16"): (4768, 84, 111),
    ("callback", "isolated"): (4811, 84, 6),
    ("sharded", 1, 1): (5102, 96, 6, 5102),
    ("sharded", 1, 8): (5102, 96, 6, 5102),
    ("sharded", 2, 1): (5102, 96, 6, 5102),
    ("sharded", 2, 8): (5102, 96, 6, 5102),
    ("baselines", 11): (870, 12, 15),
    ("baselines", 2015): (870, 12, 15),
}

#: The same today, for the configurations that fly: the ping-pong
#: policies, and the baselines' 2 ms trains down the forwarding-delay
#: estimator's host-local two-hop circuit, whose echo is back in under a
#: millisecond. A timer-paced train down a real path never flies.
WORK = {
    **WORK_BEFORE_FLIGHTS,
    ("sequential", "cached"): (1370, 45, 34),
    ("callback", "isolated"): (2559, 84, 6),
    ("sharded", 1, 1): (2782, 96, 6, 2782),
    ("sharded", 1, 8): (2782, 96, 6, 2782),
    ("sharded", 2, 1): (2782, 96, 6, 2782),
    ("sharded", 2, 8): (2782, 96, 6, 2782),
    ("baselines", 11): (790, 12, 15),
    ("baselines", 2015): (790, 12, 15),
}


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


def _sequential(name: str) -> tuple[str, tuple]:
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
    return (
        _digest(
            _measured(
                report.matrix, testbed.sim, measurer.circuits_built,
                report.probes_sent, registry,
            ),
            report.pairs_measured,
            sorted((x, y) for x, y, _ in report.failures),
        ),
        _work(testbed.sim),
    )


SEQUENTIAL = {
    "cached": "d85ff14d847cec5bcfb87afe201c0f7c892919247b6986bb8f96350dd5539bb6",
    "uncached": "adefef54db218c697634c6ffbbf787b7168efee9b687f83d96e1018050426f22",
    "reuse": "849d8d63303d31159a1373690998e9f4e33f76fe326ab8e115ce5050c757f44c",
    "permuted": "85caca35a8034ab6be64d346e008739d17abacf07bd0aa8fb7b1e5f24623037f",
    "churned": "c12c174405c4b6e281318ae37871d63d426977657178494cf9dec498b586de81",
}


@pytest.mark.parametrize("name", sorted(SEQUENTIAL))
def test_sequential_engine_is_pinned(name, events_saved):
    result, work = _sequential(name)
    assert result == SEQUENTIAL[name]
    key = ("sequential", name)
    _assert_work(work, WORK_BEFORE_FLIGHTS[key], events_saved, WORK[key])


# ----------------------------------------------------------------------
# Callback engines: concurrent, isolated, sharded


def _callback(name: str) -> tuple[str, str, tuple]:
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
        _work(testbed.sim),
    )


CALLBACK = {
    "concurrent-1": (
        "619a2b2c34b3987d85d9aa8c50031d876faa2137850585dd5d561cf2c8cd80fc",
        "4edc5a908c3d577bec9d9000b89fc04577efb41d0c021c909b63b34b2c94a843",
    ),
    "concurrent-16": (
        "dacfe7c5bc7be221453a4f0810e9fefd3e4a4cc22f8573d3d3e0ef9fd26af7d3",
        "601cb5f9e5990b8027d98830d673c61be2696ee38bc115b1af89a81998c7e35a",
    ),
    "isolated": (
        "a92b764874cfd5562d5c626ed95ebe5fc8086c7f544722034045e3c5c91278e5",
        "3a6f6631fc29b5f16f32f6270f78f8d64fa5cd5536a2ca241f3c3904a5b958b3",
    ),
}


@pytest.mark.parametrize("name", sorted(CALLBACK))
def test_callback_engine_is_pinned(name, events_saved):
    result, records, work = _callback(name)
    assert (result, records) == CALLBACK[name]
    key = ("callback", name)
    _assert_work(work, WORK_BEFORE_FLIGHTS[key], events_saved, WORK[key])


def _sharded(workers: int, chunk: int) -> tuple[str, str, tuple]:
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
            report.cells_processed,
        ),
        _recorded(report.spans, report.provenance, report.events),
        # Every shard ran inline on the last world built; the report
        # sums what each counted between its own start and end.
        _work(built[-1].sim) + (report.events_processed,),
    )


SHARDED = {
    (1, 1): (
        "976ac4e6516c9ed05aa230c7a65959b3bfc03f49ccfa9d4af88afae0eda9fe6e",
        "b404f29c57cf92858bbdcb50d72bfe5d8837e9baa4fc0558f65cf9c0f85489cb",
    ),
    (1, 8): (
        "976ac4e6516c9ed05aa230c7a65959b3bfc03f49ccfa9d4af88afae0eda9fe6e",
        "44d89905a189175d94975f44870447f91439c8d362cd5b78f57f3cbd1e139be6",
    ),
    (2, 1): (
        "870306dccc15c0cb1c198313586f196cb4c844934c721ad93589ac5d58f32801",
        "a2442a91799d3b7900700590f5a5904447c66853d0b66bc4031699ad46e91e89",
    ),
    (2, 8): (
        "45f7eac4bb8f7bb70b08fa7e7ade548e705beb6e6d5b707ab1eb7a4068ffe9b1",
        "cc914fed1bc83755a12409643c5f4888b69b959907079706433884fb200688e3",
    ),
}


@pytest.mark.parametrize(("workers", "chunk"), sorted(SHARDED))
def test_sharded_engine_is_pinned(workers, chunk, events_saved):
    result, records, work = _sharded(workers, chunk)
    assert (result, records) == SHARDED[(workers, chunk)]
    key = ("sharded", workers, chunk)
    before = WORK_BEFORE_FLIGHTS[key]
    _assert_work(work, before, events_saved, WORK[key])
    assert before[3] - work[3] == events_saved[0]


# ----------------------------------------------------------------------
# The two baselines that build their own circuits


def _baselines(seed: int) -> tuple[str, tuple]:
    testbed = PlanetLabTestbed.build(seed=seed, n_relays=6)
    host = testbed.measurement
    policy = SamplePolicy(samples=10, interval_ms=2.0)
    a, b = testbed.relay_pairs()[0]
    strawman = StrawmanMeasurer(host, policy=policy, ping_count=10).measure_pair(a, b)
    after_strawman = repr(testbed.sim.now)
    estimator = ForwardingDelayEstimator(host, policy=policy, probe_count=10)
    delays = [estimator.estimate(a, "icmp"), estimator.estimate(b, "tcp")]
    return (
        _digest(
            repr(strawman),
            after_strawman,
            [repr(delay) for delay in delays],
            repr(testbed.sim.now),
        ),
        _work(testbed.sim),
    )


BASELINES = {
    2015: "5b713dceef50f0c0548a22ce297cdac9290f7a8445de1864e0eb78754cd931ad",
    11: "c5dc10386a373b6b1e25fa746f2c6596a1c5fd76a749f97c39c19ebf7e038360",
}


@pytest.mark.parametrize("seed", sorted(BASELINES))
def test_baseline_measurers_are_pinned(seed, events_saved):
    result, work = _baselines(seed)
    assert result == BASELINES[seed]
    key = ("baselines", seed)
    _assert_work(work, WORK_BEFORE_FLIGHTS[key], events_saved, WORK[key])


def print_digests() -> None:
    """Print the pins (run at the commit whose measurements are to be kept)."""
    for name in sorted(SEQUENTIAL):
        print(("sequential", name), _sequential(name))
    for name in sorted(CALLBACK):
        print(("callback", name), _callback(name))
    for key in sorted(SHARDED):
        print(("sharded", *key), _sharded(*key))
    for seed in sorted(BASELINES):
        print(("baselines", seed), _baselines(seed))


if __name__ == "__main__":
    print_digests()
