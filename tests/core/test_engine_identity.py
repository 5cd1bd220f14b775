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
a stated formula. The digests held from the commit before the engines
were collapsed onto one pair state machine (PR 18's parent, d3cf574)
until PR 22, **the last re-pin**: per-packet draws became keyed by who
makes them (one block stream per link direction and per relay) and
isolated tasks run on a clock restarted at zero, unrounded — so every
measured value moved, once. All 14 were regenerated mechanically with::

    PYTHONPATH=src python tests/core/test_engine_identity.py

which prints, per configuration, the digests and the work tuple as
shipped and the work tuple with every flight refused and every send
scheduled (``WORK_BEFORE_FLIGHTS``). "The clock" in a
result digest is ``Simulator.campaign_ms`` (``now`` for a simulator
whose clock was never restarted). The two ``budgeted`` configurations
came later, taken the same way before the campaign schedulers were
folded into one: a :class:`ProbeBudget` small enough to degrade the
policy through two tiers or more, its spend in the result digest.

Two things move a work tuple, and only its event count. A flown probe
crosses its circuit in one event instead of ``4·hops + 1``; and a
ping-pong reply that finds nothing else due at its instant sends the
next probe inside its own event instead of one scheduled at +0. So a
configuration processes ``Σ_landed 4·hops + inline sends`` fewer events
than ``WORK_BEFORE_FLIGHTS`` says, cancels as many and peaks as high.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.core.campaign import AllPairsCampaign, ProbeBudget
from repro.core.fwd_delay import ForwardingDelayEstimator
from repro.core.parallel import ParallelCampaign
from repro.core.planner import CampaignPlanner
from repro.core.sampling import AdaptiveSpec, SamplePolicy
from repro.core.shard import ShardedCampaign
from repro.core.strawman import StrawmanMeasurer
from repro.core.ting import TingMeasurer
from repro.netsim.engine import Simulator
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
        repr(sim.campaign_ms),
        circuits_built,
        probes_sent,
        [registry.counter(name) for name in COUNTERS],
    )


def _work(sim) -> tuple[int, int, int]:
    """What the simulator spent: events processed, cancelled, heap peak."""
    return (sim.events_processed, sim.events_cancelled, sim.heap_peak)


def _spent(budget: ProbeBudget | None, events) -> tuple:
    """What a budget adds to a result digest (nothing without one). A
    budgeted configuration must degrade its policy twice or more."""
    if budget is None:
        return ()
    tiers = {event["tier"] for event in events.events("campaign", "budget_degraded")}
    assert len(tiers) >= 2, f"the budget crossed only tiers {sorted(tiers)}"
    return (budget.spent, budget.degraded_tasks)


@pytest.fixture
def events_saved(monkeypatch):
    """Counts the events saved: ``4·hops`` for every probe flight that
    lands, and one for every inline send — an ``EchoClient`` ping-pong
    reply asking ``quiet_through`` about its own instant and hearing yes
    (a flight only ever asks about a later one)."""
    saved = {"landings": 0, "inline sends": 0}
    # Absent at b6f7dad, where this file was generated and nothing flies.
    land = getattr(OnionProxy, "_land", None)
    quiet_through = Simulator.quiet_through

    def counting_land(self, stream, *args):
        saved["landings"] += 4 * len(stream.circuit.layers)
        return land(self, stream, *args)

    def counting_quiet(self, time):
        quiet = quiet_through(self, time)
        if quiet and time == self.now:
            saved["inline sends"] += 1
        return quiet

    if land is not None:
        monkeypatch.setattr(OnionProxy, "_land", counting_land)
        monkeypatch.setattr(Simulator, "quiet_through", counting_quiet)
    return saved


def _assert_work(work, before, saved, pinned) -> None:
    """``work`` is pinned, and differs from what the configuration cost
    ``before`` flights by the events the landed ones and the inline sends
    saved — nothing else."""
    assert work == pinned
    assert before[0] - work[0] == saved["landings"] + saved["inline sends"]
    assert work[1:3] == before[1:3]
    if len(work) == 4:  # the sharded report's own sum
        assert before[3] - work[3] == before[0] - work[0]


#: (events processed, events cancelled, heap peak) per configuration
#: with every flight refused and every ping-pong send an event of its
#: own — each probe seventeen (or thirteen) cell events and its send;
#: the sharded ones add the report's own sum.
WORK_BEFORE_FLIGHTS = {
    ("sequential", "budgeted"): (1928, 45, 47),
    ("sequential", "cached"): (4010, 45, 34),
    ("sequential", "churned"): (3612, 65, 54),
    ("sequential", "permuted"): (2510, 45, 51),
    ("sequential", "reuse"): (2486, 48, 54),
    ("sequential", "uncached"): (4509, 90, 69),
    ("callback", "budgeted-4"): (3700, 84, 73),
    ("callback", "concurrent-1"): (4801, 84, 69),
    ("callback", "concurrent-16"): (4763, 84, 111),
    ("callback", "isolated"): (4527, 84, 5),
    ("sharded", 1, 1): (4980, 96, 5, 4980),
    ("sharded", 1, 8): (4980, 96, 5, 4980),
    ("sharded", 2, 1): (4980, 96, 5, 4980),
    ("sharded", 2, 8): (4980, 96, 5, 4980),
    ("baselines", 11): (870, 12, 15),
    ("baselines", 2015): (870, 12, 15),
}

#: The same today, for the configurations that fly: the ping-pong
#: policies (which also send inline), and the baselines' 2 ms trains
#: down the forwarding-delay estimator's host-local two-hop circuit,
#: whose echo is back in under a millisecond. A timer-paced train down a
#: real path never flies — unless a probe budget cut it to one probe.
WORK = {
    **WORK_BEFORE_FLIGHTS,
    ("sequential", "budgeted"): (1082, 45, 47),
    ("sequential", "cached"): (1205, 45, 34),
    ("callback", "budgeted-4"): (3684, 84, 73),
    ("callback", "isolated"): (2411, 84, 5),
    ("sharded", 1, 1): (2648, 96, 5, 2648),
    ("sharded", 1, 8): (2648, 96, 5, 2648),
    ("sharded", 2, 1): (2648, 96, 5, 2648),
    ("sharded", 2, 8): (2648, 96, 5, 2648),
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
        "budgeted": ADAPTIVE,
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
    # 72 probes unbudgeted; 60 enters tiers 1, 2 and 3.
    budget = kwargs["budget"] = ProbeBudget(total=60) if name == "budgeted" else None
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
            *_spent(budget, host.events),
        ),
        _work(testbed.sim),
    )


SEQUENTIAL = {
    "budgeted": "b9d55d5909abb72c9421322566b8e9484ac5bd97192022462c1548394f2e7660",
    "cached": "8ad272730dae9e0445a53d8dfe55990695aec294a4b08af926e60ee5809a31a9",
    "uncached": "b72a33d0ea11da36c7c43740823c7401ffacd0370df9fff52a2f8fd167923717",
    "reuse": "3c34fb00b41b8fecf22c9369466cdaeb86d2f1fd4cceb94d295a0e2746de98c9",
    "permuted": "9c95a62ac179b422792de7b18b03a6cfe3b1f204417cbcae2c4b2a19d33c362e",
    "churned": "3ef0a70134d37cd9a902372641ce832d697615979272fe941ec26748d02224ec",
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
    # 168 probes unbudgeted; 120 enters tiers 1 and 2.
    budget = ProbeBudget(total=120) if name.startswith("budgeted") else None
    if name == "isolated":
        campaign = ParallelCampaign(
            host, relays, policy=ADAPTIVE, isolation=testbed.task_isolation()
        )
    else:
        campaign = ParallelCampaign(
            host, relays, policy=FIXED, concurrency=int(name.rpartition("-")[2]),
            budget=budget,
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
            *_spent(budget, host.events),
        ),
        _recorded(host.spans, host.provenance, host.events),
        _work(testbed.sim),
    )


CALLBACK = {
    "budgeted-4": (
        "72ea8b606f7765852195d237a0fa1a0bc2a0968c7d8397150473aee7a081e26c",
        "f61aa1dda04a60aa6acd113660b1a528be02420221ef343ee0c4f6c47cc83827",
    ),
    "concurrent-1": (
        "8deb0337244618d647c99876fc0e7e5e904fa28ec5d392a83c02a7607bddcfb1",
        "deb03540c7b5c5968041b9795d1cfc14f388dd9c7b16d6b75c5feab8fed899fa",
    ),
    "concurrent-16": (
        "823fa25077e611bbecd4323f6a9822924f4bf615544c45a224a304ff40345290",
        "72852f48fb0e3567f66110f094e1bcab2035f070669785767fbd7af5b39217e0",
    ),
    "isolated": (
        "e17b8aa81a6c2641e27b76a2e28e4ca74e92024f706a5df685074de6d81d3ce6",
        "328680ad0a4b7751a460e37fc2ad8ae4cecf3c34561e357cb827157a4ca20ffa",
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
        "ffc4e5cb6abb7f5ec053cbe95f4e985e0edd383086887218f995e77150663e28",
        "e230fd900ce3af9fa328e5e95bd9cbe0ee85b28c45cb6817977b33ddeca2528f",
    ),
    (1, 8): (
        "ffc4e5cb6abb7f5ec053cbe95f4e985e0edd383086887218f995e77150663e28",
        "b055e9a43fd681f57bc588d6553f94fd9c4e6296003c139435e0764709b00ea4",
    ),
    (2, 1): (
        "0f86706c8d618771cce60262020f1c1b996a758dd3d6c4675bc612322eca5d9e",
        "3a4efb6c0fc2ca69be4f29adc09628c92f310c8391fba56d2bca27d8b0e55cba",
    ),
    (2, 8): (
        "ffc4e5cb6abb7f5ec053cbe95f4e985e0edd383086887218f995e77150663e28",
        "3a8642bfbca06994131fff0fa5d4f01b338762cb0f1fd2602452cdccbae11665",
    ),
}


@pytest.mark.parametrize(("workers", "chunk"), sorted(SHARDED))
def test_sharded_engine_is_pinned(workers, chunk, events_saved):
    result, records, work = _sharded(workers, chunk)
    assert (result, records) == SHARDED[(workers, chunk)]
    key = ("sharded", workers, chunk)
    before = WORK_BEFORE_FLIGHTS[key]
    _assert_work(work, before, events_saved, WORK[key])


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
    2015: "ceb1bdd23e5872547c629230e61fe8af529f26305a08d443cb4daa9b6adbfda6",
    11: "f455140ea3c14a1b997c46c979dd0924e02c13e4e35b504525429ee547b6d02a",
}


@pytest.mark.parametrize("seed", sorted(BASELINES))
def test_baseline_measurers_are_pinned(seed, events_saved):
    result, work = _baselines(seed)
    assert result == BASELINES[seed]
    key = ("baselines", seed)
    _assert_work(work, WORK_BEFORE_FLIGHTS[key], events_saved, WORK[key])


def print_digests() -> None:
    """Print the pins (run at the commit whose measurements are to be
    kept): each configuration's digests and work tuple as shipped, then
    its work tuple with every flight refused and every ping-pong send
    scheduled at +0 (``WORK_BEFORE_FLIGHTS``: nothing is ever quiet)."""
    from unittest.mock import patch

    configurations = (
        [(("sequential", name), _sequential, (name,)) for name in sorted(SEQUENTIAL)]
        + [(("callback", name), _callback, (name,)) for name in sorted(CALLBACK)]
        + [(("sharded", *key), _sharded, key) for key in sorted(SHARDED)]
        + [(("baselines", seed), _baselines, (seed,)) for seed in sorted(BASELINES)]
    )
    for key, run, args in configurations:
        print(key, run(*args))
        with patch.object(
            OnionProxy, "_fly", lambda self, stream, payload: False
        ), patch.object(Simulator, "quiet_through", lambda self, time: False):
            print(key, "as cells:", run(*args)[-1])


if __name__ == "__main__":
    print_digests()
