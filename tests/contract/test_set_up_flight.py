"""Contract: a set-up flight is the cell path without the cells.

``OnionProxy._set_up`` may send the cell a circuit's set-up waits on —
CREATE, EXTEND, BEGIN — as a *set-up flight*: the cell, what the far end
does with it (a new OR connection's SYN and SYN-ACK and the new hop's
CREATE/CREATED, or the exit's TCP connection to the echo server) and the
answer back, all walked inside the sending event with the draws the cells
would take, and one landing that applies the far end's writes and runs
the client code the answer would have reached. The claim is that nothing
a measurement can observe tells the two apart. Each case here runs once
as shipped and once with every set-up flight refused
(``_world.refusing(SetUp)``), on two worlds generated from the same seed,
and compares bit for bit what was measured and the world's snapshot
(``_world.state``: the clock, every draw stream and named generator,
every connection end, every relay's circuit tables, OR connections and
counters, the proxy's tables, the echo server and the whole metrics
registry). The simulator's event count may differ, and only by
``events − 1`` per landed set-up flight; its heap peak may only fall.
"""

from __future__ import annotations

from contextlib import nullcontext
from unittest.mock import patch

import _world
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.campaign import AllPairsCampaign
from repro.core.parallel import ParallelCampaign
from repro.core.sampling import SamplePolicy
from repro.core.shard import ShardedCampaign
from repro.core.ting import TingMeasurer
from repro.testbeds.churn import ChurnProcess
from repro.testbeds.livetor import LiveTorTestbed
from repro.tor.flight import SetUp


def differential(scenario, seed=47, n_relays=10, service_queues=False):
    """Run ``scenario(testbed)`` with set-up flights and as cells; assert
    the two indistinguishable; return the set-up flights landed."""
    (observed, state, events, peak, landed), reference = _world.runs(
        scenario, SetUp, seed, n_relays, service_queues
    )
    assert reference[4] == []
    assert observed == reference[0]
    assert state == reference[1]
    assert reference[2] - events == sum(flight.chart[2] - 1 for flight in landed)
    assert peak <= reference[3]
    return len(landed)


def _relays(testbed, count):
    return testbed.random_relays(count, testbed.streams.get("contract.set_up"))


def _campaign(count, policy, **kwargs):
    def scenario(testbed):
        measurer = TingMeasurer(testbed.measurement, policy=policy, **kwargs)
        report = AllPairsCampaign(measurer, _relays(testbed, count)).run()
        return (
            report.matrix.as_array().tobytes(), report.pairs_measured,
            report.failures_total, measurer.circuits_built,
        )

    return scenario


def _circuit(hops, samples):
    """A ``w, <hops - 2 relays>, z`` circuit built and probed through the
    Stem-like controller, then closed."""

    def scenario(testbed):
        host = testbed.measurement
        middle = [relay.fingerprint for relay in _relays(testbed, hops - 2)]
        circuit = host.controller.build_circuit(
            [host.relay_w.fingerprint, *middle, host.relay_z.fingerprint]
        )
        stream = host.controller.open_stream(circuit, host.echo_address, host.echo_port)
        result = host.echo_client.probe(stream, samples, interval_ms=None)
        stream.close()
        host.controller.close_circuit(circuit)
        testbed.sim.run_until_idle()
        return result.rtts_ms, circuit.built_at_ms - circuit.created_at_ms

    return scenario


# ----------------------------------------------------------------------
# The quiet regime: every set-up step flies


@pytest.mark.parametrize("hops", [3, 4])
def test_a_circuit_built_and_attached_in_flights(hops):
    # CREATE, hops - 1 EXTENDs and the BEGIN.
    assert differential(_circuit(hops, 5)) == hops + 1


@pytest.mark.parametrize("service_queues", [False, True])
@pytest.mark.parametrize("policy", ["pingpong", "train"])
def test_a_sequential_campaign(service_queues, policy):
    policy = SamplePolicy.serial(6) if policy == "pingpong" else SamplePolicy(
        samples=6, interval_ms=2.0
    )
    assert differential(_campaign(4, policy), service_queues=service_queues) > 0


def test_circuit_reuse_extends_in_flights():
    landed = differential(
        _campaign(4, SamplePolicy.serial(4), reuse_circuits=True, cache_legs=False)
    )
    assert landed > 0


def test_isolated_tasks():
    def scenario(testbed):
        report = ParallelCampaign(
            testbed.measurement, _relays(testbed, 4), policy=SamplePolicy.serial(4),
            isolation=testbed.task_isolation(),
        ).run()
        return report.matrix.as_array().tobytes(), repr(report.makespan_ms)

    assert differential(scenario) > 0


def test_a_sharded_campaign_inline():
    """Isolated tasks in sharded workers (emulated inline): the same
    matrix, and the workers' events lower by the formula."""
    runs = []
    for refuse in (False, True):
        landed, land = [], SetUp.land

        def counting(flight):
            landed.append(flight.chart[2] - 1)
            return land(flight)

        world = LiveTorTestbed.build(seed=47, n_relays=10)
        fps = [d.fingerprint for d in _relays(world, 4)]
        with _world.refusing(SetUp) if refuse else nullcontext(), \
                patch.object(SetUp, "land", counting):
            report = ShardedCampaign(
                lambda: LiveTorTestbed.build(seed=47, n_relays=10), fps,
                policy=SamplePolicy(samples=4, interval_ms=2.0), workers=2,
                force_inline=True,
            ).run()
        runs.append((report.matrix.as_array().tobytes(), report.events_processed, landed))
    (matrix, events, landed), (cells, cell_events, none) = runs
    assert none == [] and landed
    assert matrix == cells
    assert cell_events - events == sum(landed)


def test_a_busy_simulator_flies_nothing_and_charts_nothing():
    charts = []
    chart = SetUp.charted

    def counting(flight):
        charts.append(1)
        return chart(flight)

    def scenario(testbed):
        with patch.object(SetUp, "charted", counting):
            report = ParallelCampaign(
                testbed.measurement, _relays(testbed, 6),
                policy=SamplePolicy(samples=6, interval_ms=2.0), concurrency=16,
            ).run()
        return report.matrix.as_array().tobytes()

    differential(scenario, seed=11, n_relays=12)
    # Most sends stop at the first comparison; what charts is refused exactly.
    assert len(charts) < 10


def test_churn_shuts_relays_down_under_builds():
    def scenario(testbed):
        relays = _relays(testbed, 5)
        measured = {d.fingerprint for d in relays}
        ChurnProcess(
            testbed.sim,
            [relay for relay in testbed.relays if relay.fingerprint in measured],
            testbed.authority,
            np.random.default_rng(2),
            mean_uptime_ms=3_000.0,
            mean_downtime_ms=2_000.0,
        ).start()
        measurer = TingMeasurer(
            testbed.measurement,
            policy=SamplePolicy(samples=6, interval_ms=2.0, timeout_ms=5_000.0),
        )
        report = AllPairsCampaign(
            measurer, relays, retries=1, retry_delay_ms=2_000.0
        ).run()
        return report.matrix.as_array().tobytes(), report.failures_total

    differential(scenario, seed=7, n_relays=22)


def test_a_refused_extension_fails_as_cells_do():
    def scenario(testbed):
        host = testbed.measurement
        victim = testbed.relays[0]
        victim.shutdown()
        failures = []
        host.proxy.create_circuit(
            [host.relay_w.fingerprint, victim.fingerprint, host.relay_z.fingerprint],
            lambda circuit: failures.append("built"),
            lambda circuit, reason: failures.append((reason, repr(testbed.sim.now))),
        )
        testbed.sim.run_until_idle()
        return failures

    differential(scenario)


def test_an_exit_policy_that_refuses_the_begin_goes_as_cells():
    def scenario(testbed):
        host = testbed.measurement
        circuit = host.controller.build_circuit(
            [host.relay_w.fingerprint, testbed.relays[0].fingerprint,
             testbed.relays[1].fingerprint]
        )
        refused = []
        host.proxy.open_stream(
            circuit, host.echo_address, host.echo_port,
            lambda stream: refused.append("open"), refused.append,
        )
        testbed.sim.run_until_idle()
        return refused

    # CREATE and both EXTENDs fly; a public relay's reject-all exit policy
    # sends the BEGIN as cells, and its END back.
    assert differential(scenario) == 3


def test_a_listener_gone_at_the_launch_instant_brings_the_flight_down():
    """The BEGIN flies, then the echo server stops listening before any
    event: the wiring moves, so the flight is taken back (exact at its
    launch instant) and the BEGIN meets the refusal as a cell."""

    def scenario(testbed):
        host = testbed.measurement
        circuit = host.controller.build_circuit(
            [host.relay_w.fingerprint, testbed.relays[0].fingerprint,
             host.relay_z.fingerprint]
        )
        got = []
        host.proxy.open_stream(
            circuit, host.echo_address, host.echo_port,
            lambda stream: got.append("open"), got.append,
        )
        host.echo_server.shutdown()
        testbed.sim.run_until_idle()
        return got

    assert differential(scenario) == 3


@settings(max_examples=12, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    n_relays=st.integers(min_value=4, max_value=12),
    hops=st.integers(min_value=2, max_value=5),
    samples=st.integers(min_value=1, max_value=30),
    service_queues=st.booleans(),
)
def test_generated_worlds(seed, n_relays, hops, samples, service_queues):
    hops = min(hops, n_relays + 2)
    landed = differential(_circuit(hops, samples), seed, n_relays, service_queues)
    assert landed == hops + 1
