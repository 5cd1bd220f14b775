"""Contract: a set-up flight is the cell path without the cells.

``OnionProxy._set_up`` may send the cell a circuit's set-up waits on —
CREATE, EXTEND, BEGIN — as a *set-up flight*: the cell, what the far end
does with it (a new OR connection's SYN and SYN-ACK and the new hop's
CREATE/CREATED, or the exit's TCP connection to the echo server) and the
answer back, all walked inside the sending event with the draws the cells
would take, and one landing that applies the far end's writes and runs
the client code the answer would have reached. The claim is that nothing
a measurement can observe tells the two apart. Each case here runs once
as shipped and once with the flight's one entry point
(``OnionProxy._fly_set_up``) refusing everything, on two worlds generated
from the same seed, and compares bit for bit: what was measured, the
final clock, every draw stream's position and named generator, every
connection end (id, ports, state, last arrival, queue head), every
relay's circuit tables, OR connections and counters, the proxy's tables,
the echo server and the whole metrics registry. The simulator's event
count may differ, and only by ``events − 1`` per landed set-up flight;
its heap peak may only fall.
"""

from __future__ import annotations

from contextlib import nullcontext
from unittest.mock import patch

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
from repro.tor.client import OnionProxy


def _refuse(self, cell):
    """``OnionProxy._fly_set_up`` for the reference run: every set-up is cells."""
    return False


def _ends(conn):
    return (conn, conn._peer) if conn is not None and conn._peer is not None else (
        (conn,) if conn is not None else ()
    )


def _end(conn):
    return None if conn is None else (conn.conn_id, conn.is_client)


def _state(testbed, registry):
    """Everything the two paths must leave identical."""
    host = testbed.measurement
    relays = [*testbed.relays, host.relay_w, host.relay_z]
    proxy = host.proxy
    seen = {}

    def visit(conn):
        for end in _ends(conn):
            seen[_end(end)] = (
                end.local_port, end.remote_port, end.established, end.closed,
                end._last_arrival, end._queue_head, type(end.owner).__name__,
                end._link is not None,
            )

    tables = []
    for relay in relays:
        entries = []
        for entry in relay._circuits.values():
            for conn in (entry.prev_conn, entry.next_conn, *entry.exit_streams.values()):
                visit(conn)
            entries.append((
                _end(entry.prev_conn), entry.prev_circ_id, _end(entry.next_conn),
                entry.next_circ_id, entry.torn_down,
                [(sid, _end(conn)) for sid, conn in entry.exit_streams.items()],
            ))
        for conn in relay._or_conns.values():
            visit(conn)
        tables.append((
            entries,
            [(_end(entry.next_conn), entry.next_circ_id) for entry in relay._next_side.values()],
            [(key, _end(conn)) for key, conn in relay._or_conns.items()],
            repr(relay._circ_id_counter),
            relay.cells_processed,
            relay.draws.base + relay.draws.pos,
            None if relay.service_queue is None
            else (relay.service_queue.cells_served, relay.service_queue._busy_until),
            relay.conn_registry is not None and relay in relay.conn_registry,
        ))
    for conn in proxy._or_conns.values():
        visit(conn)
    snapshot = registry.snapshot()
    sim, fabric = testbed.sim, testbed.fabric
    return {
        "now": repr(sim.now),
        "campaign_ms": repr(sim.campaign_ms),
        "streams": {
            name: rng.bit_generator.state for name, rng in testbed.streams._streams.items()
        },
        # A stream's position is the number of words taken; one rewound to
        # its start after a refused walk stands where an untouched one does.
        "draws": {
            name: draws.base + draws.pos
            for name, draws in testbed.streams.draws._streams.items()
            if draws.base + draws.pos > 0
        },
        "connections": seen,
        "relays": tables,
        "fabric": (repr(fabric._conn_ids), repr(fabric._ephemeral)),
        "proxy": (
            [(c.circ_id, c.state, c.failure_reason, len(c.layers), c.built_at_ms)
             for c in proxy.circuits.values()],
            [(key, _end(conn)) for key, conn in proxy._or_conns.items()],
            [(cid, _end(conn)) for cid, conn in proxy._conn_for_circuit.items()],
            sorted(proxy._builds), sorted(proxy._stream_waiters),
        ),
        "echo": (host.echo_server.connections_accepted, host.echo_server.payloads_echoed),
        "counters": snapshot["counters"],
        "histograms": snapshot["histograms"],
        "cancelled": sim.events_cancelled,
    }


def differential(scenario, seed=47, n_relays=10, service_queues=False):
    """Run ``scenario(testbed)`` with set-up flights and as cells; assert
    the two indistinguishable; return the set-up flights landed."""
    runs = []
    for refuse in (False, True):
        testbed = LiveTorTestbed.build(
            seed=seed, n_relays=n_relays, service_queues=service_queues
        )
        registry = testbed.measurement.enable_observability()
        landed = []
        land = OnionProxy._land_set_up

        def counting(self, *args):
            landed.append(args[-1][3] - 1)
            return land(self, *args)

        with patch.object(OnionProxy, "_fly_set_up", _refuse) if refuse else nullcontext(), \
                patch.object(OnionProxy, "_land_set_up", counting):
            observed = scenario(testbed)
        runs.append((
            observed, _state(testbed, registry), testbed.sim.events_processed,
            testbed.sim.heap_peak, landed,
        ))
    (observed, state, events, peak, landed), reference = runs
    assert reference[4] == []
    assert observed == reference[0]
    assert state == reference[1]
    assert reference[2] - events == sum(landed)
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
        landed = []
        land = OnionProxy._land_set_up

        def counting(self, *args):
            landed.append(args[-1][3] - 1)
            return land(self, *args)

        world = LiveTorTestbed.build(seed=47, n_relays=10)
        fps = [d.fingerprint for d in _relays(world, 4)]
        with patch.object(OnionProxy, "_fly_set_up", _refuse) if refuse else nullcontext(), \
                patch.object(OnionProxy, "_land_set_up", counting):
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
    chart = OnionProxy._chart_set_up

    def counting(self, *args):
        charts.append(1)
        return chart(self, *args)

    def scenario(testbed):
        with patch.object(OnionProxy, "_chart_set_up", counting):
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
