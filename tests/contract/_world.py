"""What the flight contracts compare, and how they reach the cell path.

A flight (``repro.tor.flight``) claims that nothing a measurement can
observe tells it apart from the cells it stands for. Both flight
differentials (``test_probe_flight.py``, ``test_set_up_flight.py``) run a
scenario twice on two worlds generated from the same seed — as shipped,
and with one kind of flight refused (:func:`refusing`) — and compare one
snapshot of each world (:func:`state`) bit for bit (:func:`runs`).
"""

from __future__ import annotations

from contextlib import nullcontext
from unittest.mock import patch

from repro.testbeds.livetor import LiveTorTestbed
from repro.tor.flight import Flight


def refusing(kind: type[Flight] = Flight):
    """Every flight of ``kind`` (every flight, by default) goes as cells:
    its one launch refuses."""
    return patch.object(kind, "launch", lambda self: False)


def runs(scenario, kind, seed, n_relays, service_queues):
    """Run ``scenario(testbed)`` as shipped, then with every flight of
    ``kind`` refused, each on a world built from the same seed; per run,
    what it returned, :func:`state`, the events, the heap peak and the
    flights of ``kind`` that landed."""
    out = []
    for refuse in (False, True):
        testbed = LiveTorTestbed.build(seed=seed, n_relays=n_relays,
                                       service_queues=service_queues)
        registry = testbed.measurement.enable_observability()
        landed, land = [], kind.land

        def landing(flight):
            landed.append(flight)
            return land(flight)

        with refusing(kind) if refuse else nullcontext(), patch.object(kind, "land", landing):
            observed = scenario(testbed)
        sim = testbed.sim
        out.append((observed, state(testbed, registry), sim.events_processed, sim.heap_peak,
                    landed))
    return out


def _ends(conn):
    return () if conn is None else (conn,) if conn._peer is None else (conn, conn._peer)


def _end(conn):
    return None if conn is None else (conn.conn_id, conn.is_client)


def state(testbed, registry) -> dict:
    """Everything a flight and its cells must leave identical: the clock,
    every named generator and draw stream (its block and offset), every
    connection end (id, ports, state, last arrival, queue head), every
    relay's circuit tables, OR connections, cell count and service
    queue, the proxy's tables, the echo server and the metrics registry."""
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
        # Every stream's block and offset: a walk given back must leave the
        # block current where the cells would, not just the position.
        "draws": {
            name: (draws.base, draws.pos)
            for name, draws in testbed.streams.draws._streams.items()
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
