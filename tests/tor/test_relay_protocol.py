"""Direct tests of relay-side protocol behaviour."""

import pytest

from repro.netsim.policies import TrafficClass
from repro.tor.cells import Cell, CellCommand, RelayCommand
from repro.util.errors import CircuitError


def _built_circuit(mini_world, *relay_indices):
    controller = mini_world.measurement.controller
    w = mini_world.measurement.relay_w
    z = mini_world.measurement.relay_z
    path = (
        [w.fingerprint]
        + [mini_world.relays[i].fingerprint for i in relay_indices]
        + [z.fingerprint]
    )
    return controller.build_circuit(path)


def _pad(proxy, circuit, hop=None):
    """Send a long-range padding cell (RELAY_DROP) to ``hop`` (the last
    by default): the receiving relay absorbs it silently."""
    proxy._send_relay_cell(circuit, RelayCommand.DROP, 0, b"", target_hop=hop)


class TestPaddingCells:
    def test_drop_cell_absorbed_silently(self, mini_world):
        proxy = mini_world.measurement.proxy
        circuit = _built_circuit(mini_world, 0)
        before = mini_world.relays[0].cells_processed
        _pad(proxy, circuit)
        mini_world.sim.run_until_idle()
        # The relay processed the padding without tearing anything down.
        assert mini_world.relays[0].cells_processed > before
        assert circuit.is_built

    def test_padding_addressed_to_intermediate_hop(self, mini_world):
        proxy = mini_world.measurement.proxy
        circuit = _built_circuit(mini_world, 0, 1)
        _pad(proxy, circuit, hop=1)  # relay 0's position
        mini_world.sim.run_until_idle()
        assert circuit.is_built

    def test_padding_on_closed_circuit_rejected(self, mini_world):
        proxy = mini_world.measurement.proxy
        controller = mini_world.measurement.controller
        circuit = _built_circuit(mini_world, 0)
        controller.close_circuit(circuit)
        with pytest.raises(CircuitError):
            _pad(proxy, circuit)

    def test_circuit_usable_after_padding(self, mini_world):
        measurement = mini_world.measurement
        proxy = measurement.proxy
        circuit = _built_circuit(mini_world, 0)
        for _ in range(5):
            _pad(proxy, circuit)
        stream = measurement.controller.open_stream(
            circuit, measurement.echo_address, measurement.echo_port
        )
        received = []
        stream.on_data = received.append
        stream.send(b"still works")
        mini_world.sim.run_until_idle()
        assert received == [b"still works"]


class TestRelayEdgeCases:
    def test_relay_cell_for_unknown_circuit_answered_with_destroy(
        self, mini_world
    ):
        # Build a real OR connection, then send a RELAY cell on a bogus
        # circuit id: the relay must answer DESTROY, not crash.
        measurement = mini_world.measurement
        proxy = measurement.proxy
        circuit = _built_circuit(mini_world, 0)
        conn = proxy._conn_for_circuit[circuit.circ_id]
        conn.send(Cell(9_999, CellCommand.RELAY, b"\x00" * 509), size_bytes=512)
        mini_world.sim.run_until_idle()
        # The original circuit is untouched.
        assert circuit.is_built

    def test_duplicate_create_rejected(self, mini_world):
        measurement = mini_world.measurement
        proxy = measurement.proxy
        circuit = _built_circuit(mini_world, 0)
        conn = proxy._conn_for_circuit[circuit.circ_id]
        # Replay a CREATE with the same circuit id on the same conn.
        conn.send(
            Cell(circuit.circ_id, CellCommand.CREATE, b"n" * 16), size_bytes=512
        )
        mini_world.sim.run_until_idle()
        # The relay answered DESTROY for the duplicate; the client sees
        # its circuit fail — the safe outcome for an id collision.
        assert circuit.state in ("built", "failed")

    def test_destroy_for_unknown_circuit_ignored(self, mini_world):
        measurement = mini_world.measurement
        proxy = measurement.proxy
        circuit = _built_circuit(mini_world, 0)
        conn = proxy._conn_for_circuit[circuit.circ_id]
        conn.send(Cell(8_888, CellCommand.DESTROY, "bogus"), size_bytes=512)
        mini_world.sim.run_until_idle()
        assert circuit.is_built

    def test_padding_cell_command_dropped_at_relay(self, mini_world):
        measurement = mini_world.measurement
        proxy = measurement.proxy
        circuit = _built_circuit(mini_world, 0)
        conn = proxy._conn_for_circuit[circuit.circ_id]
        conn.send(Cell(circuit.circ_id, CellCommand.PADDING, None), size_bytes=512)
        mini_world.sim.run_until_idle()
        assert circuit.is_built

    def test_cells_processed_counter_advances(self, mini_world):
        relay = mini_world.relays[0]
        before = relay.cells_processed
        _built_circuit(mini_world, 0)
        assert relay.cells_processed > before


class TestQueueHeadLivesOnTheConnection:
    def test_a_new_connection_does_not_inherit_a_closed_ones_queue_head(self, mini_world):
        """The relay's per-connection FIFO head is state of the
        connection: closing one whose head lies ahead of the clock (a
        long forwarding delay; or, under task isolation, a head left
        from before the clock was restarted) leaves nothing behind for
        the next connection — whatever address it is allocated at — to
        be held behind."""
        world, relay = mini_world, mini_world.relays[0]
        client = world.measurement.echo_client_host

        def connect():
            accepted = []
            world.fabric.connect(
                client, relay.host, relay.or_port, TrafficClass.TOR, accepted.append
            )
            world.sim.run_until_idle()
            return accepted[0]._peer  # the relay's end

        first = connect()
        relay.ready_ms(first, world.sim.now)
        first._queue_head = world.sim.now + 60_000.0  # far ahead of the clock
        first.close()
        world.sim.run_until_idle()
        del first

        second = connect()
        assert second._queue_head == 0.0
        now = world.sim.now
        assert relay.ready_ms(second, now) < now + 1_000.0
