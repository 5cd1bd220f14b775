"""Tests for Tor streams: BEGIN/CONNECTED/DATA/END through circuits."""

import pytest

from repro.core.sampling import min_estimate
from repro.util.errors import StreamError


def _built_circuit(mini_world, hops=2):
    controller = mini_world.measurement.controller
    w = mini_world.measurement.relay_w
    z = mini_world.measurement.relay_z
    fps = mini_world.fingerprints()
    path = [w.fingerprint] + fps[: hops - 2] + [z.fingerprint]
    return controller.build_circuit(path)


class TestStreamAttach:
    def test_stream_connects_to_echo_server(self, mini_world):
        measurement = mini_world.measurement
        circuit = _built_circuit(mini_world, hops=3)
        stream = measurement.controller.open_stream(
            circuit, measurement.echo_address, measurement.echo_port
        )
        assert stream.state == "open"

    def test_stream_to_disallowed_destination_fails(self, mini_world):
        # z's exit policy only allows the echo server's address.
        measurement = mini_world.measurement
        circuit = _built_circuit(mini_world, hops=3)
        other = mini_world.relays[0].host.address
        with pytest.raises(StreamError):
            measurement.controller.open_stream(circuit, other, 7)

    def test_stream_to_closed_port_fails(self, mini_world):
        measurement = mini_world.measurement
        circuit = _built_circuit(mini_world, hops=3)
        with pytest.raises(StreamError):
            measurement.controller.open_stream(
                circuit, measurement.echo_address, 9999
            )

    def test_stream_on_unbuilt_circuit_rejected(self, mini_world):
        measurement = mini_world.measurement
        circuit = _built_circuit(mini_world, hops=3)
        measurement.controller.close_circuit(circuit)
        with pytest.raises(StreamError):
            measurement.proxy.open_stream(
                circuit,
                measurement.echo_address,
                measurement.echo_port,
                lambda s: None,
                lambda r: None,
            )

    def test_streams_get_unique_ids(self, mini_world):
        measurement = mini_world.measurement
        circuit = _built_circuit(mini_world, hops=3)
        s1 = measurement.controller.open_stream(
            circuit, measurement.echo_address, measurement.echo_port
        )
        s2 = measurement.controller.open_stream(
            circuit, measurement.echo_address, measurement.echo_port
        )
        assert s1.stream_id != s2.stream_id


class TestStreamData:
    def test_echo_roundtrip(self, mini_world):
        measurement = mini_world.measurement
        circuit = _built_circuit(mini_world, hops=3)
        stream = measurement.controller.open_stream(
            circuit, measurement.echo_address, measurement.echo_port
        )
        received = []
        stream.on_data = received.append
        stream.send(b"hello onion world")
        mini_world.sim.run_until_idle()
        assert received == [b"hello onion world"]

    def test_multiple_payloads_in_order(self, mini_world):
        measurement = mini_world.measurement
        circuit = _built_circuit(mini_world, hops=3)
        stream = measurement.controller.open_stream(
            circuit, measurement.echo_address, measurement.echo_port
        )
        received = []
        stream.on_data = received.append
        for i in range(20):
            stream.send(f"msg-{i:02d}".encode())
        mini_world.sim.run_until_idle()
        assert received == [f"msg-{i:02d}".encode() for i in range(20)]

    def test_large_payload_chunked_across_cells(self, mini_world):
        from repro.tor.cells import RELAY_DATA_LEN

        measurement = mini_world.measurement
        circuit = _built_circuit(mini_world, hops=3)
        stream = measurement.controller.open_stream(
            circuit, measurement.echo_address, measurement.echo_port
        )
        received = []
        stream.on_data = received.append
        payload = bytes(range(256)) * 8  # 2048 bytes > one cell
        assert len(payload) > RELAY_DATA_LEN
        stream.send(payload)
        mini_world.sim.run_until_idle()
        assert b"".join(received) == payload

    def test_send_on_closed_stream_rejected(self, mini_world):
        measurement = mini_world.measurement
        circuit = _built_circuit(mini_world, hops=3)
        stream = measurement.controller.open_stream(
            circuit, measurement.echo_address, measurement.echo_port
        )
        stream.close()
        with pytest.raises(StreamError):
            stream.send(b"nope")

    def test_echo_server_counts_traffic(self, mini_world):
        measurement = mini_world.measurement
        circuit = _built_circuit(mini_world, hops=3)
        stream = measurement.controller.open_stream(
            circuit, measurement.echo_address, measurement.echo_port
        )
        before = measurement.echo_server.payloads_echoed
        stream.send(b"ping")
        mini_world.sim.run_until_idle()
        assert measurement.echo_server.payloads_echoed == before + 1

    def test_data_rtt_spans_full_circuit(self, mini_world):
        # The echo round trip must cost at least the end-to-end
        # propagation floor through every hop.
        measurement = mini_world.measurement
        circuit = _built_circuit(mini_world, hops=4)
        stream = measurement.controller.open_stream(
            circuit, measurement.echo_address, measurement.echo_port
        )
        sim = mini_world.sim
        arrived = []
        stream.on_data = lambda data: arrived.append(sim.now)
        sent_at = sim.now
        stream.send(b"timed")
        sim.run_until_idle()
        latency = mini_world.latency
        s_host = measurement.echo_client_host
        x_host = mini_world.relays[0].host
        y_host = mini_world.relays[1].host
        floor = (
            latency.true_rtt_ms(s_host, x_host)
            + latency.true_rtt_ms(x_host, y_host)
            + latency.true_rtt_ms(y_host, s_host)
        )
        assert arrived[0] - sent_at >= floor


class TestPingPongPacing:
    def test_pingpong_collects_all_samples(self, mini_world):
        from repro.echo.client import EchoClient

        measurement = mini_world.measurement
        circuit = _built_circuit(mini_world, hops=3)
        stream = measurement.controller.open_stream(
            circuit, measurement.echo_address, measurement.echo_port
        )
        client = EchoClient(mini_world.sim)
        result = client.probe(stream, samples=20, interval_ms=None)
        assert result.received == 20

    def test_pingpong_duration_scales_with_rtt(self, mini_world):
        # Serial probing costs ~samples x RTT; timer pacing at small
        # intervals pipelines and is much faster in simulated time.
        from repro.echo.client import EchoClient

        measurement = mini_world.measurement
        client = EchoClient(mini_world.sim)

        circuit = _built_circuit(mini_world, hops=3)
        stream = measurement.controller.open_stream(
            circuit, measurement.echo_address, measurement.echo_port
        )
        start = mini_world.sim.now
        result = client.probe(stream, samples=15, interval_ms=None)
        serial_elapsed = mini_world.sim.now - start
        stream.close()
        min_rtt = min_estimate(result.rtts_ms)

        stream = measurement.controller.open_stream(
            circuit, measurement.echo_address, measurement.echo_port
        )
        start = mini_world.sim.now
        client.probe(stream, samples=15, interval_ms=2.0)
        paced_elapsed = mini_world.sim.now - start

        assert serial_elapsed >= 15 * min_rtt * 0.9
        assert paced_elapsed < serial_elapsed
