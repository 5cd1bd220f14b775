"""Tests for circuit truncation and in-place extension."""

import pytest

from repro.util.errors import CircuitError


def _build(mini_world, *relay_indices):
    controller = mini_world.measurement.controller
    w = mini_world.measurement.relay_w
    z = mini_world.measurement.relay_z
    path = (
        [w.fingerprint]
        + [mini_world.relays[i].fingerprint for i in relay_indices]
        + [z.fingerprint]
    )
    return controller.build_circuit(path)


class TestTruncate:
    def test_truncate_shortens_circuit(self, mini_world):
        controller = mini_world.measurement.controller
        circuit = _build(mini_world, 0, 1)  # (w, r0, r1, z)
        controller.truncate_circuit(circuit, to_hop=1)  # keep (w, r0)
        assert circuit.hops_completed == 2
        assert [d.nickname for d in circuit.path] == ["tingW", "mini0"]

    def test_truncate_destroys_dropped_hops(self, mini_world):
        controller = mini_world.measurement.controller
        circuit = _build(mini_world, 0, 1)
        dropped = mini_world.relays[1]
        assert dropped.open_circuits == 1
        controller.truncate_circuit(circuit, to_hop=1)
        mini_world.sim.run_until_idle()
        assert dropped.open_circuits == 0

    def test_truncate_then_extend_rebuilds(self, mini_world):
        controller = mini_world.measurement.controller
        z = mini_world.measurement.relay_z
        circuit = _build(mini_world, 0, 1)  # (w, r0, r1, z)
        controller.truncate_circuit(circuit, to_hop=1)  # (w, r0)
        controller.extend_circuit(
            circuit, [mini_world.relays[2].fingerprint, z.fingerprint]
        )
        assert circuit.is_built
        assert [d.nickname for d in circuit.path] == [
            "tingW",
            "mini0",
            "mini2",
            "tingZ",
        ]

    def test_reextended_circuit_carries_streams(self, mini_world):
        measurement = mini_world.measurement
        controller = measurement.controller
        z = measurement.relay_z
        circuit = _build(mini_world, 0, 1)
        controller.truncate_circuit(circuit, to_hop=1)
        controller.extend_circuit(
            circuit, [mini_world.relays[2].fingerprint, z.fingerprint]
        )
        stream = controller.open_stream(
            circuit, measurement.echo_address, measurement.echo_port
        )
        received = []
        stream.on_data = received.append
        stream.send(b"after surgery")
        mini_world.sim.run_until_idle()
        assert received == [b"after surgery"]

    def test_truncate_out_of_range_rejected(self, mini_world):
        controller = mini_world.measurement.controller
        circuit = _build(mini_world, 0)
        with pytest.raises(CircuitError):
            controller.proxy.truncate_circuit(
                circuit, to_hop=2, on_truncated=lambda c: None,
                on_failure=lambda c, reason: None,
            )
        with pytest.raises(CircuitError):
            controller.proxy.truncate_circuit(
                circuit, to_hop=-1, on_truncated=lambda c: None,
                on_failure=lambda c, reason: None,
            )

    def test_truncate_with_open_streams_rejected(self, mini_world):
        measurement = mini_world.measurement
        controller = measurement.controller
        circuit = _build(mini_world, 0)
        controller.open_stream(
            circuit, measurement.echo_address, measurement.echo_port
        )
        with pytest.raises(CircuitError):
            controller.proxy.truncate_circuit(
                circuit, to_hop=0, on_truncated=lambda c: None,
                on_failure=lambda c, reason: None,
            )

    def test_truncate_unbuilt_circuit_rejected(self, mini_world):
        controller = mini_world.measurement.controller
        circuit = _build(mini_world, 0)
        controller.close_circuit(circuit)
        with pytest.raises(CircuitError):
            controller.proxy.truncate_circuit(
                circuit, to_hop=0, on_truncated=lambda c: None,
                on_failure=lambda c, reason: None,
            )


#: How a truncate can end without TRUNCATED: the reason, and the
#: timeout it is given.
CUT_SHORT = {
    "shutdown": ("destroyed: torn down", 60_000.0),
    "timeout": ("truncate timed out", 1.0),
}


class TestTruncateFailure:
    """A truncate that ends without TRUNCATED calls ``on_failure`` once,
    with the reason, and never ``on_truncated``."""

    @pytest.mark.parametrize("how", sorted(CUT_SHORT))
    def test_on_failure_fires_once_with_the_reason(self, mini_world, how):
        reason, timeout_ms = CUT_SHORT[how]
        sim = mini_world.sim
        circuit = _build(mini_world, 0, 1)  # (w, r0, r1, z)
        calls = []
        mini_world.measurement.proxy.truncate_circuit(
            circuit,
            to_hop=1,
            on_truncated=lambda c: calls.append(("truncated", c)),
            on_failure=lambda c, why: calls.append((c, why, sim.now)),
            timeout_ms=timeout_ms,
        )
        sent = sim.now
        if how == "shutdown":  # the kept relay, with TRUNCATE in flight
            mini_world.relays[0].shutdown()
        sim.run_until_idle()
        [(failed, why, at)] = calls
        assert (failed, why) == (circuit, reason)
        assert circuit.state == "failed"
        # At the DESTROY (or the 1 ms timeout), not at the 60 s default.
        assert at - sent < 1_000.0

    @pytest.mark.parametrize("how", sorted(CUT_SHORT))
    def test_controller_raises_the_reason(self, mini_world, how):
        reason, timeout_ms = CUT_SHORT[how]
        controller = mini_world.measurement.controller
        circuit = _build(mini_world, 0, 1)
        if how == "shutdown":  # fires once TRUNCATE is sent
            mini_world.sim.schedule(0.0, mini_world.relays[0].shutdown)
        with pytest.raises(CircuitError, match=reason):
            controller.truncate_circuit(circuit, to_hop=1, timeout_ms=timeout_ms)


class TestExtendInPlace:
    def test_extend_validations(self, mini_world):
        controller = mini_world.measurement.controller
        circuit = _build(mini_world, 0)
        with pytest.raises(CircuitError):
            controller.proxy.extend_circuit(
                circuit, [], lambda c: None, lambda c, r: None
            )
        with pytest.raises(CircuitError):
            controller.proxy.extend_circuit(
                circuit,
                [mini_world.relays[0].fingerprint],  # already on circuit
                lambda c: None,
                lambda c, r: None,
            )

    def test_extend_to_offline_relay_fails(self, mini_world):
        controller = mini_world.measurement.controller
        circuit = _build(mini_world, 0, 1)
        controller.truncate_circuit(circuit, to_hop=1)
        target = mini_world.relays[2]
        target.shutdown()
        with pytest.raises(CircuitError):
            controller.extend_circuit(
                circuit, [target.fingerprint], timeout_ms=5_000.0
            )

    def test_extension_measured_rtts_consistent(self, mini_world):
        # A truncate-reuse (w,x,z) circuit measures the same floor as a
        # freshly built one: the protocol surgery does not skew RTTs.
        from repro.core.sampling import SamplePolicy
        from repro.echo.client import EchoClient

        measurement = mini_world.measurement
        controller = measurement.controller
        z = measurement.relay_z
        echo = EchoClient(mini_world.sim)

        fresh = _build(mini_world, 0)  # (w, r0, z)
        stream = controller.open_stream(
            fresh, measurement.echo_address, measurement.echo_port
        )
        fresh_min = echo.probe(stream, samples=40, interval_ms=3.0).min_rtt_ms
        stream.close()
        controller.close_circuit(fresh)

        surgically = _build(mini_world, 0, 1)  # (w, r0, r1, z)
        controller.truncate_circuit(surgically, to_hop=1)  # (w, r0)
        controller.extend_circuit(surgically, [z.fingerprint])  # (w, r0, z)
        stream = controller.open_stream(
            surgically, measurement.echo_address, measurement.echo_port
        )
        surgical_min = echo.probe(stream, samples=40, interval_ms=3.0).min_rtt_ms
        assert surgical_min == pytest.approx(fresh_min, rel=0.1, abs=3.0)
