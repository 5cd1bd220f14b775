"""Regression tests for partial echo-probe results.

A probe run that loses its stream mid-flight used to discard every RTT
it had already collected — unlike the deadline path, which accepted
them. The min-filter estimator works on whatever arrived, so both
endings must deliver partial samples via ``on_done``; ``on_error`` is
reserved for runs that end with zero replies.
"""

import inspect

import pytest

from repro.core.sampling import SamplePolicy, min_estimate
from repro.echo.client import DEFAULT_PROBE_TIMEOUT_MS, EchoClient


def _open_echo_stream(mini_world):
    measurement = mini_world.measurement
    controller = measurement.controller
    circuit = controller.build_circuit(
        [
            measurement.relay_w.fingerprint,
            mini_world.fingerprints()[0],
            measurement.relay_z.fingerprint,
        ]
    )
    return controller.open_stream(
        circuit, measurement.echo_address, measurement.echo_port
    )


class TestPartialResults:
    def test_stream_death_mid_run_keeps_collected_samples(self, mini_world):
        stream = _open_echo_stream(mini_world)
        client = EchoClient(mini_world.sim)
        outcomes = []
        client.probe_async(
            stream,
            samples=40,
            on_done=lambda result: outcomes.append(("done", result)),
            on_error=lambda reason: outcomes.append(("error", reason)),
            interval_ms=50.0,
            timeout_ms=60_000.0,
        )
        # Kill the stream well into the run: some replies are back, more
        # probes are still due to be sent.
        mini_world.sim.schedule(1_000.0, stream.close)
        mini_world.sim.run_until_idle()
        assert len(outcomes) == 1
        kind, result = outcomes[0]
        assert kind == "done"
        assert 0 < len(result.rtts_ms) < 40
        assert min_estimate(result.rtts_ms) > 0.0

    def test_stream_death_with_zero_replies_is_an_error(self, mini_world):
        stream = _open_echo_stream(mini_world)
        client = EchoClient(mini_world.sim)
        outcomes = []
        client.probe_async(
            stream,
            samples=10,
            on_done=lambda result: outcomes.append(("done", result)),
            on_error=lambda reason: outcomes.append(("error", reason)),
            interval_ms=5.0,
            timeout_ms=60_000.0,
        )
        stream.close()  # dead before the first probe ever goes out
        mini_world.sim.run_until_idle()
        assert outcomes == [("error", "stream became closed")]

    def test_deadline_with_partial_samples_still_accepted(self, mini_world):
        stream = _open_echo_stream(mini_world)
        client = EchoClient(mini_world.sim)
        outcomes = []
        client.probe_async(
            stream,
            samples=1_000,
            on_done=lambda result: outcomes.append(("done", result)),
            on_error=lambda reason: outcomes.append(("error", reason)),
            interval_ms=100.0,
            timeout_ms=2_000.0,  # expires long before 1000 samples
        )
        mini_world.sim.run_until_idle()
        kind, result = outcomes[0]
        assert kind == "done"
        assert 0 < len(result.rtts_ms) < 1_000


class TestDefaultTimeout:
    def test_client_default_matches_sample_policy(self):
        # The regression: the client defaulted to 120 s while the policy
        # layer said 600 s, so bare runs timed out five times sooner.
        assert DEFAULT_PROBE_TIMEOUT_MS == SamplePolicy().timeout_ms

    @pytest.mark.parametrize("method", ["probe", "probe_async"])
    def test_both_entry_points_share_the_default(self, method):
        signature = inspect.signature(getattr(EchoClient, method))
        assert (
            signature.parameters["timeout_ms"].default
            == DEFAULT_PROBE_TIMEOUT_MS
        )
