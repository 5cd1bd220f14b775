"""Tests for the Ting measurement technique itself."""

import pytest

from conftest import MiniWorld
from repro.core.sampling import SamplePolicy
from repro.core.ting import PairTask, TingMeasurer
from repro.util.errors import MeasurementError

FAST = SamplePolicy(samples=30, interval_ms=2.0)


@pytest.fixture
def measurer(mini_world):
    return TingMeasurer(mini_world.measurement, policy=FAST)


class TestMeasurePair:
    def test_estimate_close_to_oracle(self, mini_world, measurer):
        x, y = mini_world.relays[0], mini_world.relays[1]
        result = measurer.measure_pair(x.descriptor(), y.descriptor())
        oracle = mini_world.latency.true_rtt_ms(x.host, y.host)
        assert result.rtt_ms == pytest.approx(oracle, rel=0.25, abs=8.0)

    def test_estimate_is_eq4(self, mini_world, measurer):
        x, y = mini_world.relays[0], mini_world.relays[1]
        result = measurer.measure_pair(x.descriptor(), y.descriptor())
        expected = (
            result.circuit_xy.min_ms
            - result.circuit_x.min_ms / 2.0
            - result.circuit_y.min_ms / 2.0
        )
        assert result.rtt_ms == pytest.approx(expected)

    def test_circuit_paths_follow_design(self, mini_world, measurer):
        x, y = mini_world.relays[0], mini_world.relays[1]
        result = measurer.measure_pair(x.descriptor(), y.descriptor())
        w = mini_world.measurement.relay_w.fingerprint
        z = mini_world.measurement.relay_z.fingerprint
        assert result.circuit_xy.path == (w, x.fingerprint, y.fingerprint, z)
        assert result.circuit_x.path == (w, x.fingerprint, z)
        assert result.circuit_y.path == (w, y.fingerprint, z)

    def test_sample_counts_match_policy(self, mini_world, measurer):
        x, y = mini_world.relays[0], mini_world.relays[1]
        result = measurer.measure_pair(x.descriptor(), y.descriptor())
        assert len(result.circuit_xy.samples_ms) == FAST.samples
        assert result.total_probes == 3 * FAST.samples

    def test_accepts_fingerprint_strings(self, mini_world, measurer):
        x, y = mini_world.relays[0], mini_world.relays[1]
        result = measurer.measure_pair(x.fingerprint, y.fingerprint)
        assert result.x_fingerprint == x.fingerprint

    def test_self_pair_rejected(self, mini_world, measurer):
        x = mini_world.relays[0]
        with pytest.raises(MeasurementError):
            measurer.measure_pair(x.fingerprint, x.fingerprint)

    def test_local_helpers_rejected(self, mini_world, measurer):
        x = mini_world.relays[0]
        w = mini_world.measurement.relay_w
        with pytest.raises(MeasurementError):
            measurer.measure_pair(w.fingerprint, x.fingerprint)

    def test_duration_recorded(self, mini_world, measurer):
        x, y = mini_world.relays[0], mini_world.relays[1]
        result = measurer.measure_pair(x.descriptor(), y.descriptor())
        assert result.duration_ms > 0

    def test_offline_relay_raises_measurement_error(self, mini_world, measurer):
        x, y = mini_world.relays[0], mini_world.relays[1]
        x.shutdown()
        with pytest.raises(MeasurementError):
            measurer.measure_pair(
                x.descriptor(),
                y.descriptor(),
                policy=SamplePolicy(samples=5, timeout_ms=5_000.0),
            )

    def test_zero_reply_probe_round_is_a_measurement_error(self, mini_world, measurer):
        # Was: the sync probe path let the echo client's CircuitError
        # through, which no campaign catches — one dead probe round
        # killed a sequential campaign instead of failing its pair.
        host = mini_world.measurement
        x, y = mini_world.relays[0], mini_world.relays[1]

        def no_replies(stream, samples, on_done, on_error, **kwargs):
            host.sim.schedule(0.0, on_error, "echo probe deadline with zero replies")

        host.echo_client.probe_async = no_replies
        with pytest.raises(MeasurementError, match="zero replies"):
            measurer.measure_pair(x.descriptor(), y.descriptor())
        assert sum(c.is_built for c in host.proxy.circuits.values()) == 0

    def test_clamped_estimate_non_negative(self, mini_world, measurer):
        x, y = mini_world.relays[0], mini_world.relays[1]
        result = measurer.measure_pair(x.descriptor(), y.descriptor())
        assert result.rtt_clamped_ms >= 0.0

    def test_bookkeeping_counters(self, mini_world, measurer):
        x, y = mini_world.relays[0], mini_world.relays[1]
        measurer.measure_pair(x.descriptor(), y.descriptor())
        assert measurer.circuits_built == 3
        assert measurer.probes_sent == 3 * FAST.samples


class TestLegCache:
    def test_cache_reuses_leg_measurements(self, mini_world):
        measurer = TingMeasurer(
            mini_world.measurement, policy=FAST, cache_legs=True
        )
        relays = mini_world.relays
        measurer.measure_pair(relays[0].descriptor(), relays[1].descriptor())
        built_after_first = measurer.circuits_built
        measurer.measure_pair(relays[0].descriptor(), relays[2].descriptor())
        # Second pair: C_xy plus only relay 2's new leg.
        assert measurer.circuits_built == built_after_first + 2

    def test_without_cache_all_legs_remeasured(self, mini_world):
        measurer = TingMeasurer(mini_world.measurement, policy=FAST)
        relays = mini_world.relays
        measurer.measure_pair(relays[0].descriptor(), relays[1].descriptor())
        measurer.measure_pair(relays[0].descriptor(), relays[2].descriptor())
        assert measurer.circuits_built == 6

    def test_invalidate_clears_cache(self, mini_world):
        measurer = TingMeasurer(
            mini_world.measurement, policy=FAST, cache_legs=True
        )
        relays = mini_world.relays
        measurer.measure_leg(relays[0].descriptor())
        measurer.invalidate_leg_cache()
        measurer.measure_leg(relays[0].descriptor())
        assert measurer.circuits_built == 2

    def test_cached_leg_same_object(self, mini_world):
        measurer = TingMeasurer(
            mini_world.measurement, policy=FAST, cache_legs=True
        )
        relay = mini_world.relays[0]
        first = measurer.measure_leg(relay.descriptor())
        second = measurer.measure_leg(relay.descriptor())
        assert first is second


class TestCircuitReuse:
    def test_reuse_estimates_match_fresh(self, mini_world):
        fresh = TingMeasurer(mini_world.measurement, policy=FAST)
        reuse = TingMeasurer(
            mini_world.measurement, policy=FAST, reuse_circuits=True
        )
        x, y = mini_world.relays[0], mini_world.relays[1]
        fresh_result = fresh.measure_pair(x.descriptor(), y.descriptor())
        reuse_result = reuse.measure_pair(x.descriptor(), y.descriptor())
        assert reuse_result.rtt_ms == pytest.approx(
            fresh_result.rtt_ms, rel=0.25, abs=8.0
        )
        assert reuse.circuits_reused == 1

    def test_reuse_saves_a_build(self, mini_world):
        reuse = TingMeasurer(
            mini_world.measurement, policy=FAST, reuse_circuits=True
        )
        x, y = mini_world.relays[0], mini_world.relays[1]
        reuse.measure_pair(x.descriptor(), y.descriptor())
        # One pair circuit (reshaped into the x leg) plus the y leg.
        assert reuse.circuits_built == 2

    def test_reuse_circuit_paths_correct(self, mini_world):
        reuse = TingMeasurer(
            mini_world.measurement, policy=FAST, reuse_circuits=True
        )
        x, y = mini_world.relays[0], mini_world.relays[1]
        result = reuse.measure_pair(x.descriptor(), y.descriptor())
        w = mini_world.measurement.relay_w.fingerprint
        z = mini_world.measurement.relay_z.fingerprint
        assert result.circuit_x.path == (w, x.fingerprint, z)

    def test_reuse_with_leg_cache(self, mini_world):
        reuse = TingMeasurer(
            mini_world.measurement,
            policy=FAST,
            reuse_circuits=True,
            cache_legs=True,
        )
        relays = mini_world.relays
        reuse.measure_pair(relays[0].descriptor(), relays[1].descriptor())
        built_first = reuse.circuits_built
        # Second pair reuses relay 0's cached leg: no surgery needed.
        reuse.measure_pair(relays[0].descriptor(), relays[2].descriptor())
        assert reuse.circuits_reused == 1
        assert reuse.circuits_built == built_first + 2

    def test_relay_dying_mid_surgery_fails_the_pair_at_the_destroy(
        self, mini_world, monkeypatch
    ):
        # Was: the truncate's waiter was never told of the DESTROY, so the
        # pair sat out the 60 s truncate timeout and then failed with
        # "simulation quiesced before operation completed".
        host = mini_world.measurement
        proxy, sim = host.proxy, mini_world.sim
        x, y, other = mini_world.relays[:3]
        reuse = TingMeasurer(host, policy=FAST, reuse_circuits=True)
        truncate, cut = proxy.truncate_circuit, []

        def truncate_then_shut_x(circuit, *args, **kwargs):
            truncate(circuit, *args, **kwargs)
            cut.append(circuit)
            monkeypatch.undo()
            x.shutdown()

        monkeypatch.setattr(proxy, "truncate_circuit", truncate_then_shut_x)
        started = sim.now
        expected = (
            f"leg failed: circuit reuse surgery failed for {x.fingerprint}: "
            "destroyed: "
        )
        with pytest.raises(MeasurementError, match=expected):
            reuse.measure_pair(x.fingerprint, y.fingerprint)
        assert sim.now - started < 2_000.0
        [circuit] = cut
        assert circuit.state == "closed"
        assert sum(c.is_built for c in proxy.circuits.values()) == 0
        result = reuse.measure_pair(y.fingerprint, other.fingerprint)
        assert result.circuit_x.path == (reuse.w, y.fingerprint, reuse.z)
        assert reuse.circuits_reused == 1

    def test_reuse_pair_launches_inside_an_event(self):
        # Was: SimulationError (Simulator.run() is not reentrant) — the
        # reuse launch ran the simulator itself for the C_xy build and
        # probe and for the controller's TRUNCATE and EXTEND.
        def world():
            mini = MiniWorld()
            reuse = TingMeasurer(mini.measurement, policy=FAST, reuse_circuits=True)
            return mini, reuse, mini.relays[0].fingerprint, mini.relays[1].fingerprint

        twin, twin_reuse, x, y = world()
        expected = twin_reuse.measure_pair(x, y)
        mini, reuse, x, y = world()
        outcomes = []
        mini.sim.schedule(
            0.0,
            lambda: PairTask(
                reuse, x, y, FAST, outcomes.append, outcomes.append
            ).start(),
        )
        mini.sim.run_until_idle()
        [result] = outcomes
        assert result.rtt_ms == expected.rtt_ms
        for name in ("circuit_xy", "circuit_x", "circuit_y"):
            assert getattr(result, name).samples_ms == getattr(expected, name).samples_ms
        assert (reuse.circuits_built, reuse.circuits_reused) == (
            twin_reuse.circuits_built, twin_reuse.circuits_reused
        ) == (2, 1)

    @pytest.mark.parametrize("reuse_circuits", [False, True])
    def test_leg_cache_accounting_identity(self, mini_world, reuse_circuits):
        # Whichever path satisfies a miss (fresh build or circuit-reuse
        # surgery), every consult is exactly one lookup counted as a hit
        # or a miss — no third bucket.
        host = mini_world.measurement
        host.enable_observability()
        measurer = TingMeasurer(
            host,
            policy=FAST,
            reuse_circuits=reuse_circuits,
            cache_legs=True,
        )
        relays = mini_world.relays
        measurer.measure_pair(relays[0].descriptor(), relays[1].descriptor())
        measurer.measure_pair(relays[0].descriptor(), relays[2].descriptor())
        lookups = host.metrics.counter("ting.leg_cache_lookups")
        hits = host.metrics.counter("ting.leg_cache_hits")
        misses = host.metrics.counter("ting.leg_cache_misses")
        assert lookups == hits + misses
        # Two pairs consult x and y legs once each; relay 0's second
        # appearance is the lone hit.
        assert lookups == 4
        assert hits == 1
        assert misses == 3
