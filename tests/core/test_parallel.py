"""Tests for the concurrent all-pairs campaign."""

import pytest

from repro.core.campaign import AllPairsCampaign
from repro.core.parallel import ParallelCampaign
from repro.core.sampling import SamplePolicy
from repro.core.ting import TingMeasurer
from repro.util.errors import MeasurementError

FAST = SamplePolicy(samples=20, interval_ms=2.0)


class TestParallelCampaign:
    def test_produces_complete_matrix(self, mini_world):
        relays = [r.descriptor() for r in mini_world.relays]
        campaign = ParallelCampaign(
            mini_world.measurement, relays, policy=FAST, concurrency=6
        )
        report = campaign.run()
        assert report.matrix.is_complete
        assert report.failures == []
        assert report.pairs_measured == len(relays) * (len(relays) - 1) // 2

    def test_estimates_match_sequential(self, mini_world):
        relays = [r.descriptor() for r in mini_world.relays[:3]]
        parallel = ParallelCampaign(
            mini_world.measurement, relays, policy=FAST, concurrency=4
        ).run()
        sequential = AllPairsCampaign(
            TingMeasurer(mini_world.measurement, policy=FAST, cache_legs=True),
            relays,
        ).run()
        for a, b, rtt in sequential.matrix.measured_pairs():
            assert parallel.matrix.get(a, b) == pytest.approx(
                rtt, rel=0.35, abs=10.0
            )

    def test_concurrency_reduces_makespan(self, mini_world):
        relays = [r.descriptor() for r in mini_world.relays]
        serial = ParallelCampaign(
            mini_world.measurement, relays, policy=FAST, concurrency=1
        ).run()
        wide = ParallelCampaign(
            mini_world.measurement, relays, policy=FAST, concurrency=8
        ).run()
        assert wide.makespan_ms < serial.makespan_ms / 2

    def test_peak_concurrency_respected(self, mini_world):
        relays = [r.descriptor() for r in mini_world.relays]
        campaign = ParallelCampaign(
            mini_world.measurement, relays, policy=FAST, concurrency=3
        )
        report = campaign.run()
        assert 1 <= report.peak_concurrency <= 3

    def test_offline_relay_recorded_as_failures(self, mini_world):
        relays = [r.descriptor() for r in mini_world.relays[:3]]
        mini_world.relays[2].shutdown()
        campaign = ParallelCampaign(
            mini_world.measurement,
            relays,
            policy=SamplePolicy(samples=5, timeout_ms=5_000.0),
            concurrency=4,
        )
        report = campaign.run()
        # Both pairs touching the dead relay fail (via circuit or leg).
        assert len(report.failures) == 2
        assert report.matrix.has(relays[0].fingerprint, relays[1].fingerprint)

    @pytest.mark.parametrize("again", ["same", "reversed"])
    def test_a_pair_given_twice_is_refused(self, mini_world, again):
        # Was: pairs_attempted=2, pairs_measured=1, no failure, and the
        # second measurement overwrote the first matrix entry.
        relays = [r.descriptor() for r in mini_world.relays[:3]]
        a, b = relays[0].fingerprint, relays[1].fingerprint
        twice = [(a, b), (a, b) if again == "same" else (b, a)]
        with pytest.raises(MeasurementError, match="invalid campaign pair"):
            ParallelCampaign(mini_world.measurement, relays, pairs=twice)
        campaign = ParallelCampaign(mini_world.measurement, relays, pairs=[])
        with pytest.raises(MeasurementError, match="invalid campaign pair"):
            campaign.run_pairs(twice)

    @pytest.mark.parametrize("helper", ["relay_w", "relay_z"])
    @pytest.mark.parametrize("campaign", ["serial", "windowed", "all-pairs"])
    def test_the_hosts_own_relays_are_refused(self, mini_world, campaign, helper):
        # Was: the serial drive recorded "cannot measure the local helper
        # relays" for each pair through w, the windowed one "a relay
        # cannot appear on a circuit more than once".
        host = mini_world.measurement
        relays = [getattr(host, helper).descriptor()] + [
            r.descriptor() for r in mini_world.relays[:2]
        ]
        with pytest.raises(MeasurementError, match="local helper relays"):
            if campaign == "all-pairs":
                AllPairsCampaign(TingMeasurer(host, policy=FAST), relays)
            else:
                ParallelCampaign(
                    host, relays, policy=FAST,
                    concurrency=1 if campaign == "serial" else 4,
                )

    def test_validation(self, mini_world):
        relays = [r.descriptor() for r in mini_world.relays[:2]]
        with pytest.raises(MeasurementError):
            ParallelCampaign(mini_world.measurement, relays[:1])
        with pytest.raises(MeasurementError):
            ParallelCampaign(mini_world.measurement, relays, concurrency=0)
        with pytest.raises(MeasurementError):
            ParallelCampaign(
                mini_world.measurement, [relays[0], relays[0]]
            )


class TestInstrumentedCampaign:
    def test_counters_account_for_every_circuit(self, mini_world):
        host = mini_world.measurement
        registry = host.enable_observability()
        relays = [r.descriptor() for r in mini_world.relays]
        n = len(relays)
        pairs = n * (n - 1) // 2
        report = ParallelCampaign(
            host, relays, policy=FAST, concurrency=4
        ).run()
        assert report.pairs_measured == pairs
        # One circuit per leg plus one per pair, nothing hidden.
        assert registry.counter("tor.circuits_built") == n + pairs
        assert registry.counter("ting.leg_cache_misses") == n
        # Every pair combines two shared leg measurements.
        assert registry.counter("ting.leg_cache_hits") == 2 * pairs
        assert registry.counter("campaign.pairs_measured") == pairs
        sent = registry.counter("echo.probes_sent")
        received = registry.counter("echo.probes_received")
        lost = registry.counter("echo.probes_lost")
        assert sent == (n + pairs) * FAST.samples
        assert sent == received + lost
        assert registry.histogram("echo.rtt_ms").count == received
        assert registry.gauge("campaign.peak_concurrency") <= 4

    def test_observability_does_not_perturb_estimates(self):
        # Zero-cost also means zero-effect: an instrumented run must
        # produce a bit-for-bit identical matrix to a plain one.
        from repro.testbeds.planetlab import PlanetLabTestbed

        def run(instrument: bool):
            testbed = PlanetLabTestbed.build(seed=31, n_relays=4)
            if instrument:
                testbed.measurement.enable_observability()
            report = ParallelCampaign(
                testbed.measurement,
                [r.descriptor() for r in testbed.relays],
                policy=FAST,
                concurrency=3,
            ).run()
            return sorted(report.matrix.measured_pairs())

        assert run(instrument=True) == run(instrument=False)

    def test_failures_categorized_in_counters(self, mini_world):
        host = mini_world.measurement
        registry = host.enable_observability()
        relays = [r.descriptor() for r in mini_world.relays[:3]]
        mini_world.relays[2].shutdown()
        report = ParallelCampaign(
            host,
            relays,
            policy=SamplePolicy(samples=5, timeout_ms=5_000.0),
            concurrency=4,
        ).run()
        assert len(report.failures) == 2
        categorized = sum(
            count
            for name, count in registry.snapshot()["counters"].items()
            if name.startswith("campaign.failures.")
        )
        assert categorized == 2
