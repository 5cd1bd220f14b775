"""Tests for all-pairs and stability campaigns."""

import numpy as np
import pytest

from repro.core.campaign import AllPairsCampaign, PairTimeSeries, StabilityCampaign
from repro.core.sampling import SamplePolicy
from repro.core.ting import TingMeasurer
from repro.util.errors import MeasurementError

FAST = SamplePolicy(samples=15, interval_ms=2.0)


class TestAllPairsCampaign:
    def test_full_matrix_produced(self, mini_world):
        measurer = TingMeasurer(mini_world.measurement, policy=FAST, cache_legs=True)
        relays = [r.descriptor() for r in mini_world.relays[:3]]
        report = AllPairsCampaign(measurer, relays).run()
        assert report.matrix.is_complete
        assert report.pairs_measured == 3
        assert report.failures == []

    def test_matrix_values_close_to_oracle(self, mini_world):
        measurer = TingMeasurer(mini_world.measurement, policy=FAST, cache_legs=True)
        relays = [r.descriptor() for r in mini_world.relays[:3]]
        report = AllPairsCampaign(measurer, relays).run()
        for a, b, rtt in report.matrix.measured_pairs():
            oracle = mini_world.latency.true_rtt_ms(
                mini_world.topology.host_by_address(
                    mini_world.consensus.get(a).address
                ),
                mini_world.topology.host_by_address(
                    mini_world.consensus.get(b).address
                ),
            )
            assert rtt == pytest.approx(oracle, rel=0.35, abs=10.0)

    def test_randomized_order_changes_nothing_material(self, mini_world):
        measurer = TingMeasurer(mini_world.measurement, policy=FAST, cache_legs=True)
        relays = [r.descriptor() for r in mini_world.relays[:3]]
        report = AllPairsCampaign(
            measurer, relays, rng=np.random.default_rng(0)
        ).run()
        assert report.matrix.is_complete

    def test_failed_pair_recorded_not_fatal(self, mini_world):
        measurer = TingMeasurer(mini_world.measurement, policy=FAST)
        relays = [r.descriptor() for r in mini_world.relays[:3]]
        mini_world.relays[2].shutdown()
        campaign = AllPairsCampaign(
            measurer,
            relays,
            policy=SamplePolicy(samples=5, timeout_ms=5000.0),
        )
        report = campaign.run()
        assert len(report.failures) == 2  # both pairs involving relay 2
        assert report.matrix.has(relays[0].fingerprint, relays[1].fingerprint)

    def test_max_failures_aborts(self, mini_world):
        measurer = TingMeasurer(mini_world.measurement, policy=FAST)
        relays = [r.descriptor() for r in mini_world.relays[:3]]
        mini_world.relays[2].shutdown()
        campaign = AllPairsCampaign(
            measurer,
            relays,
            policy=SamplePolicy(samples=5, timeout_ms=5000.0),
            max_failures=0,
        )
        with pytest.raises(MeasurementError):
            campaign.run()

    def test_retry_rounds_track_cumulative_failures(self, mini_world):
        host = mini_world.measurement
        registry = host.enable_observability()
        measurer = TingMeasurer(host, policy=FAST)
        relays = [r.descriptor() for r in mini_world.relays[:3]]
        mini_world.relays[2].shutdown()
        report = AllPairsCampaign(
            measurer,
            relays,
            policy=SamplePolicy(samples=5, timeout_ms=5000.0),
            retries=1,
            retry_delay_ms=1_000.0,
        ).run()
        # The dead relay fails both its pairs in both rounds: four failed
        # attempts total, two pairs still unmeasured at the end.
        assert report.failures_total == 4
        assert len(report.failures) == 2
        assert registry.counter("campaign.retry_rounds") == 1
        categorized = sum(
            count
            for name, count in registry.snapshot()["counters"].items()
            if name.startswith("campaign.failures.")
        )
        assert categorized == 4

    @pytest.mark.parametrize("retries", [0, 1])
    def test_a_failed_row_is_its_last_attempt(self, mini_world, retries):
        # Was: duration_ms=0.0 in every failed row this campaign wrote.
        host = mini_world.measurement
        host.enable_observability()
        relays = [r.descriptor() for r in mini_world.relays[:3]]
        mini_world.relays[2].shutdown()
        AllPairsCampaign(
            TingMeasurer(host, policy=FAST),
            relays,
            policy=SamplePolicy(samples=5, timeout_ms=5000.0),
            retries=retries,
            retry_delay_ms=1_000.0,
        ).run()
        failed = host.provenance.by_status("failed")
        assert len(failed) == 2 and len(host.provenance) == 3
        assert all(row.duration_ms > 0 for row in failed)
        assert [row.retries for row in failed] == [retries, retries]

    def test_max_failures_budget_survives_retry_pruning(self, mini_world):
        # The regression: pruning retried pairs from report.failures used
        # to reset the abort budget each round, so a permanently-dead
        # relay could fail forever without tripping max_failures.
        measurer = TingMeasurer(mini_world.measurement, policy=FAST)
        relays = [r.descriptor() for r in mini_world.relays[:3]]
        mini_world.relays[2].shutdown()
        campaign = AllPairsCampaign(
            measurer,
            relays,
            policy=SamplePolicy(samples=5, timeout_ms=5000.0),
            max_failures=3,
            retries=2,
            retry_delay_ms=1_000.0,
        )
        # Round 1 contributes 2 failures (under budget); the first retry
        # round pushes the cumulative count past 3 and must abort.
        with pytest.raises(MeasurementError, match="aborted after 4 failures"):
            campaign.run()

    def test_too_few_relays_rejected(self, mini_world):
        measurer = TingMeasurer(mini_world.measurement, policy=FAST)
        with pytest.raises(MeasurementError):
            AllPairsCampaign(measurer, [mini_world.relays[0].descriptor()])

    def test_duplicate_relays_rejected(self, mini_world):
        measurer = TingMeasurer(mini_world.measurement, policy=FAST)
        d = mini_world.relays[0].descriptor()
        with pytest.raises(MeasurementError):
            AllPairsCampaign(measurer, [d, d])


class TestStabilityCampaign:
    def test_series_collected_per_round(self, mini_world):
        measurer = TingMeasurer(mini_world.measurement, policy=FAST)
        pairs = [(mini_world.relays[0].descriptor(), mini_world.relays[1].descriptor())]
        series = StabilityCampaign(
            measurer, pairs, interval_ms=60_000.0, rounds=4
        ).run()
        assert len(series) == 1
        assert len(series[0].rtts_ms) == 4

    def test_rounds_spaced_by_interval(self, mini_world):
        measurer = TingMeasurer(mini_world.measurement, policy=FAST)
        pairs = [(mini_world.relays[0].descriptor(), mini_world.relays[1].descriptor())]
        series = StabilityCampaign(
            measurer, pairs, interval_ms=60_000.0, rounds=3
        ).run()
        times = series[0].times_ms
        assert times[1] - times[0] >= 30_000.0

    def test_low_cv_for_stable_pair(self, mini_world):
        measurer = TingMeasurer(mini_world.measurement, policy=FAST)
        pairs = [(mini_world.relays[0].descriptor(), mini_world.relays[1].descriptor())]
        series = StabilityCampaign(
            measurer, pairs, interval_ms=10_000.0, rounds=5
        ).run()
        # The simulated floor doesn't drift: c_v should be near zero
        # (Figure 9: over 50% of pairs have c_v ~ 0).
        assert series[0].coefficient_of_variation() < 0.2

    def test_validation(self, mini_world):
        measurer = TingMeasurer(mini_world.measurement, policy=FAST)
        with pytest.raises(MeasurementError):
            StabilityCampaign(measurer, [], rounds=3)
        pairs = [(mini_world.relays[0].descriptor(), mini_world.relays[1].descriptor())]
        with pytest.raises(MeasurementError):
            StabilityCampaign(measurer, pairs, rounds=1)


class TestPairTimeSeries:
    def test_cv_computation(self):
        series = PairTimeSeries("A", "B", rtts_ms=[100.0, 110.0, 90.0])
        expected = np.std([100, 110, 90]) / np.mean([100, 110, 90])
        assert series.coefficient_of_variation() == pytest.approx(expected)

    def test_cv_requires_two_points(self):
        series = PairTimeSeries("A", "B", rtts_ms=[100.0])
        with pytest.raises(MeasurementError):
            series.coefficient_of_variation()

    def test_box_stats(self):
        series = PairTimeSeries("A", "B", rtts_ms=[10.0] * 10 + [100.0])
        stats = series.box_stats()
        assert stats["median"] == 10.0
        assert stats["outliers"] == 1

    def test_box_stats_empty_rejected(self):
        with pytest.raises(MeasurementError):
            PairTimeSeries("A", "B").box_stats()
