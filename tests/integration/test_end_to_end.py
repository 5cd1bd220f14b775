"""End-to-end integration: the full Ting pipeline on real testbeds."""

import numpy as np
import pytest

from repro.analysis.stats import fraction_within, spearman_rank_correlation
from repro.apps.deanon import DeanonymizationSimulator
from repro.apps.tiv import tiv_summary
from repro.core.campaign import AllPairsCampaign
from repro.core.sampling import SamplePolicy
from repro.core.ting import TingMeasurer
from repro.testbeds.planetlab import PlanetLabTestbed

FAST = SamplePolicy(samples=60, interval_ms=2.0)


@pytest.fixture(scope="module")
def validation_run():
    """One small Figure-3-style validation: Ting vs ping on all pairs."""
    testbed = PlanetLabTestbed.build(seed=21, n_relays=8)
    measurer = TingMeasurer(testbed.measurement, policy=FAST)
    estimates, pings, oracles = [], [], []
    for a, b in testbed.relay_pairs():
        result = measurer.measure_pair(a, b)
        estimates.append(result.rtt_ms)
        pings.append(testbed.ping_ground_truth(a, b, count=60))
        oracles.append(testbed.oracle_rtt(a, b))
    return testbed, np.array(estimates), np.array(pings), np.array(oracles)


class TestTingValidation:
    def test_majority_within_ten_percent_of_oracle(self, validation_run):
        _, estimates, _, oracles = validation_run
        assert fraction_within(estimates, oracles, 0.10) >= 0.75

    def test_rank_order_preserved(self, validation_run):
        # The paper's Spearman 0.997 against ping ground truth.
        _, estimates, pings, _ = validation_run
        assert spearman_rank_correlation(estimates, pings) > 0.95

    def test_no_systematic_skew(self, validation_run):
        _, estimates, pings, _ = validation_run
        ratios = estimates / pings
        assert np.median(ratios) == pytest.approx(1.0, abs=0.08)

    def test_estimates_never_wildly_negative(self, validation_run):
        _, estimates, _, _ = validation_run
        assert (estimates > -5.0).all()


class TestCampaignToApplications:
    @pytest.fixture(scope="class")
    def measured_matrix(self):
        testbed = PlanetLabTestbed.build(seed=31, n_relays=7)
        measurer = TingMeasurer(
            testbed.measurement,
            policy=SamplePolicy(samples=40, interval_ms=2.0),
            cache_legs=True,
        )
        relays = [r.descriptor() for r in testbed.relays]
        report = AllPairsCampaign(
            measurer, relays, rng=np.random.default_rng(0)
        ).run()
        assert report.matrix.is_complete
        return report.matrix

    def test_matrix_feeds_tiv_analysis(self, measured_matrix):
        summary = tiv_summary(measured_matrix)
        assert 0.0 <= summary["tiv_fraction"] <= 1.0

    def test_matrix_feeds_deanonymization(self, measured_matrix):
        sim = DeanonymizationSimulator(measured_matrix, np.random.default_rng(0))
        result = sim.run("informed", sim.sample_scenario())
        assert result.found_entry and result.found_middle

    def test_matrix_round_trips_through_disk(self, measured_matrix, tmp_path):
        from repro.core.dataset import CampaignDataset

        path = tmp_path / "campaign.npz"
        CampaignDataset(matrix=measured_matrix).save(path)
        restored = CampaignDataset.load(path).matrix
        assert restored.is_complete
        assert restored.mean_rtt_ms() == pytest.approx(
            measured_matrix.mean_rtt_ms()
        )


class TestMeasurementCost:
    def test_fast_policy_under_15_simulated_seconds(self):
        # Section 4.4: with a 5% error budget, a pair takes <15 s.
        testbed = PlanetLabTestbed.build(seed=41, n_relays=4)
        measurer = TingMeasurer(testbed.measurement, policy=SamplePolicy.fast())
        a, b = testbed.relay_pairs()[0]
        result = measurer.measure_pair(a, b)
        assert result.duration_ms < 15_000.0

    def test_more_samples_cost_more_time(self):
        testbed = PlanetLabTestbed.build(seed=41, n_relays=4)
        measurer = TingMeasurer(testbed.measurement)
        a, b = testbed.relay_pairs()[0]
        fast = measurer.measure_pair(a, b, policy=SamplePolicy(samples=10))
        slow = measurer.measure_pair(a, b, policy=SamplePolicy(samples=100))
        assert slow.duration_ms > fast.duration_ms
