"""Ablation — the min filter under diurnal relay load.

The stability result (Figures 9/10) holds because Ting's minimum filter
converges on the propagation floor, which does not move when relay
queues swell at peak hours. This bench re-runs a stability-style
experiment against relays whose load follows a 24-hour cycle and
compares two estimators over the same sample traces:

* the min filter (Ting's) — flat across the day;
* a mean-of-samples variant — visibly tracking the load cycle.
"""

import numpy as np

from _config import scaled
from repro.analysis.report import TextTable
from repro.analysis.stats import coefficient_of_variation
from repro.core.sampling import SamplePolicy
from repro.core.ting import TingMeasurer
from repro.testbeds.livetor import LiveTorTestbed
from repro.tor.relay import DiurnalForwardingDelayModel


def test_ablation_min_filter_under_diurnal_load(benchmark, report):
    testbed = LiveTorTestbed.build(seed=92, n_relays=40)
    # Give the measured relays strong day cycles with staggered phases.
    for index, relay in enumerate(testbed.relays):
        relay.forwarding = DiurnalForwardingDelayModel(
            testbed.sim,
            base_load=0.05,
            peak_load=0.85,
            phase_ms=index * 3_600_000.0,
            queue_scale_ms=2.5,
        )
    rng = testbed.streams.get("ablation.pairs")
    pairs = testbed.random_pairs(scaled(4, minimum=3), rng)
    measurer = TingMeasurer(
        testbed.measurement,
        policy=SamplePolicy(samples=scaled(60, minimum=30), interval_ms=3.0),
    )
    rounds = scaled(8, minimum=6)

    def run_experiment():
        min_series = {i: [] for i in range(len(pairs))}
        mean_series = {i: [] for i in range(len(pairs))}
        for round_index in range(rounds):
            target = round_index * 3.0 * 3_600_000.0  # every 3 sim-hours
            if testbed.sim.now < target:
                testbed.sim.run(until=target)
            for i, (a, b) in enumerate(pairs):
                result = measurer.measure_pair(a, b)
                min_series[i].append(result.rtt_clamped_ms)
                mean_estimate = (
                    np.mean(result.circuit_xy.samples_ms)
                    - np.mean(result.circuit_x.samples_ms) / 2.0
                    - np.mean(result.circuit_y.samples_ms) / 2.0
                )
                mean_series[i].append(max(0.0, mean_estimate))
        return min_series, mean_series

    min_series, mean_series = benchmark.pedantic(
        run_experiment, rounds=1, iterations=1
    )

    min_cvs = np.array(
        [coefficient_of_variation(v) for v in min_series.values()]
    )
    mean_cvs = np.array(
        [coefficient_of_variation(v) for v in mean_series.values()]
    )

    table = TextTable(
        f"Ablation: estimator stability over a load cycle "
        f"({len(min_series)} pairs, {rounds} rounds across the day)",
        ["estimator", "median c_v", "max c_v"],
    )
    table.add_row("min filter (Ting)", float(np.median(min_cvs)), float(min_cvs.max()))
    table.add_row("mean of samples", float(np.median(mean_cvs)), float(mean_cvs.max()))
    report(table.render())

    # Shape: the min filter is the stabler estimator under load cycles.
    assert np.median(min_cvs) < np.median(mean_cvs)
    assert np.median(min_cvs) < 0.15
