"""Adaptive early stopping: spec, tracker, budget, campaign properties.

The stopping rule itself (:class:`ConvergenceTracker`) is a pure
function of the sample sequence, so its contract is pinned at the trace
level; the campaign-level properties — adaptive estimates stay within
the declared tolerance of the fixed-policy estimates, the merged matrix
is invariant to the shard count — run small isolated campaigns where
every probe trace is deterministic.
"""

import functools

import numpy as np
import pytest

from repro.core.campaign import AllPairsCampaign, ProbeBudget
from repro.core.parallel import ParallelCampaign
from repro.core.sampling import (
    RELATIVE_TOLERANCE_FLOOR_MS,
    AdaptiveSpec,
    ConvergenceTracker,
    SamplePolicy,
    debiased_min_estimate,
    samples_to_within,
)
from repro.core.shard import ShardedCampaign
from repro.core.ting import TingMeasurer
from repro.testbeds.livetor import LiveTorTestbed
from repro.util.errors import MeasurementError


class TestAdaptiveSpec:
    def test_exactly_one_tolerance_required(self):
        with pytest.raises(MeasurementError):
            AdaptiveSpec()
        with pytest.raises(MeasurementError):
            AdaptiveSpec(absolute_ms=1.0, relative=0.05)

    def test_invalid_knobs_rejected(self):
        with pytest.raises(MeasurementError):
            AdaptiveSpec(absolute_ms=-1.0)
        with pytest.raises(MeasurementError):
            AdaptiveSpec(relative=0.0)
        with pytest.raises(MeasurementError):
            AdaptiveSpec(absolute_ms=1.0, min_samples=0)
        with pytest.raises(MeasurementError):
            AdaptiveSpec(absolute_ms=1.0, patience=0)
        with pytest.raises(MeasurementError):
            AdaptiveSpec(absolute_ms=1.0, confirm_k=1)
        with pytest.raises(MeasurementError):
            AdaptiveSpec(absolute_ms=1.0, patience_per_ms=-0.1)
        with pytest.raises(MeasurementError):
            AdaptiveSpec(absolute_ms=1.0, confirm_margin=0.5)
        with pytest.raises(MeasurementError):
            AdaptiveSpec(absolute_ms=1.0, debias=-0.1)

    def test_tolerance_labels(self):
        assert AdaptiveSpec(absolute_ms=1.0).tolerance_label == "1ms"
        assert AdaptiveSpec(relative=0.05).tolerance_label == "5%"

    def test_relative_tolerance_clamped_near_zero(self):
        spec = AdaptiveSpec(relative=0.05)
        assert spec.tolerance_ms(0.0) == RELATIVE_TOLERANCE_FLOOR_MS
        assert spec.tolerance_ms(100.0) == pytest.approx(5.0)

    def test_policy_rejects_min_samples_above_cap(self):
        with pytest.raises(MeasurementError):
            SamplePolicy(
                samples=5, adaptive=AdaptiveSpec(absolute_ms=1.0, min_samples=10)
            )

    def test_adaptive_constructors_default_to_pingpong(self):
        # A paced pipeline running ahead of the replies would have most
        # of the cap on the wire before convergence can fire; the
        # operating points therefore default to the serial loop.
        for policy in (SamplePolicy.adaptive_1ms(), SamplePolicy.adaptive_5pct()):
            assert policy.interval_ms is None
            assert policy.adaptive is not None


class TestExcessCorrection:
    """The remaining-excess debias on early-stopped estimates."""

    def test_zero_at_the_cap_and_when_disabled(self):
        spec = AdaptiveSpec(absolute_ms=1.0, min_samples=10, debias=1.0)
        assert spec.excess_correction_ms(200, 200, 50.0) == 0.0
        off = AdaptiveSpec(absolute_ms=1.0, min_samples=10, debias=0.0)
        assert off.excess_correction_ms(40, 200, 50.0) == 0.0

    def test_full_fraction_at_min_samples(self):
        # A stop right at the floor gets the whole debias fraction of
        # the tolerance; later stops decay logarithmically toward zero.
        spec = AdaptiveSpec(absolute_ms=1.0, min_samples=10, debias=0.8)
        assert spec.excess_correction_ms(10, 200, 50.0) == pytest.approx(0.8)

    def test_logarithmic_shape(self):
        # ln(cap/kept) halves halfway (geometrically) between the
        # min-sample floor and the cap: min 2, cap 200 spans ln(100);
        # kept 20 leaves ln(10) — exactly half the correction.
        spec = AdaptiveSpec(absolute_ms=1.0, min_samples=2, debias=1.0)
        assert spec.excess_correction_ms(20, 200, 50.0) == pytest.approx(0.5)

    def test_clamped_at_one_tolerance(self):
        # However aggressive the knob, the corrected estimate can never
        # undershoot the raw minimum by more than the declared tolerance.
        spec = AdaptiveSpec(absolute_ms=1.0, min_samples=10, debias=5.0)
        assert spec.excess_correction_ms(10, 200, 50.0) == 1.0

    def test_relative_spec_scales_with_the_minimum(self):
        spec = AdaptiveSpec(relative=0.05, min_samples=10, debias=1.0)
        assert spec.excess_correction_ms(10, 200, 100.0) == pytest.approx(5.0)

    def test_debiased_estimate_fixed_policy_is_plain_min(self):
        policy = SamplePolicy.serial(samples=5)
        assert debiased_min_estimate([3.0, 2.0, 4.0], policy) == 2.0

    def test_debiased_estimate_subtracts_correction(self):
        policy = SamplePolicy.adaptive_1ms(
            max_samples=200, min_samples=2, patience=2, debias=1.0
        )
        samples = [10.0, 9.0] * 10  # kept 20 of 200 -> correction 0.5
        assert debiased_min_estimate(samples, policy) == pytest.approx(8.5)

    def test_full_trace_stays_bit_identical_to_fixed(self):
        policy = SamplePolicy.adaptive_1ms(max_samples=4, min_samples=2)
        samples = [10.0, 9.0, 8.0, 7.5]
        assert debiased_min_estimate(samples, policy) == 7.5


class TestConvergenceTracker:
    def _stop_index(self, spec, trace):
        tracker = spec.make_tracker()
        for index, rtt in enumerate(trace):
            if tracker.update(rtt):
                return index + 1
        return None

    def test_never_stops_before_min_samples(self):
        # Property: whatever the trace, the stop index is >= min_samples.
        rng = np.random.default_rng(11)
        for seed in range(5):
            trace = 50.0 + rng.exponential(5.0, size=200)
            for min_samples in (1, 5, 25):
                spec = AdaptiveSpec(
                    absolute_ms=1.0, min_samples=min_samples, patience=1
                )
                stopped = self._stop_index(spec, trace)
                assert stopped is None or stopped >= min_samples

    def test_first_sample_never_stops(self):
        spec = AdaptiveSpec(absolute_ms=100.0, min_samples=1, patience=1)
        assert spec.make_tracker().update(42.0) is False

    def test_constant_trace_stops_at_floor(self):
        spec = AdaptiveSpec(absolute_ms=1.0, min_samples=5, patience=3)
        # Plateau reaches 3 at sample 4, but min_samples holds it to 5.
        assert self._stop_index(spec, [10.0] * 50) == 5

    def test_meaningful_improvement_resets_patience(self):
        spec = AdaptiveSpec(
            absolute_ms=1.0, min_samples=1, patience=3, confirm_k=2
        )
        trace = [100.0, 100.0, 100.0, 50.0, 50.0, 50.0, 50.0]
        # The drop to 50 at sample 4 resets the plateau; stop comes
        # three non-improving samples later.
        assert self._stop_index(spec, trace) == 7

    def test_floor_confirmation_gates_the_plateau(self):
        # Same trace under the default confirm_k=5: at sample 7 the five
        # smallest are [50, 50, 50, 50, 100] — a 12.5 ms mean spacing
        # says the minimum may still be far above its floor, so the
        # plateau alone may not stop the run. A fifth 50 confirms it.
        spec = AdaptiveSpec(absolute_ms=1.0, min_samples=1, patience=3)
        trace = [100.0, 100.0, 100.0, 50.0, 50.0, 50.0, 50.0]
        assert self._stop_index(spec, trace) is None
        assert self._stop_index(spec, trace + [50.0]) == 8

    def test_confirm_margin_tightens_the_gate(self):
        # Five lowest samples spread 0.3 ms apart on average: within the
        # 1 ms tolerance as a point estimate, but not once a 4x safety
        # margin prices in the estimator's bias on gamma-like jitter.
        trace = [10.0, 10.3, 10.6, 10.9, 11.2] + [11.2] * 20
        loose = AdaptiveSpec(absolute_ms=1.0, min_samples=5, patience=3)
        strict = AdaptiveSpec(
            absolute_ms=1.0, min_samples=5, patience=3, confirm_margin=4.0
        )
        assert self._stop_index(loose, trace) is not None
        assert self._stop_index(strict, trace) is None
        # A fresh sample at the floor displaces the 11.2 from the
        # window (spread 1.2 -> 0.9 over five), satisfying the margin.
        confirmed = trace + [10.05]
        assert self._stop_index(strict, confirmed) == len(confirmed)

    def test_staircase_of_sub_tolerance_steps_resets_window(self):
        # Two 0.6 ms drops: neither alone crosses the 1 ms tolerance,
        # but together they do — the window must compare against the
        # minimum at its *start* (a per-step test would sleep through
        # this staircase and stop at sample 8).
        spec = AdaptiveSpec(
            absolute_ms=1.0, min_samples=1, patience=5, confirm_k=2
        )
        trace = [100.0, 100.0, 99.4, 99.4, 98.8] + [98.8] * 10
        # The cumulative 1.2 ms descent at sample 5 re-anchors the
        # window; stop comes five quiet samples later (a per-step test
        # would have stopped at sample 6).
        assert self._stop_index(spec, trace) == 10

    def test_patience_scales_with_running_minimum(self):
        # A 100 ms circuit must sustain a longer quiet window than a
        # 10 ms one: all-floor samples get rarer with path length.
        spec = AdaptiveSpec(
            absolute_ms=1.0,
            min_samples=1,
            patience=2,
            patience_per_ms=0.1,
            confirm_k=2,
        )
        # effective patience 2 + 0.1*10 = 3 -> stop on the 4th sample.
        assert self._stop_index(spec, [10.0] * 30) == 4
        # effective patience 2 + 0.1*100 = 12 -> stop on the 13th.
        assert self._stop_index(spec, [100.0] * 30) == 13

    def test_sub_tolerance_improvements_count_as_plateau(self):
        spec = AdaptiveSpec(absolute_ms=1.0, min_samples=1, patience=4)
        trace = [100.0 - 0.01 * i for i in range(50)]
        # Strictly improving, but never by more than 1 ms: converged.
        assert self._stop_index(spec, trace) == 5

    def test_fixed_count_recovered_when_plateau_never_lasts(self):
        spec = AdaptiveSpec(absolute_ms=1.0, min_samples=1, patience=10)
        trace = [100.0 - 2.0 * i for i in range(10)]
        assert self._stop_index(spec, trace) is None


class TestSamplesToWithinZeroFloor:
    def test_zero_floor_does_not_trivialize_relative_band(self):
        # Regression: a 0.0 ms floor made ``floor * relative == 0`` and
        # declared the very first sample within tolerance.
        assert samples_to_within([5.0, 2.0, 0.0, 0.0], relative=0.05) == 3

    def test_all_zero_trace_converges_immediately(self):
        assert samples_to_within([0.0, 0.0, 0.0], relative=0.05) == 1


class TestProbeBudget:
    def test_full_budget_passes_policy_through(self):
        budget = ProbeBudget(total=1000)
        policy = SamplePolicy.adaptive_1ms(max_samples=200)
        assert budget.policy_for(policy) is policy
        assert budget.degraded_tasks == 0

    def test_tiers_degrade_tolerance_and_cap(self):
        budget = ProbeBudget(total=100)
        policy = SamplePolicy.adaptive_1ms(max_samples=200)
        budget.spend(60)  # 40% remaining -> tolerance x2, cap x0.5
        degraded = budget.policy_for(policy)
        assert degraded.adaptive.absolute_ms == pytest.approx(2.0)
        assert degraded.samples == 100
        assert budget.degraded_tasks == 1

    def test_exhausted_budget_floors_at_min_samples(self):
        budget = ProbeBudget(total=100)
        budget.spend(100)
        assert budget.exhausted
        policy = SamplePolicy.adaptive_1ms(max_samples=200, min_samples=10)
        degraded = budget.policy_for(policy)
        assert degraded.samples == 10
        assert degraded.adaptive.absolute_ms == pytest.approx(8.0)

    def test_fixed_policy_degrades_sample_count_only(self):
        budget = ProbeBudget(total=100)
        budget.spend(80)  # 20% remaining -> cap x0.25
        degraded = budget.policy_for(SamplePolicy(samples=40, interval_ms=2.0))
        assert degraded.samples == 10
        assert degraded.adaptive is None

    def test_budgeted_campaign_completes_with_degraded_pairs(self):
        testbed = LiveTorTestbed.build(seed=9, n_relays=16)
        relays = testbed.random_relays(5, testbed.streams.get("budget.sel"))
        measurer = TingMeasurer(
            testbed.measurement,
            policy=SamplePolicy(samples=20, interval_ms=2.0),
            cache_legs=True,
        )
        budget = ProbeBudget(total=300)
        report = AllPairsCampaign(measurer, relays, budget=budget).run()
        assert report.matrix.is_complete
        assert budget.spent == report.probes_sent
        # 10 pairs at 3x20 probes would cost ~450; the budget forces
        # the tail of the campaign into degraded tiers.
        assert budget.degraded_tasks > 0
        assert report.probes_sent <= 450


SEED = 3
N_RELAYS = 14
FACTORY = functools.partial(LiveTorTestbed.build, seed=SEED, n_relays=N_RELAYS)


def _select(testbed, count, stream):
    return testbed.random_relays(count, testbed.streams.get(stream))


class TestAdaptiveCampaignProperties:
    def _run(self, policy):
        testbed = FACTORY()
        relays = _select(testbed, 5, "adaptive.acc")
        campaign = ParallelCampaign(
            testbed.measurement,
            relays,
            policy=policy,
            isolation=testbed.task_isolation(),
        )
        return campaign.run()

    def test_estimates_within_declared_tolerance_of_fixed(self):
        # Under task isolation with ping-pong pacing, each adaptive
        # probe trace is an exact prefix of the fixed trace for the
        # same task, so this comparison is deterministic.
        fixed = self._run(SamplePolicy.serial(samples=120))
        adaptive = self._run(SamplePolicy.adaptive_1ms(max_samples=120))
        assert fixed.matrix.is_complete and adaptive.matrix.is_complete
        fixed_by_pair = {
            (a, b): rtt for a, b, rtt in fixed.matrix.measured_pairs()
        }
        for a, b, rtt in adaptive.matrix.measured_pairs():
            assert abs(rtt - fixed_by_pair[(a, b)]) <= 1.0
        assert adaptive.probes_sent < fixed.probes_sent
        assert adaptive.early_stops > 0
        assert adaptive.probes_saved == pytest.approx(
            fixed.probes_sent - adaptive.probes_sent, abs=0
        )

    def test_matrix_invariant_to_shard_count(self):
        policy = SamplePolicy.adaptive_1ms(
            max_samples=12, min_samples=3, patience=3
        )
        fingerprints = [
            d.fingerprint for d in _select(FACTORY(), 5, "adaptive.inv")
        ]
        arrays = {}
        saved = {}
        for workers in (1, 2, 4):
            campaign = ShardedCampaign(
                FACTORY, fingerprints, policy=policy, workers=workers,
                force_inline=True, steal_chunk_pairs=3,
            )
            # Inline worker emulation: dispatch is what is under test,
            # not the process pool (same idiom as test_shard.py).
            report = campaign.run()
            assert report.matrix.is_complete
            arrays[workers] = report.matrix.as_array()
            saved[workers] = report.probes_saved
        assert np.array_equal(arrays[1], arrays[2])
        assert np.array_equal(arrays[1], arrays[4])
        # The early stop actually fired in every layout.
        assert all(value > 0 for value in saved.values())


class TestStreamLeakOnProbeFailure:
    def _open_streams(self, host):
        return sum(
            len(circuit.streams) for circuit in host.proxy.circuits.values()
        )

    def test_probe_failure_closes_stream(self, monkeypatch):
        # Regression: a probe call that raises used to leave its echo
        # stream attached to the circuit forever — and, on the callback
        # path, the circuit open too (2 streams, 3 circuits at d3cf574).
        policy = SamplePolicy(samples=3, interval_ms=2.0)

        def boom(*args, **kwargs):
            raise RuntimeError("forced probe failure")

        for scheduler in ("measure_pair", "parallel_run"):
            testbed = LiveTorTestbed.build(seed=5, n_relays=12)
            a, b = _select(testbed, 2, "leak.sel")
            host = testbed.measurement
            monkeypatch.setattr(host.echo_client, "probe_async", boom)
            with pytest.raises(RuntimeError):
                if scheduler == "measure_pair":
                    TingMeasurer(host, policy=policy).measure_pair(a, b)
                else:
                    ParallelCampaign(host, [a, b], policy=policy, concurrency=1).run()
            assert self._open_streams(host) == 0, scheduler
            assert host.proxy.open_circuit_count == 0, scheduler

    def test_async_probe_error_closes_stream(self):
        # Mirror audit for the concurrent path: when probe_async
        # reports an error, CircuitProbe must close the stream before
        # tearing down the circuit.
        testbed = LiveTorTestbed.build(seed=5, n_relays=12)
        relays = _select(testbed, 2, "leak.sel")
        host = testbed.measurement

        def failing_probe_async(stream, samples, on_done, on_error, **kwargs):
            host.echo_client.sim.schedule(
                0.0, lambda: on_error("forced probe failure")
            )

        host.echo_client.probe_async = failing_probe_async
        report = ParallelCampaign(
            host, relays, policy=SamplePolicy(samples=3, interval_ms=2.0)
        ).run()
        assert report.pairs_measured == 0
        assert len(report.failures) == 1
        assert self._open_streams(host) == 0
