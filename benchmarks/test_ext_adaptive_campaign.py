"""Adaptive early-stopping campaign guard (``-m benchguard``).

Section 4.4's running-minimum analysis says most probes in a 200-sample
run are spent *after* the estimate has already converged to within 1 ms
of its floor. The adaptive engine turns that observation into a live
stopping rule; this guard pins down the bargain on a full campaign:

* **cost**: the adaptive campaign must send at least
  :data:`PROBE_SAVINGS_FLOOR` x fewer probes than the fixed-cap run, and
* **accuracy**: the pair estimates must stay within the declared 1 ms
  tolerance of the fixed-policy estimate — at the 99th percentile, with
  at most :data:`BEYOND_TOLERANCE_FRAC` of pairs past it and none past
  :data:`GROSS_ERROR_MS`.

Both campaigns run under task isolation with ping-pong pacing, so each
adaptive probe trace is an exact prefix of the fixed trace for the same
task — the accuracy comparison is deterministic, not statistical.
"""

import numpy as np
import pytest

from _config import scaled
from repro.analysis.report import TextTable
from repro.core.parallel import ParallelCampaign
from repro.core.sampling import SamplePolicy
from repro.testbeds.livetor import LiveTorTestbed

#: The acceptance bar: adaptive sends at least this many times fewer
#: probes than the fixed 200-sample policy at matched 1 ms accuracy.
PROBE_SAVINGS_FLOOR = 3.0

#: The declared convergence tolerance (ms); also the accuracy bound.
TOLERANCE_MS = 1.0

#: A later sample undercuts a converged minimum by more than tolerance +
#: debias on ~5 circuits in 10,000, so over 1,770 pairs the largest error
#: is a draw: it passed 1.0 ms at 2 of 9 seeds before the draws were
#: re-pinned and 3 of 6 after (EXPERIMENTS.md, PR 22). The guard bounds
#: the share of pairs past the tolerance instead ...
BEYOND_TOLERANCE_FRAC = 0.005
#: ... and keeps a margin for gross breakage (the largest error seen over
#: those seeds is 1.396 ms).
GROSS_ERROR_MS = 2 * TOLERANCE_MS


@pytest.mark.benchguard
def test_adaptive_campaign_probe_savings_guard(report):
    # Pair circuits stop after ~(patience + a few) samples, so savings
    # are bounded by cap / ~40 on pairs — and legs run at the full cap
    # (SamplePolicy.for_leg), so the n leg runs are pure overhead
    # against the C(n,2) pair runs. Both floors keep the 3x bar
    # reachable at reduced REPRO_SCALE: enough relays that pairs
    # dominate legs, and the full 200-sample cap.
    relays = scaled(60, minimum=20)
    cap = scaled(200, minimum=200)

    def run(policy):
        # A fresh world per run: under task isolation each probe trace is
        # then a pure function of (seed, task key), making the adaptive
        # trace an exact prefix of the fixed one.
        testbed = LiveTorTestbed.build(seed=47, n_relays=relays + 15)
        selected = testbed.random_relays(
            relays, testbed.streams.get("ext.adaptive.pairs")
        )
        campaign = ParallelCampaign(
            testbed.measurement,
            selected,
            policy=policy,
            isolation=testbed.task_isolation(),
        )
        return campaign.run()

    fixed = run(SamplePolicy.serial(samples=cap))
    adaptive = run(SamplePolicy.adaptive_1ms(max_samples=cap))
    assert fixed.matrix.is_complete and adaptive.matrix.is_complete

    fixed_by_pair = {(a, b): rtt for a, b, rtt in fixed.matrix.measured_pairs()}
    errors = [
        abs(rtt - fixed_by_pair[(a, b)])
        for a, b, rtt in adaptive.matrix.measured_pairs()
    ]
    savings = fixed.probes_sent / adaptive.probes_sent
    p99 = float(np.percentile(errors, 99))
    beyond = sum(error > TOLERANCE_MS for error in errors)

    table = TextTable(
        f"Adaptive vs fixed-{cap} campaign ({relays} relays, "
        f"{fixed.pairs_attempted} pairs, isolated ping-pong)",
        ["policy", "probes", "early stops", "probes saved", "p99 err (ms)",
         "max err (ms)", f"> {TOLERANCE_MS:g} ms"],
    )
    table.add_row(f"fixed-{cap}", fixed.probes_sent, fixed.early_stops, 0, 0.0, 0.0, 0)
    table.add_row(
        "adaptive-1ms",
        adaptive.probes_sent,
        adaptive.early_stops,
        adaptive.probes_saved,
        p99,
        max(errors),
        beyond,
    )
    report(
        table.render()
        + f"\nprobe savings {savings:.1f}x at p99 error <= {TOLERANCE_MS:g} ms, "
        f"{beyond} of {len(errors)} pairs beyond it."
    )

    # Cost: the whole point of the adaptive engine.
    assert savings >= PROBE_SAVINGS_FLOOR
    # Accuracy: the pairs stay within the declared tolerance, all but a
    # bounded few, and none by a gross margin.
    assert p99 <= TOLERANCE_MS
    assert beyond <= BEYOND_TOLERANCE_FRAC * len(errors)
    assert max(errors) <= GROSS_ERROR_MS
    # The fixed run never stops early; the adaptive run's pair circuits
    # almost all do (legs are exempt — shared estimates run at full cap).
    assert fixed.early_stops == 0
    assert adaptive.early_stops >= 0.9 * adaptive.pairs_attempted
