"""Health-scoring performance guards (``pytest benchmarks -m benchguard``).

Two budgets pinned here:

* **Scoring scale** — grading a 1,000-relay dataset (half a million
  candidate pairs, tens of thousands of provenance rows) must stay
  under a hard wall ceiling. The scorer is vectorized column reads over
  the provenance log and the matrix's measured entries; a regression
  to per-record Python loops, or back to gathering and scattering n²
  arrays, shows up as a several-fold miss, not a marginal one.
* **Disabled-path overhead** — campaigns that never ask for quality
  scoring must not pay for its existence. The planner's quality axis
  is one ``is None`` branch per plan and ``absorb`` adds one cache-
  invalidation assignment; the guard times those null ops directly and
  asserts their sum stays under 2% of a real plan-and-absorb round.
"""

import time
from types import SimpleNamespace

import numpy as np
import pytest

from _config import scaled
from repro.core.dataset import (
    CampaignDataset,
    PairProvenance,
    ProvenanceLog,
    RttMatrix,
)
from repro.core.planner import CampaignPlanner
from repro.obs.health import health_report

#: Hard ceiling for one full scorecard of the 1,000-relay dataset:
#: 5x the 26 ms it reads here (it was 2.0 s when scoring was dense and
#: read 96 ms).
SCORING_CEILING_S = 0.15
#: Disabled-path (no quality scoring) overhead budget.
OVERHEAD_CEILING = 0.02


def _best_of(rounds: int, run) -> float:
    """Best-of-N wall time: the minimum is the least noisy estimator."""
    return min(run() for _ in range(rounds))


def _thousand_relay_dataset(n_relays: int, measured_pairs: int):
    """A budgeted full-network-scale dataset, built loop-free-ish.

    Coverage mirrors a real budgeted campaign: a few percent of the
    half-million candidate pairs, each with one provenance record, a
    sprinkling of failures, and geo coordinates for the light-time
    check — every scorecard section gets real work.
    """
    nodes = [f"R{i:04d}" for i in range(n_relays)]
    rng = np.random.default_rng(77)
    iu, ju = np.triu_indices(n_relays, k=1)
    picked = np.sort(
        rng.choice(iu.size, size=min(measured_pairs, iu.size), replace=False)
    )
    values = np.full((n_relays, n_relays), np.nan)
    rtts = rng.uniform(20.0, 300.0, picked.size)
    values[iu[picked], ju[picked]] = rtts
    values[ju[picked], iu[picked]] = rtts
    np.fill_diagonal(values, 0.0)
    matrix = RttMatrix.from_array(nodes, values)

    log = ProvenanceLog()
    failed = rng.random(picked.size) < 0.02
    for k, (i, j, rtt, is_fail) in enumerate(
        zip(iu[picked], ju[picked], rtts, failed)
    ):
        if is_fail:
            log.add(
                PairProvenance(
                    x=nodes[i], y=nodes[j], status="failed",
                    failure_category="timeout", retries=2,
                )
            )
        log.add(
            PairProvenance(
                x=nodes[i], y=nodes[j], status="measured", rtt_ms=float(rtt),
                samples_requested=10, samples_kept=int(8 + k % 3),
            )
        )
    geo = {
        node: [float(lat), float(lon)]
        for node, lat, lon in zip(
            nodes,
            rng.uniform(-0.5, 0.5, n_relays),  # ~110 km spread: every
            rng.uniform(9.5, 10.5, n_relays),  # honest RTT clears c
        )
    }
    return CampaignDataset(matrix=matrix, provenance=log, meta={"geo": geo})


@pytest.mark.benchguard
def test_thousand_relay_health_scoring_guard(report):
    """One full scorecard of a 1,000-relay dataset must beat the ceiling."""
    n_relays = scaled(1000, minimum=400)
    measured = scaled(20_000, minimum=4_000)
    dataset = _thousand_relay_dataset(n_relays, measured)

    # refresh=True inside the timed region: the guard prices the full
    # recompute, not a cache hit.
    def time_full() -> float:
        start = time.perf_counter()
        quality = dataset.quality(refresh=True)
        scorecard = health_report(dataset, quality=quality)
        assert scorecard.data["dataset"]["relays"] == n_relays
        assert scorecard.data["quality"]["scored_pairs"] > 0
        return time.perf_counter() - start

    wall_s = _best_of(3, time_full)
    report(
        f"health scorecard, {n_relays} relays / "
        f"{dataset.matrix.num_measured} measured pairs / "
        f"{len(dataset.provenance)} provenance rows: {wall_s * 1000:.0f} ms "
        f"(ceiling {SCORING_CEILING_S * 1000:.0f} ms)"
    )
    assert wall_s < SCORING_CEILING_S


@pytest.mark.benchguard
def test_disabled_quality_overhead_guard(report):
    """The quality axis must cost nothing when nobody asks for it.

    Call-site inventory for a plan-and-absorb round that never touches
    quality scoring: one ``quality=None`` constructor alignment, one
    ``is None`` branch in ``plan()``, one cache-invalidation assignment
    in ``absorb()``. Time those null ops in a tight loop and assert the
    product stays under 2% of the real round's wall time.
    """
    n_relays = scaled(300, minimum=100)
    nodes = [f"R{i:04d}" for i in range(n_relays)]
    rng = np.random.default_rng(5)
    iu, ju = np.triu_indices(n_relays, k=1)
    picked = np.sort(rng.choice(iu.size, size=iu.size // 20, replace=False))
    values = np.full((n_relays, n_relays), np.nan)
    rtts = rng.uniform(20.0, 300.0, picked.size)
    values[iu[picked], ju[picked]] = rtts
    values[ju[picked], iu[picked]] = rtts
    np.fill_diagonal(values, 0.0)
    dataset = CampaignDataset(matrix=RttMatrix.from_array(nodes, values))

    def plan_and_absorb() -> float:
        start = time.perf_counter()
        plan = CampaignPlanner(nodes, dataset=dataset, seed=1).plan(
            budget_pairs=200
        )
        fresh = RttMatrix(nodes)
        for a, b in plan.pairs[:50]:
            fresh.set(a, b, 42.0)
        dataset.absorb(fresh)
        return time.perf_counter() - start

    round_s = _best_of(3, plan_and_absorb)

    n = 200_000
    # What the planner holds for an axis nobody passed.
    axis = SimpleNamespace(reader=None)

    def time_loop(op) -> float:
        start = time.perf_counter()
        for _ in range(n):
            op()
        return time.perf_counter() - start

    def null_branch():
        if axis.reader is not None:
            raise AssertionError

    def cache_drop():
        dataset._quality_cache = None

    per_branch_s = _best_of(3, lambda: time_loop(null_branch)) / n
    per_drop_s = _best_of(3, lambda: time_loop(cache_drop)) / n
    # One alignment + one branch per plan, one assignment per absorb;
    # x10 headroom for call sites this inventory misses.
    null_s = 10 * (2 * per_branch_s + per_drop_s)
    fraction = null_s / round_s
    report(
        f"disabled quality path: (2 branches x {per_branch_s * 1e9:.0f} ns "
        f"+ 1 assignment x {per_drop_s * 1e9:.0f} ns) x10 headroom = "
        f"{null_s * 1e6:.2f} us against a {round_s * 1000:.1f} ms "
        f"plan-and-absorb round ({fraction:.4%} of wall)"
    )
    assert fraction < OVERHEAD_CEILING
