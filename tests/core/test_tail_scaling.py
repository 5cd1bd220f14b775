"""The write-side tail is sized by the measured set, not the network.

What planning, quality scoring and the health scorecard cost beyond the
pairs a dataset actually holds must not depend on how many relays its
matrix spans. The first guard counts exactly (no wall clock): the same
150-pair dataset embedded in 400 and in 4,000 relays yields per-pair
containers of equal length and — once the two things that are *defined*
per candidate slot, coverage of untouched pairs and the tie-breaking
jitter, are switched off — the identical plan. The second bounds what
the cycle allocates at 2,000 relays with ``tracemalloc``: the only
things left that are sized by n² are the planner's per-slot jitter
vector (and the selection's copy of it) and the one ``+inf``-filled work
matrix the TIV detour check reads.
"""

import tracemalloc

import numpy as np

from repro.core.dataset import (
    CampaignDataset,
    PairProvenance,
    ProvenanceLog,
    RttMatrix,
)
from repro.core.planner import CampaignPlanner, PlannerWeights
from repro.obs.health import health_report

MEASURED_PAIRS = 150
#: The embedded dataset only names relays below this index.
CORE_RELAYS = 300


def _embedded_dataset(n_relays: int) -> tuple[list[str], CampaignDataset]:
    """The same 150 pairs (135 measured, 15 failed, 5 re-measured) over
    the first ``CORE_RELAYS`` relays of an ``n_relays`` network."""
    nodes = [f"R{k:05d}" for k in range(n_relays)]
    rng = np.random.default_rng(20)
    matrix, log = RttMatrix(nodes), ProvenanceLog()
    seen = set()
    while len(seen) < MEASURED_PAIRS:
        a, b = (int(v) for v in rng.choice(CORE_RELAYS, size=2, replace=False))
        if (min(a, b), max(a, b)) in seen:
            continue
        seen.add((min(a, b), max(a, b)))
        x, y, k = nodes[a], nodes[b], len(seen)
        if k % 10 == 0:
            log.add(PairProvenance(x=x, y=y, status="failed", failure_category="timeout"))
            continue
        rtt = float(rng.uniform(5.0, 300.0))
        matrix.set(x, y, rtt)
        log.add(
            PairProvenance(
                x=x, y=y, rtt_ms=rtt, samples_requested=8, samples_kept=4 + k % 5,
                retries=k % 3,
            )
        )
        if k % 15 == 0:
            log.add(PairProvenance(x=y, y=x, rtt_ms=rtt, samples_requested=8, samples_kept=8))
    return nodes, CampaignDataset(matrix=matrix, provenance=log)


def _containers(nodes: list[str], dataset: CampaignDataset) -> dict[str, list[int]]:
    """Length of every per-pair container the tail builds."""
    quality = dataset.quality()
    planner = CampaignPlanner(nodes, dataset=dataset, quality=quality)
    return {
        "measured_entries": [len(part) for part in dataset.matrix.measured_entries()],
        "latest_rows": [len(part) for part in dataset.provenance.latest_rows(nodes)],
        "quality_columns": [
            len(quality.pair_i), len(quality.pair_j), len(quality.pair_scores),
            len(quality.pair_ages), *(len(c) for c in quality.pair_components.values()),
        ],
        "planner_touched": [len(part) for part in planner._touched()],
    }


class TestScalingGuard:
    def test_per_pair_containers_are_flat_in_network_size(self):
        small_nodes, small = _embedded_dataset(400)
        large_nodes, large = _embedded_dataset(4000)
        containers = _containers(large_nodes, large)
        assert _containers(small_nodes, small) == containers
        assert containers["measured_entries"] == [135] * 3
        assert set(containers["planner_touched"]) == {MEASURED_PAIRS}
        assert max(max(sizes) for sizes in containers.values()) == MEASURED_PAIRS

    def test_the_same_dataset_gives_the_same_plan(self):
        # Untouched pairs score zero and ties break by walk order, so
        # nothing in the plan is defined per slot: relay for relay the
        # same pairs, in the same order, with the same scores.
        def plan(n_relays):
            nodes, dataset = _embedded_dataset(n_relays)
            return CampaignPlanner(
                nodes,
                dataset=dataset,
                quality=dataset.quality(),
                weights=PlannerWeights(coverage=0.0),
                jitter=0.0,
            ).plan(budget_pairs=60)

        small, large = plan(400), plan(4000)
        assert small.pairs == large.pairs and len(small.pairs) == 60
        assert np.array_equal(small.scores, large.scores)
        assert {**small.breakdown, "unmeasured": 0} == {
            **large.breakdown, "unmeasured": 0
        }
        assert (small.candidates, large.candidates) == (79_800, 7_998_000)

    def test_scorecards_agree_on_everything_but_the_relay_count(self):
        def scorecard(n_relays):
            _, dataset = _embedded_dataset(n_relays)
            data = health_report(dataset).to_dict()
            return data["anomalies"], data["quality"]["worst"], [
                check["status"] for check in data["checks"]
                if check["name"] not in ("coverage", "tiv")
            ]

        assert scorecard(400) == scorecard(4000)


#: Peak traced bytes over plan + quality + health, in units of one n×n
#: float64 matrix. Measured 1.14-1.18 (the TIV work matrix plus a
#: reader's boolean mask; the planner peaks lower, at two n²/2 vectors);
#: the dense tail this replaced read 12.8 on the same cycle.
ALLOCATION_CEILING_MATRICES = 3.0


def test_the_cycle_allocates_a_bounded_number_of_matrices(capsys):
    n_relays = 2000
    nodes, dataset = _embedded_dataset(n_relays)
    one_matrix = n_relays * n_relays * 8

    tracemalloc.start()
    try:
        cold = CampaignPlanner(nodes, seed=1).plan(budget_pairs=100)
        quality = dataset.quality(refresh=True)
        refresh = CampaignPlanner(
            nodes, dataset=dataset, seed=2, quality=quality
        ).plan(budget_pairs=50)
        report = health_report(dataset)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()

    assert len(cold.pairs) == 100 and len(refresh.pairs) == 50
    assert report.to_dict()["dataset"]["measured"] == 135
    with capsys.disabled():
        print(
            f"\n  tail allocation at {n_relays} relays: peak "
            f"{peak / one_matrix:.2f} x n^2 x 8 bytes "
            f"(ceiling {ALLOCATION_CEILING_MATRICES:g}; the dense tail read 12.8)"
        )
    assert peak <= ALLOCATION_CEILING_MATRICES * one_matrix
