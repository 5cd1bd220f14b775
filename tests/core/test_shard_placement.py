"""Forked workers each run on a CPU share of their own.

A fork leaves the child on its parent's CPU with its parent's mask, and
the kernel is slow to spread CPU-bound siblings out — so every forked
worker of the one fork pool, in the leg round, in the pair round and in
``QueryServer.batch``, binds itself to a disjoint share of the parent's
mask first thing. These tests read the affinity *from inside the
children* (through the pool's seam, which the fork-context workers
inherit), check the parent's own mask is never touched, and check that a
platform without ``sched_setaffinity`` — or a kernel that refuses it —
costs nothing but the placement.
"""

import multiprocessing
import os

import numpy as np
import pytest
from conftest import WORKER_NAMES, shard_campaign, worker_fault

from repro.core.dataset import RttMatrix
from repro.serve import MatrixIndex, QueryServer


def _campaign(fingerprints):
    # Single-item chunks: 5 leg chunks and 10 pair chunks, so both
    # rounds fork two workers (no CPU clamp: a 1-CPU runner forks too).
    return shard_campaign(fingerprints, steal_chunk_pairs=1)


def _reporting(seen, worker):
    """Report the child's affinity home, then do the worker's work."""

    def wrap(work):
        def reporting(job, next_task, send):
            seen.put((worker, sorted(os.sched_getaffinity(0))))
            return work(job, next_task, send)

        return reporting

    return wrap


@pytest.mark.parametrize(
    "site", WORKER_NAMES, ids=[site.replace(" ", "_") for site in WORKER_NAMES]
)
def test_children_run_on_disjoint_shares_of_the_parents_mask(
    fingerprints, monkeypatch, site
):
    seen = multiprocessing.get_context("fork").Queue()
    for worker in (0, 1):
        name = WORKER_NAMES[site].format(worker)
        worker_fault(monkeypatch, name, _reporting(seen, worker))
    mask = os.sched_getaffinity(0)
    if site == "serve":
        nodes = [f"N{i}" for i in range(8)]
        values = np.add.outer(np.arange(8.0), np.arange(8.0))
        np.fill_diagonal(values, 0.0)
        server = QueryServer(MatrixIndex.build(RttMatrix.from_array(nodes, values)))
        queries = [{"op": "knn", "x": node, "k": 3} for node in nodes]
        assert server.batch(queries, workers=2) == server.batch(queries)
    else:
        assert _campaign(fingerprints).run().matrix.is_complete
    assert os.sched_getaffinity(0) == mask, "the parent's mask moved"

    shares = dict(seen.get(timeout=10.0) for _ in range(2))
    first, second = set(shares[0]), set(shares[1])
    assert first and second
    assert first <= mask and second <= mask
    if len(mask) >= 2:
        assert not first & second
        assert first | second == mask
    else:
        assert first == second == mask


def _refuse(pid, cpus):
    raise OSError("EPERM")


@pytest.mark.parametrize("refused", (False, True), ids=("missing", "refused"))
def test_campaign_completes_unplaced(fingerprints, monkeypatch, refused):
    placed = _campaign(fingerprints).run().matrix.as_array()
    if refused:
        monkeypatch.setattr(os, "sched_setaffinity", _refuse)
    else:
        monkeypatch.delattr(os, "sched_setaffinity")
    unplaced = _campaign(fingerprints).run()
    assert unplaced.matrix.is_complete
    assert np.array_equal(unplaced.matrix.as_array(), placed)
    assert len(unplaced.shards) == 2
