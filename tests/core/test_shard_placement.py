"""Forked shard workers each run on a CPU share of their own.

A fork leaves the child on its parent's CPU with its parent's mask, and
the kernel is slow to spread CPU-bound siblings out — so every forked
worker, in the leg round and in the pair round, binds itself to a
disjoint share of the parent's mask first thing. These tests read the
affinity *from inside the children* (the fork-context workers inherit a
monkeypatched ``_run_worker``), check the parent's own mask is never
touched, and check that a platform without ``sched_setaffinity`` — or a
kernel that refuses it — costs nothing but the placement.
"""

import functools
import multiprocessing
import os

import numpy as np
import pytest

import repro.core.shard as shard_mod
from repro.core.sampling import SamplePolicy
from repro.core.shard import LEG_ROUND, PAIR_ROUND, ShardedCampaign
from repro.testbeds.livetor import LiveTorTestbed

SEED = 3
N_RELAYS = 14
POLICY = SamplePolicy(samples=3, interval_ms=2.0)
FACTORY = functools.partial(LiveTorTestbed.build, seed=SEED, n_relays=N_RELAYS)


@pytest.fixture(scope="module")
def fingerprints():
    testbed = FACTORY()
    descriptors = testbed.random_relays(5, testbed.streams.get("shard.sel"))
    return [d.fingerprint for d in descriptors]


def _campaign(fingerprints, **kwargs):
    # Single-item chunks: 5 leg chunks and 10 pair chunks, so both
    # rounds fork two workers (no CPU clamp: a 1-CPU runner forks too).
    return ShardedCampaign(
        FACTORY, fingerprints, policy=POLICY, workers=2,
        steal_chunk_pairs=1, **kwargs,
    )


def test_children_run_on_disjoint_shares_of_the_parents_mask(
    fingerprints, monkeypatch
):
    seen = multiprocessing.get_context("fork").Queue()
    real = shard_mod._run_worker

    def reporting(job, **kwargs):
        seen.put((job.round, job.worker, sorted(os.sched_getaffinity(0))))
        return real(job, **kwargs)

    monkeypatch.setattr(shard_mod, "_run_worker", reporting)
    mask = os.sched_getaffinity(0)
    report = _campaign(fingerprints).run()
    assert report.matrix.is_complete
    assert os.sched_getaffinity(0) == mask, "the parent's mask moved"

    shares = {}
    for _ in range(4):
        kind, worker, cpus = seen.get(timeout=10.0)
        shares[kind, worker] = set(cpus)
    assert set(shares) == {
        (kind, worker) for kind in (LEG_ROUND, PAIR_ROUND) for worker in (0, 1)
    }
    for kind in (LEG_ROUND, PAIR_ROUND):
        first, second = shares[kind, 0], shares[kind, 1]
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
