"""CPU placement helper: the mask is dealt out, never lost or doubled."""

import os

import pytest

from repro.util import cpus as cpus_mod
from repro.util.cpus import Phase, place_worker, run_pool, schedulable_cpus, worker_cpus
from repro.util.errors import MeasurementError

MASKS = ([3], [0, 1], [1, 2, 4, 6, 7])


@pytest.mark.parametrize("mask", MASKS, ids=lambda mask: f"{len(mask)}cpu")
@pytest.mark.parametrize("n_workers", (1, 2, 3, 8))
def test_shares_partition_the_mask(mask, n_workers):
    shares = [worker_cpus(i, n_workers, mask) for i in range(n_workers)]
    assert all(shares), "every worker gets at least one CPU"
    dealt = [cpu for share in shares for cpu in share]
    assert set(dealt) == set(mask), "the shares cover the mask"
    if n_workers <= len(mask):
        # Enough CPUs to go round: no CPU is dealt twice.
        assert len(dealt) == len(set(dealt))
    else:
        # Workers double up, one CPU each, round-robin over the mask.
        assert all(len(share) == 1 for share in shares)


def test_schedulable_cpus_is_the_sorted_affinity_mask():
    assert schedulable_cpus() == sorted(os.sched_getaffinity(0))


def test_place_worker_binds_to_its_share(monkeypatch):
    bound = []
    monkeypatch.setattr(cpus_mod, "schedulable_cpus", lambda: [2, 5, 7])
    monkeypatch.setattr(
        os, "sched_setaffinity", lambda pid, mask: bound.append((pid, list(mask)))
    )
    place_worker(1, 2)
    assert bound == [(0, [5])]


def test_place_worker_survives_a_missing_or_refused_call(monkeypatch):
    def refuse(pid, mask):
        raise OSError("EPERM")

    monkeypatch.setattr(os, "sched_setaffinity", refuse)
    place_worker(0, 2)
    monkeypatch.delattr(os, "sched_setaffinity")
    place_worker(0, 2)


def _own_cpus(job, next_task, send):
    return sorted(os.sched_getaffinity(0))


def _names(round_, n):
    return [f"{round_} worker {i}" for i in range(n)]


@pytest.mark.parametrize("n_first, n_second", [(2, 2), (2, 4), (4, 2), (3, 2)])
def test_each_phase_deals_out_the_parents_whole_mask(monkeypatch, n_first, n_second):
    # A 4-CPU mask, one per process: a forked child inherits the stubs
    # and binds only its own copy.
    mask = {0, 1, 2, 3}
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(mask))
    monkeypatch.setattr(
        os, "sched_setaffinity", lambda pid, cpus: (mask.clear(), mask.update(cpus))
    )
    first: list = []
    second = run_pool(
        range(n_first), _names("first", n_first), _own_cpus,
        then=Phase(
            range(n_second), _names("second", n_second), None, first.extend,
            lambda shipped: None,
        ),
    )
    for shares in (first, second):
        # Disjoint shares that together cover the parent's mask, in the
        # second phase as in the first.
        assert sorted(cpu for share in shares for cpu in share) == [0, 1, 2, 3]
    assert mask == {0, 1, 2, 3}, "the parent's mask moved"


def test_a_failure_at_the_barrier_names_the_second_phases_worker():
    def refuse(shipped):
        raise ValueError("bad shipment")

    with pytest.raises(MeasurementError, match="^second worker 0 failed: ValueError"):
        run_pool(
            [0], _names("first", 1), _own_cpus,
            then=Phase([0], _names("second", 1), None, list, refuse),
        )
