"""CPU placement for forked workers.

A forked child inherits its parent's affinity mask *and* the CPU the
parent was running on, and the kernel is in no hurry to migrate it: two
CPU-bound children of one parent can share a core for their whole life
while the next core idles (CPU time = ½ wall in each). The fork-based
pools in this repo (:class:`~repro.core.shard.ShardedCampaign`,
:meth:`~repro.serve.server.QueryServer.batch`) therefore deal the
parent's mask out among their workers, one disjoint share each, and the
child binds itself to its share first thing. Both pools hand work out
dynamically or in equal slices of one batch, so a fixed placement costs
nothing: a worker on a busy CPU simply claims fewer chunks.
"""

from __future__ import annotations

import os


def schedulable_cpus() -> list[int]:
    """CPUs this process may run on, ascending (affinity-aware)."""
    try:
        return sorted(os.sched_getaffinity(0))
    except (AttributeError, OSError):  # pragma: no cover - non-Linux
        return list(range(os.cpu_count() or 1))


def schedulable_cpu_count() -> int:
    """How many CPUs this process may run on (at least 1)."""
    return max(1, len(schedulable_cpus()))


def worker_cpus(index: int, n_workers: int, cpus: list[int]) -> list[int]:
    """Worker ``index``'s share of ``cpus`` among ``n_workers`` workers.

    Shares are disjoint, non-empty and together cover ``cpus`` whenever
    there are at least as many CPUs as workers; past that, workers
    double up round-robin, one CPU each.
    """
    if n_workers > len(cpus):
        return [cpus[index % len(cpus)]]
    return cpus[index::n_workers]


def place_worker(index: int, n_workers: int) -> None:
    """Bind the calling, just-forked worker to its share of the mask.

    Call it in the child only: the mask read here is the one inherited
    from the parent, and the parent's own mask is never touched. A
    platform without ``sched_setaffinity``, or a kernel that refuses the
    call, leaves the worker unplaced rather than failing it.
    """
    try:
        os.sched_setaffinity(0, worker_cpus(index, n_workers, schedulable_cpus()))
    except (AttributeError, OSError):
        pass
