"""CPU placement and the one fork pool for forked workers.

A forked child inherits its parent's affinity mask *and* the CPU the
parent was running on, and the kernel is in no hurry to migrate it: two
CPU-bound children of one parent can share a core for their whole life
while the next core idles (CPU time = ½ wall in each). The fork-based
pools in this repo (:class:`~repro.core.shard.ShardedCampaign`'s leg and
pair rounds, :meth:`~repro.serve.server.QueryServer.batch`) therefore
deal the parent's mask out among their workers, one disjoint share
each, and the child binds itself to its share first thing. Both pools
hand work out dynamically or in equal slices of one batch, so a fixed
placement costs nothing: a worker on a busy CPU simply claims fewer
chunks.

They are one pool: :func:`run_pool` forks, places, collects and notices
death for all three callers, so a worker failure reads the same
whichever of them it hit — ``"<name> failed: …"``, ``"<name> died
without a result (exit code N)"`` or ``"<name> exceeded the Ns deadline
…"``, each a :class:`~repro.util.errors.MeasurementError` that
:func:`~repro.util.errors.categorize_failure` files under ``shard``.
:func:`_pool_child` is the child's entry and the one seam tests inject
worker faults at.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import time
from queue import Empty
from typing import Any, Callable, Sequence

from repro.util.errors import MeasurementError

#: Parent poll cadence: how often liveness, deadline and watch checks run.
POLL_S = 0.05
#: How long a dead worker's queued messages get to drain before the
#: parent declares it died without a result.
DEATH_GRACE_S = 1.0

#: ``work(job, next_task, send)``: one worker's whole life.
Work = Callable[[Any, Callable[[], Any], Callable[[tuple], None]], Any]


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


def _pool_child(
    name: str,
    index: int,
    n_workers: int,
    work: Work,
    job: Any,
    next_task: Callable[[], Any],
    channel: Any,
) -> None:
    """Forked child: place, run ``work``, ship its outcome.

    The result is pickled here, inside the ``try``, so a result that
    does not pickle fails as itself (``PicklingError: …``) rather than
    vanishing in the queue's feeder thread and reading as a clean death.
    Any exception crosses as ``("error", index, "Type: msg")``.
    """
    try:
        place_worker(index, n_workers)
        result = pickle.dumps(
            work(job, next_task, channel.put), pickle.HIGHEST_PROTOCOL
        )
    except BaseException as exc:  # noqa: BLE001 — serialized for the parent
        channel.put(("error", index, f"{type(exc).__name__}: {exc}"))
    else:
        channel.put(("result", index, result))


def _ignore(msg: tuple) -> None:
    pass


def _no_task() -> None:
    return None


def run_pool(
    jobs: Sequence[Any],
    names: Sequence[str],
    work: Work,
    tasks: Sequence[Any] | None = None,
    on_message: Callable[[tuple], None] = _ignore,
    watch: Callable[[set[int], float], None] | None = None,
    deadline_s: float | None = None,
    inline: bool = False,
) -> list[Any]:
    """Run ``work(job, next_task, send)`` once per job; results in job order.

    Forked, each job gets a child that binds itself to its CPU share and
    calls ``work``. With ``tasks``, one shared queue holds them followed
    by one ``None`` sentinel per worker, and ``next_task`` steals the
    next; without, ``next_task`` returns ``None``. ``send`` puts a
    message on the one channel home: the parent routes ``result`` and
    ``error`` by worker slot and hands every other message, in arrival
    order, to ``on_message``. Between messages it checks, every
    :data:`POLL_S`, for a pending worker dead past
    :data:`DEATH_GRACE_S`, for ``deadline_s`` (wall seconds since the
    fork), and calls ``watch(pending_slots, now)``, which may raise.
    ``names[i]`` is how failures name worker ``i``. Whatever happens,
    live children are terminated before they are joined.

    ``inline=True``, or a platform without fork, runs the same ``work``
    in this process, one job after the other, with the deterministic
    deal ``tasks[i::len(jobs)]`` — the steal order a perfectly fair race
    would produce — and ``send`` bound straight to ``on_message``.
    """
    if not inline:
        try:
            ctx = multiprocessing.get_context("fork")
        except ValueError:  # platform without fork
            inline = True
    if inline:
        deal = list(tasks or ())
        return [
            work(job, iter([*deal[i :: len(jobs)], None]).__next__, on_message)
            for i, job in enumerate(jobs)
        ]
    channel = ctx.Queue()
    queue = None
    next_task: Callable[[], Any] = _no_task
    if tasks is not None:
        queue = ctx.Queue()
        for task in [*tasks, *(None for _ in jobs)]:
            queue.put(task)
        next_task = queue.get
    procs = [
        ctx.Process(
            target=_pool_child,
            args=(names[i], i, len(jobs), work, job, next_task, channel),
            daemon=True,
        )
        for i, job in enumerate(jobs)
    ]
    results: dict[int, Any] = {}
    pending = set(range(len(jobs)))

    def route(msg: tuple) -> None:
        kind, index = msg[0], msg[1]
        if kind == "result":
            results[index] = pickle.loads(msg[2])
            pending.discard(index)
        elif kind == "error":
            raise MeasurementError(f"{names[index]} failed: {msg[2]}")
        else:
            on_message(msg)

    dead_since: dict[int, float] = {}
    try:
        for proc in procs:
            proc.start()
        started = time.monotonic()
        while pending:
            now = time.monotonic()
            # A worker the OS killed never sends anything again: notice
            # the corpse (after a short drain grace for a queued result)
            # instead of waiting out the deadline.
            for i in sorted(pending):
                if procs[i].is_alive():
                    dead_since.pop(i, None)
                elif now - dead_since.setdefault(i, now) > DEATH_GRACE_S:
                    raise MeasurementError(
                        f"{names[i]} died without a result "
                        f"(exit code {procs[i].exitcode})"
                    )
            if deadline_s is not None and now - started > deadline_s:
                raise MeasurementError(
                    f"{names[min(pending)]} exceeded the {deadline_s:.1f}s "
                    f"deadline ({len(pending)} worker(s) unfinished)"
                )
            if watch is not None:
                watch(pending, now)
            try:
                route(channel.get(timeout=POLL_S))
            except Empty:
                pass
        # Results are in; drain what trails them.
        while True:
            try:
                route(channel.get_nowait())
            except Empty:
                break
    finally:
        for proc in procs:
            if proc.is_alive():
                proc.terminate()
        for proc in procs:
            if proc.pid is not None:  # a start that failed part-way
                proc.join(timeout=1.0)
        if queue is not None:
            queue.cancel_join_thread()
            queue.close()
        channel.close()
    return [results[i] for i in range(len(jobs))]
