"""CPU placement and the one fork pool for forked workers.

A forked child inherits its parent's affinity mask *and* the CPU the
parent was running on, and the kernel is in no hurry to migrate it: two
CPU-bound children of one parent can share a core for their whole life
while the next core idles (CPU time = ½ wall in each). The fork-based
pools in this repo (:class:`~repro.core.shard.ShardedCampaign`'s run,
:meth:`~repro.serve.server.QueryServer.batch`) therefore deal the
parent's mask out among their workers, one disjoint share each, and the
child binds itself to its share first thing. Both pools hand work out
dynamically or in equal slices of one batch, so a fixed placement costs
nothing: a worker on a busy CPU simply claims fewer chunks.

They are one pool: :func:`run_pool` forks, places, collects and notices
death for both callers, so a worker failure reads the same whichever of
them it hit — ``"<name> failed: …"``, ``"<name> died without a result
(exit code N)"`` or ``"<name> exceeded the Ns deadline …"``, each a
:class:`~repro.util.errors.MeasurementError` that
:func:`~repro.util.errors.categorize_failure` files under ``shard``.
A pool may run a second :class:`Phase` on the same children, past a
barrier. Every message carries its sender's slot second, so the pool
alone keeps the one silence clock, per worker and per phase (a child
parked at the barrier is in neither): ``silence_s`` fails a pending
worker that sent nothing for that long with a :class:`WorkerSilence`.
:func:`_pool_child` is the child's entry into each phase and the one
seam tests inject worker faults at.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import time
from queue import Empty
from typing import Any, Callable, NamedTuple, Sequence

from repro.util.errors import MeasurementError

#: Parent poll cadence: how often liveness, deadline and silence checks run.
POLL_S = 0.05
#: How long a dead worker's queued messages get to drain before the
#: parent declares it died without a result.
DEATH_GRACE_S = 1.0

#: ``work(job, next_task, send)``: one worker's whole life.
Work = Callable[[Any, Callable[[], Any], Callable[[tuple], None]], Any]


class WorkerSilence(MeasurementError):
    """Worker ``slot`` of ``phase`` sent nothing for ``age_s``, past ``silence_s``."""

    def __init__(self, message: str, slot: int, age_s: float, phase: int) -> None:
        super().__init__(message)
        self.slot, self.age_s, self.phase = slot, age_s, phase


class Phase(NamedTuple):
    """A second :func:`run_pool` phase on the first phase's children: at
    the barrier the parent's ``ship(first results)`` crosses, pickled
    once, to every child's ``receive`` before its ``jobs[slot]`` runs."""

    jobs: Sequence[Any]
    names: Sequence[str]
    tasks: Sequence[Any] | None
    ship: Callable[[list[Any]], Any]
    receive: Callable[[Any], None]


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


def place_worker(index: int, n_workers: int, cpus: list[int] | None = None) -> None:
    """Bind the calling, just-forked worker to its share of ``cpus`` (its mask).

    Call it in the child only: the mask read here is the one inherited
    from the parent, and the parent's own mask is never touched. A
    platform without ``sched_setaffinity``, or a kernel that refuses the
    call, leaves the worker unplaced rather than failing it.
    """
    share = worker_cpus(index, n_workers, cpus or schedulable_cpus())
    try:
        os.sched_setaffinity(0, share)
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

    Every message (each ``send``, the result) is pickled here, inside
    the ``try``, so one that does not pickle fails as itself
    (``PicklingError: …``) rather than vanishing in the queue's feeder
    thread — a campaign silently short of a chunk, a result read as a
    clean death. Any exception crosses as ``("error", index, "Type: msg")``.
    """

    def send(msg: tuple) -> None:
        channel.put(pickle.dumps(msg, pickle.HIGHEST_PROTOCOL))

    try:
        place_worker(index, n_workers)
        send(("result", index, work(job, next_task, send)))
    except BaseException as exc:  # noqa: BLE001 — serialized for the parent
        send(("error", index, f"{type(exc).__name__}: {exc}"))


def _pool_phases(
    index: int, phases: list, work: Work, channel: Any, barrier: Any, then: Any
) -> None:
    """Forked child ``index``: its job of each phase, the barrier between.

    A later phase waits at the barrier before any job of it can claim a
    task, restores the inherited mask for :func:`_pool_child` to deal
    out afresh, and takes the shipment inside the seam's ``try``.
    """

    def received(job: Any, next_task: Any, send: Any) -> Any:
        then.receive(pickle.loads(shipped))
        return work(job, next_task, send)

    inherited, shipped = schedulable_cpus(), b""
    for phase, (jobs, names, next_task) in enumerate(phases):
        if index < len(jobs):
            if phase:
                shipped = barrier.get()
                place_worker(0, 1, inherited)
            run = received if phase else work
            job = jobs[index]
            _pool_child(names[index], index, len(jobs), run, job, next_task, channel)


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
    silence_s: float | None = None,
    deadline_s: float | None = None,
    inline: bool = False,
    then: Phase | None = None,
) -> list[Any]:
    """Run ``work(job, next_task, send)`` once per job; results in job order.

    Forked, each job gets a child that binds itself to its CPU share and
    calls ``work``. With ``tasks``, one shared queue holds them followed
    by one ``None`` sentinel per worker, and ``next_task`` steals the
    next; without, ``next_task`` returns ``None``. ``send`` puts a
    message ``(kind, slot, ...)`` on the one channel home: the parent
    notes when it last heard from ``slot``, routes ``result`` and
    ``error`` by it and hands every other message, in arrival order, to
    ``on_message``. Between messages it checks, every :data:`POLL_S`,
    for a pending worker dead past :data:`DEATH_GRACE_S`, for
    ``deadline_s`` (wall seconds since the phase began) and for a
    pending worker silent for ``silence_s`` (since the phase began or
    its last message), which raises :class:`WorkerSilence`. ``names[i]``
    is how failures name worker ``i``. Whatever happens, live children
    are terminated before they are joined. With ``then`` the same
    ``max(len(jobs), len(then.jobs))`` children run both phases, and
    the result is the second phase's.

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
    phases = [(jobs, names, tasks)]
    if then is not None:
        phases.append((then.jobs, then.names, then.tasks))
    results: list[Any] = []
    if inline:
        for phase, (phase_jobs, _, phase_tasks) in enumerate(phases):
            if phase:
                then.receive(then.ship(results))
            deal, n = list(phase_tasks or ()), len(phase_jobs)
            results = [
                work(job, iter([*deal[i::n], None]).__next__, on_message)
                for i, job in enumerate(phase_jobs)
            ]
        return results
    channel = ctx.Queue()
    queue = ctx.Queue() if any(phase[2] is not None for phase in phases) else None
    barrier = ctx.Queue() if then is not None else None
    child_phases = [
        (phase_jobs, phase_names, _no_task if phase_tasks is None else queue.get)
        for phase_jobs, phase_names, phase_tasks in phases
    ]
    procs = [
        ctx.Process(
            target=_pool_phases,
            args=(i, child_phases, work, channel, barrier, then),
            daemon=True,
        )
        for i in range(max(len(phase_jobs) for phase_jobs, _, _ in phases))
    ]

    def collect(phase: int, names: Sequence[str]) -> list[Any]:
        results: dict[int, Any] = {}
        pending = set(range(len(names)))
        heard: dict[int, float] = {}
        dead_since: dict[int, float] = {}
        started = time.monotonic()

        def route(pickled: bytes) -> None:
            msg = pickle.loads(pickled)
            kind, index = msg[0], msg[1]
            heard[index] = time.monotonic()
            if kind == "result":
                results[index] = msg[2]
                pending.discard(index)
            elif kind == "error":
                raise MeasurementError(f"{names[index]} failed: {msg[2]}")
            else:
                on_message(msg)

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
            if silence_s is not None:
                age, i = max((now - heard.get(i, started), i) for i in pending)
                if age > silence_s:
                    raise WorkerSilence(
                        f"{names[i]} exceeded the {silence_s:.1f}s deadline "
                        f"between messages ({age:.1f}s silent)",
                        i,
                        age,
                        phase,
                    )
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
        return [results[i] for i in range(len(names))]

    try:
        for proc in procs:
            proc.start()
        for phase, (phase_jobs, phase_names, phase_tasks) in enumerate(phases):
            if phase:
                shipped = pickle.dumps(then.ship(results), pickle.HIGHEST_PROTOCOL)
                for _ in procs:
                    barrier.put(shipped)
            if phase_tasks is not None:
                for task in [*phase_tasks, *(None for _ in phase_jobs)]:
                    queue.put(task)
            results = collect(phase, phase_names)
    finally:
        for proc in procs:
            if proc.is_alive():
                proc.terminate()
        for proc in procs:
            if proc.pid is not None:  # a start that failed part-way
                proc.join(timeout=1.0)
        for pipe in (queue, barrier):
            if pipe is not None:
                pipe.cancel_join_thread()
                pipe.close()
        channel.close()
    return results
