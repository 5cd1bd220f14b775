"""Concurrent all-pairs campaigns: many Ting measurements in flight.

Section 4.6 notes that "an all-pairs matrix can be time-consuming to
calculate". Sequential measurement of n relays costs
``C(n,2) + n`` circuit-measurements end to end; but the measurements are
independent, so a client can keep several circuits open and probe them
concurrently, dividing the campaign's *makespan* by (almost) the
concurrency level. Relay load from the extra simultaneous circuits is
negligible next to ambient traffic (each probe stream is a few cells per
second).

:class:`ParallelCampaign` is the concurrent scheduler of the pair state
machine in :mod:`repro.core.ting`: it *prefetches* every relay's leg
(each ``C_x`` is measured exactly once and shared), runs pair tasks
through a bounded worker pool, and assembles the same
:class:`~repro.core.dataset.RttMatrix` as
:class:`~repro.core.campaign.AllPairsCampaign`.

With a :class:`TaskIsolation` attached the campaign instead runs its
tasks strictly one at a time, each from a clock restarted at zero, on
draws keyed by the task, over connections of its own that it tears down
itself. Each task's result — value, event count, provenance row — then
depends only on ``(root seed, task key)``, not on which tasks ran before
it in this process, which is what lets
:class:`~repro.core.shard.ShardedCampaign` split the pair list across
worker processes and still merge a matrix that is equal, bit for bit,
whatever the shard count.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

from repro.core.campaign import ProbeBudget
from repro.core.dataset import RttMatrix
from repro.core.measurement_host import MeasurementHost
from repro.core.sampling import SamplePolicy
from repro.core.ting import (
    CircuitMeasurement,
    PairRecorder,
    PairTask,
    TingEngine,
    run_to_completion,
)
from repro.obs import CAMPAIGN_SPAN
from repro.tor.directory import RelayDescriptor
from repro.netsim.engine import Simulator
from repro.util.errors import MeasurementError
from repro.util.rng import DrawSource
from repro.util.units import Milliseconds

@dataclass(frozen=True)
class TaskIsolation:
    """Recipe for making each measurement task a function of its key alone.

    ``sim`` is the world's simulator and ``draws`` its per-packet draw
    source; ``reset`` closes every connection the last task opened;
    ``forget_clock`` clears what else holds an absolute time across a
    task boundary (service queues, cooldowns). Testbeds construct this —
    see ``LiveTorTestbed.task_isolation``.
    """

    sim: Simulator
    draws: DrawSource
    reset: Callable[[], None]
    forget_clock: Callable[[], None]

    def begin(self, task_key: str) -> None:
        """Start a task: the clock at zero (the simulator must be idle —
        :meth:`finish` leaves it so) and every draw keyed by ``task_key``."""
        self.sim.restart_clock()
        self.draws.begin(task_key)

    def finish(self) -> None:
        """End a task: let its circuit teardowns reach every hop, close
        the connections it opened, drain the closes — so that all of
        those events are the task's own and nothing crosses into the next
        one — then drop the absolute times left behind."""
        self.sim.run(max_events=10_000_000)
        self.reset()
        self.sim.run(max_events=10_000_000)
        self.forget_clock()


@dataclass
class ParallelReport:
    """Outcome of one concurrent campaign."""

    matrix: RttMatrix
    pairs_attempted: int = 0
    pairs_measured: int = 0
    failures: list[tuple[str, str, str]] = field(default_factory=list)
    makespan_ms: Milliseconds = 0.0
    peak_concurrency: int = 0
    #: Echo probes actually sent across every circuit (legs + pairs).
    probes_sent: int = 0
    #: Probes an adaptive policy's convergence rule avoided sending.
    probes_saved: int = 0
    #: Probe rounds that terminated on convergence rather than the cap.
    early_stops: int = 0
    #: Leg circuits this campaign actually built (attempted), as opposed
    #: to legs satisfied by pre-warmed estimates. Ting's decomposition
    #: needs exactly n of these per campaign, however the pair work is
    #: distributed — shard workers running behind a leg phase assert 0.
    legs_measured: int = 0


class ParallelCampaign:
    """Measures all pairs with up to ``concurrency`` circuits in flight."""

    def __init__(
        self,
        host: MeasurementHost,
        relays: list[RelayDescriptor],
        policy: SamplePolicy | None = None,
        concurrency: int = 8,
        pairs: Sequence[tuple[str, str]] | None = None,
        isolation: TaskIsolation | None = None,
        budget: ProbeBudget | None = None,
        legs: Sequence[str] | None = None,
        leg_estimates: dict[str, float] | None = None,
        leg_failures: dict[str, str] | None = None,
    ) -> None:
        if len(relays) < 2:
            raise MeasurementError("need at least two relays for a campaign")
        fingerprints = [r.fingerprint for r in relays]
        if len(set(fingerprints)) != len(fingerprints):
            raise MeasurementError("duplicate relays in campaign set")
        if concurrency < 1:
            raise MeasurementError("concurrency must be >= 1")
        #: Campaign node order, by fingerprint; also the membership test.
        self._rank = {fp: rank for rank, fp in enumerate(fingerprints)}
        if pairs is not None:
            self._check_pairs(pairs)
        for name, mapping in (("legs", legs), ("leg_estimates", leg_estimates),
                              ("leg_failures", leg_failures)):
            for fp in mapping or ():
                if fp not in self._rank:
                    raise MeasurementError(f"unknown relay {fp!r} in {name}")
        self.host = host
        self.relays = list(relays)
        self.policy = policy or SamplePolicy.high_accuracy()
        self.concurrency = concurrency
        #: Explicit pair subset (a shard); ``None`` means all C(n,2).
        self.pairs = list(pairs) if pairs is not None else None
        #: Explicit leg task list. ``None`` derives legs from the pair
        #: scope (every touched relay); a sharded campaign's workers
        #: pass ``pairs=[]`` and ``legs=[]`` and are fed chunk by chunk
        #: through :meth:`run_legs` / :meth:`run_pairs` instead.
        self.legs = list(legs) if legs is not None else None
        #: When set, tasks run serially with per-task RNG/connection
        #: isolation; ``concurrency`` is ignored.
        self.isolation = isolation
        #: Optional campaign-wide probe cap. Each task launch re-resolves
        #: its policy through the budget, so tolerance degrades as the
        #: budget drains. Mutually honest with isolation (still
        #: deterministic) but not shard-invariant — ShardedCampaign
        #: never passes one.
        self.budget = budget
        self._world_taken_over = False
        self._engine = engine = TingEngine(host, budget=budget)
        # Pre-warmed estimates (a sharded campaign's leg round) are
        # read-only inputs: tasks for them are never scheduled.
        for fp, estimate in (leg_estimates or {}).items():
            engine.legs[fp] = CircuitMeasurement(
                (engine.w, fp, engine.z), [], estimate_ms=estimate
            )
        engine.leg_failures.update(leg_failures or {})

    # ------------------------------------------------------------------

    @property
    def leg_estimates(self) -> dict[str, float]:
        """Every known leg estimate (pre-warmed and measured), by relay."""
        return {fp: leg.estimate_ms for fp, leg in self._engine.legs.items()}

    @property
    def leg_failures(self) -> dict[str, str]:
        """Every known leg failure reason, by relay."""
        return dict(self._engine.leg_failures)

    def _check_pairs(self, pairs: Iterable[tuple[str, str]]) -> None:
        for a, b in pairs:
            if a == b or a not in self._rank or b not in self._rank:
                raise MeasurementError(f"invalid campaign pair ({a}, {b})")

    def _missing_legs(self, wanted: Iterable[str]) -> list[str]:
        """The relays of ``wanted`` with no leg in the table yet."""
        engine = self._engine
        return [
            fp for fp in wanted
            if fp not in engine.legs and fp not in engine.leg_failures
        ]

    def _task_lists(self) -> tuple[list[str], list[tuple[str, str]]]:
        """Leg fingerprints and pair tasks for this campaign's scope."""
        if self.pairs is not None:
            pair_tasks = list(self.pairs)
            scope = {fp for pair in pair_tasks for fp in pair}
        else:
            pair_tasks = [
                (a.fingerprint, b.fingerprint)
                for i, a in enumerate(self.relays)
                for b in self.relays[i + 1 :]
            ]
            scope = set(self._rank)
        wanted = scope if self.legs is None else set(self.legs)
        return self._missing_legs(fp for fp in self._rank if fp in wanted), pair_tasks

    def run(self) -> ParallelReport:
        """Execute the campaign; drives the simulator until completion."""
        leg_fps, pair_tasks = self._task_lists()
        events = self.host.events
        if events.enabled:
            events.info(
                "shard",
                "campaign_started",
                relays=len(self.relays),
                pairs=len(pair_tasks),
            )
        if self.budget is not None:
            self.budget.events = events
        campaign_span = self.host.spans.begin(
            CAMPAIGN_SPAN, relays=len(self.relays), pairs=len(pair_tasks)
        )
        try:
            # A leg-only campaign writes no entry, so it gets no n×n
            # block to fill and throw away.
            report = self._execute(
                leg_fps, pair_tasks, RttMatrix(list(self._rank) if pair_tasks else [])
            )
        finally:
            campaign_span.end()

        metrics = self.host.metrics
        if metrics.enabled:
            metrics.set_gauge("campaign.makespan_ms", report.makespan_ms)
            metrics.max_gauge("campaign.peak_concurrency", report.peak_concurrency)
        if events.enabled:
            events.info(
                "shard",
                "campaign_finished",
                measured=report.pairs_measured,
                failed=len(report.failures),
                makespan_ms=round(report.makespan_ms, 3),
            )
        return report

    def _execute(
        self,
        leg_fps: Sequence[str],
        pairs: Sequence[tuple[str, str]],
        matrix: RttMatrix,
    ) -> ParallelReport:
        """Prefetch ``leg_fps``, then measure ``pairs`` into ``matrix``.

        Leg tasks first (each exactly once), then pair tasks: a pair
        whose legs are still in flight waits on the leg table.
        """
        engine, sim = self._engine, self.host.sim
        report = ParallelReport(matrix=matrix)
        recorder = PairRecorder(self.host, report)
        started = sim.now
        engine.probes_sent = engine.probes_saved = 0
        engine.early_stops = engine.legs_measured = 0

        def launch(task: tuple[str, ...], finished: Callable[[], None]) -> None:
            if task[0] == "leg":
                # A prefetch: a demand nobody is waiting on yet.
                engine.demand_leg(
                    task[1], self._launch_policy(), lambda launched: finished()
                )
                return
            x_fp, y_fp = task[1:]
            task_started = sim.now
            recorder.started(x_fp, y_fp)

            def measured(result) -> None:
                recorder.measured(result)
                finished()

            def failed(reason: str) -> None:
                recorder.failed(x_fp, y_fp, reason, duration_ms=sim.now - task_started)
                finished()

            PairTask(
                engine, x_fp, y_fp, self._launch_policy(), measured, failed
            ).start()

        tasks: list[tuple[str, ...]] = [("leg", fp) for fp in leg_fps] + [
            ("pair", a, b) for a, b in pairs
        ]
        if self.isolation is not None:
            report.peak_concurrency = 1
            report.makespan_ms = self._run_isolated(tasks, launch)
        else:
            report.peak_concurrency = self._run_concurrent(tasks, launch)
            report.makespan_ms = sim.now - started
        report.pairs_attempted = len(pairs)
        report.pairs_measured = matrix.num_measured
        report.probes_sent = engine.probes_sent
        report.probes_saved = engine.probes_saved
        report.early_stops = engine.early_stops
        report.legs_measured = engine.legs_measured
        if pairs and self.host.metrics.enabled:
            # Chunk counts sum to exactly what one unsharded run would
            # record — the merged-counter invariance rests on this.
            metrics = self.host.metrics
            metrics.inc("campaign.pairs_attempted", report.pairs_attempted)
            metrics.inc("campaign.pairs_measured", report.pairs_measured)
        return report

    def _run_concurrent(self, tasks: list[tuple[str, ...]], launch) -> int:
        """Keep up to ``concurrency`` tasks in flight; returns the peak."""
        # A deque: the C(n,2)+n task list is drained one task per
        # completion, and a list.pop(0) here is O(n^2) over the campaign
        # — minutes of pure queue-shuffling at a few hundred relays.
        queue = deque(tasks)
        state = {"running": 0, "done": 0, "peak": 0}

        def launch_next() -> None:
            while state["running"] < self.concurrency and queue:
                state["running"] += 1
                state["peak"] = max(state["peak"], state["running"])
                launch(queue.popleft(), task_finished)

        def task_finished() -> None:
            state["running"] -= 1
            state["done"] += 1
            launch_next()

        launch_next()
        # Drive the simulation until every task resolves.
        self.host.sim.run(
            max_events=200_000_000,
            stop_when=lambda: state["done"] >= len(tasks),
        )
        if state["done"] < len(tasks):
            raise MeasurementError("parallel campaign did not complete")
        return state["peak"]

    def _run_isolated(self, tasks: list[tuple[str, ...]], launch) -> Milliseconds:
        """Serial per-task execution with context-free task outcomes;
        returns the makespan, the sum of the tasks' durations.

        Each task (keyed ``leg:<fp>`` / ``pair:<a>:<b>``) starts from a
        clock at zero and its own draws, and ends by closing the
        connections it opened and draining the simulator, so no event
        (circuit teardown, connection close) crosses a task boundary and
        a task's event count is its own. Together these make every
        task's samples a pure function of ``(root seed, task key)`` —
        bit-identical whether the task runs as part of a full campaign,
        inside one :meth:`run_pairs` chunk on a shard worker, or alone.
        Legs stay tasks of their own here: one launched from inside a
        pair task would draw from the pair's streams.
        """
        sim, isolation = self.host.sim, self.isolation
        if not self._world_taken_over:
            # Whatever the world did before this campaign (connections it
            # cached, events it left pending) is not the first task's.
            isolation.finish()
            self._world_taken_over = True
        makespan = 0.0
        for task in tasks:
            isolation.begin(":".join(task))
            run_to_completion(sim, lambda done, error: launch(task, done))
            isolation.finish()
            makespan += sim.now  # the task's clock started at zero
            self.host.metrics.inc("campaign.task_isolations")
        return makespan

    def run_pairs(self, pairs: Sequence[tuple[str, str]]) -> ParallelReport:
        """Measure one pair chunk incrementally, under task isolation.

        The work-stealing dispatch in
        :class:`~repro.core.shard.ShardedCampaign` calls this once per
        stolen chunk: leg estimates accumulated so far (pre-warmed by
        the campaign's leg round, or measured by an earlier chunk) are
        reused, and any relay still missing both an estimate and a
        failure gets a leg task prepended — so the chunk is
        self-sufficient even without a leg round. Returns a per-chunk
        report whose matrix spans only the relays the chunk names, in
        campaign node order — so ``measured_pairs()`` yields the chunk's
        entries in the order a campaign-wide matrix would, at a cost
        that does not grow with the campaign. ``legs_measured`` says how
        many leg circuits the chunk had to build itself (zero when fully
        pre-warmed).
        """
        self._check_pairs(pairs)
        named = dict.fromkeys(fp for pair in pairs for fp in pair)
        matrix = RttMatrix(sorted(named, key=self._rank.__getitem__))
        return self._run_chunk(named, pairs, matrix)

    def run_legs(self, fingerprints: Sequence[str]) -> ParallelReport:
        """Measure one leg chunk incrementally, under task isolation.

        The leg-round sibling of :meth:`run_pairs`: every named relay
        not already covered by an estimate or a failure gets one leg
        task, keyed ``leg:<fp>`` exactly as inside :meth:`run`, so its
        samples do not depend on which worker drew the chunk. The
        results land in :attr:`leg_estimates` / :attr:`leg_failures`;
        the report carries the chunk's counters and an empty matrix (a
        leg writes no entry).
        """
        for fp in fingerprints:
            if fp not in self._rank:
                raise MeasurementError(f"unknown relay {fp!r} in legs")
        return self._run_chunk(fingerprints, [], RttMatrix([]))

    def _run_chunk(
        self,
        relays: Iterable[str],
        pairs: Sequence[tuple[str, str]],
        matrix: RttMatrix,
    ) -> ParallelReport:
        """Run the missing legs of ``relays``, then ``pairs``, isolated."""
        if self.isolation is None:
            raise MeasurementError("chunked runs require task isolation")
        return self._execute(self._missing_legs(relays), pairs, matrix)

    def _launch_policy(self) -> SamplePolicy:
        """The policy for the task being launched right now (budgeted
        campaigns degrade it as the budget drains)."""
        if self.budget is None:
            return self.policy
        return self.budget.policy_for(self.policy)
