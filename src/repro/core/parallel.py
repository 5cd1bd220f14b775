"""The campaign scheduler: one task list, two drives.

The paper has one procedure (Section 3.3, Eq. 1–4) and two schedules
for it: the serial per-pair loop (``C_xy → C_x → C_y``, pair after
pair) and the all-pairs sweep of Section 4.6, which notes that "an
all-pairs matrix can be time-consuming to calculate". The measurements
are independent, so a client can keep several circuits open and probe
them concurrently, dividing the campaign's *makespan* by (almost) the
concurrency level; relay load from the extra circuits is negligible
next to ambient traffic (each probe stream is a few cells per second).

:class:`ParallelCampaign` schedules the pair state machine of
:mod:`repro.core.ting` for both. Its task order is data: leg tasks
first (each ``C_x`` measured once and shared — none for a campaign that
lets each pair demand its legs), then the pair tasks. Two drives run
the list:

* the **serial drive** — with task isolation or ``concurrency == 1`` —
  runs each task to completion: a pair through the engine's
  ``measure_pair`` (the call the benchmark's serial workload traces), a
  leg through one ``demand_leg``;
* the **windowed drive** keeps up to ``concurrency`` tasks in flight,
  launching the next from inside the event that finished the last.

Retry rounds, the cumulative ``max_failures`` abort, the probe budget
and the failed pair's provenance row are written once, around both.
:class:`~repro.core.campaign.AllPairsCampaign` is one task order of it.

With a :class:`TaskIsolation` attached each task starts from a clock
restarted at zero, on draws keyed by the task, over connections of its
own that it tears down itself. Each task's result — value, event count,
provenance row — then depends only on ``(root seed, task key)``, not on
which tasks ran before it in this process, which is what lets
:class:`~repro.core.shard.ShardedCampaign` split the pair list across
worker processes and still merge a matrix that is equal, bit for bit,
whatever the shard count.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Collection, Iterable, Sequence

from repro.core.dataset import RttMatrix
from repro.core.measurement_host import MeasurementHost
from repro.core.sampling import SamplePolicy
from repro.core.ting import (
    CircuitMeasurement,
    PairRecorder,
    PairTask,
    TingMeasurer,
    TingResult,
    run_to_completion,
)
from repro.obs import CAMPAIGN_SPAN
from repro.tor.directory import RelayDescriptor
from repro.netsim.engine import Simulator
from repro.util.errors import MeasurementError
from repro.util.rng import DrawSource
from repro.util.units import Milliseconds

if TYPE_CHECKING:
    from repro.core.campaign import ProbeBudget


def check_pairs(pairs: Iterable[tuple[str, str]], known: Collection[str]) -> None:
    """Refuse a pair of one relay, one naming a relay outside ``known``,
    or one listed before in either order: a campaign measures each
    unordered pair once, and writes one row for it."""
    seen: set[frozenset[str]] = set()
    for a, b in pairs:
        pair = frozenset((a, b))
        if a == b or a not in known or b not in known or pair in seen:
            raise MeasurementError(f"invalid campaign pair ({a}, {b})")
        seen.add(pair)


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
class CampaignReport:
    """Outcome of one campaign, whichever drive ran it.

    ``failures`` holds the *surviving* failure records — pairs still
    unmeasured once every retry round has run. ``failures_total`` counts
    every failed attempt across all rounds; it only grows, and it is the
    quantity the ``max_failures`` abort threshold is checked against (a
    retried pair must not reset the budget).
    """

    matrix: RttMatrix
    #: Pairs in the campaign's scope, each counted once however retried.
    pairs_attempted: int = 0
    pairs_measured: int = 0
    failures: list[tuple[str, str, str]] = field(default_factory=list)
    failures_total: int = 0
    #: Simulated time the campaign took; under task isolation, the sum
    #: of its tasks' clocks.
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

    @property
    def duration_ms(self) -> Milliseconds:
        """The makespan, by the name the benchmark reads it."""
        return self.makespan_ms


class ParallelCampaign:
    """Measures pairs among ``relays`` with up to ``concurrency`` tasks in flight.

    ``pairs`` narrows the scope (``None``: all C(n,2)). ``legs`` names
    the leg tasks launched ahead of the pairs: ``None`` is every relay
    the pairs touch, ``[]`` none — each pair then demands its own legs.
    The failure rule is set on the instance, not passed in: ``retries``
    extra rounds for the pairs still failed, ``retry_delay_ms`` apart,
    and an abort once more than ``max_failures`` attempts have failed in
    all (:class:`~repro.core.campaign.AllPairsCampaign` takes them as
    arguments). Each failed pair gets one provenance row, written at its
    last allowed attempt with that attempt's duration.
    """

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
        if {host.relay_w.fingerprint, host.relay_z.fingerprint} & set(fingerprints):
            raise MeasurementError("cannot measure the local helper relays")
        if concurrency < 1:
            raise MeasurementError("concurrency must be >= 1")
        #: Campaign node order, by fingerprint; also the membership test.
        self._rank = {fp: rank for rank, fp in enumerate(fingerprints)}
        if pairs is not None:
            check_pairs(pairs, self._rank)
        for name, mapping in (("legs", legs), ("leg_estimates", leg_estimates),
                              ("leg_failures", leg_failures)):
            for fp in mapping or ():
                if fp not in self._rank:
                    raise MeasurementError(f"unknown relay {fp!r} in {name}")
        self.host = host
        self.relays = list(relays)
        self.policy = policy or SamplePolicy.high_accuracy()
        self.concurrency = concurrency
        self.pairs = list(pairs) if pairs is not None else None
        #: A sharded campaign's workers pass ``pairs=[]`` and ``legs=[]``
        #: and are fed chunk by chunk through :meth:`run_legs` /
        #: :meth:`run_pairs` instead.
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
        self.max_failures: int | None = None
        self.retries = 0
        self.retry_delay_ms: Milliseconds = 60_000.0
        self._world_taken_over = False
        self._engine = engine = TingMeasurer(host, policy=self.policy, cache_legs=True)
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

    def _missing_legs(self, wanted: Iterable[str]) -> list[str]:
        """The relays of ``wanted`` with no leg in the table yet."""
        legs, failures = self._engine.legs, self._engine.leg_failures
        return [fp for fp in wanted if fp not in legs and fp not in failures]

    def _task_lists(self) -> tuple[list[str], list[tuple[str, str]]]:
        """Leg fingerprints and pair tasks for this campaign's scope."""
        fps = list(self._rank)
        pairs = self.pairs
        if pairs is None:
            pairs = [(a, b) for i, a in enumerate(fps) for b in fps[i + 1 :]]
        wanted = (
            {fp for pair in pairs for fp in pair} if self.legs is None
            else set(self.legs)
        )
        return self._missing_legs(fp for fp in fps if fp in wanted), list(pairs)

    def run(self) -> CampaignReport:
        """Execute the campaign; drives the simulator until completion."""
        leg_fps, pair_tasks = self._task_lists()
        events = self.host.events
        if events.enabled:
            events.info(
                "shard", "campaign_started",
                relays=len(self.relays), pairs=len(pair_tasks),
            )
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
                "shard", "campaign_finished", measured=report.pairs_measured,
                failed=len(report.failures), makespan_ms=round(report.makespan_ms, 3),
            )
        return report

    def _execute(
        self, legs: Sequence[str], pairs: Sequence[tuple[str, str]], matrix: RttMatrix
    ) -> CampaignReport:
        """Run the leg tasks of ``legs``, then the pair tasks of
        ``pairs`` into ``matrix``, then retry rounds of the pairs still
        failed. A pair whose legs are still in flight waits on the leg
        table.
        """
        host, engine, sim = self.host, self._engine, self.host.sim
        report = CampaignReport(matrix=matrix)
        recorder = PairRecorder(host, report)
        engine.budget = budget = self.budget
        if budget is not None:
            budget.events = host.events
        counters = ("probes_sent", "probes_saved", "early_stops", "legs_measured")
        before = [getattr(engine, name) for name in counters]
        started = sim.now
        serial = self.isolation is not None or self.concurrency == 1
        report.peak_concurrency = 1 if serial else 0
        clocks = 0.0  # the isolated tasks' clocks, each restarted at zero
        failed: list[tuple[str, ...]] = []
        retry = 0  # the round running: every pair in it was retried this often

        def policy() -> SamplePolicy:
            # Re-resolved at every launch, so a budgeted campaign's policy
            # degrades as the budget drains.
            return self.policy if budget is None else budget.policy_for(self.policy)

        def launch(task: tuple[str, ...], finished: Callable[[], None]) -> None:
            if task[0] == "leg":
                # A prefetch: a demand nobody is waiting on yet.
                engine.demand_leg(task[1], policy(), lambda launched: finished())
                return
            pair, launched = task[1:], sim.now
            recorder.started(*pair)

            def settle(outcome: TingResult | str) -> None:
                if isinstance(outcome, TingResult):
                    recorder.measured(outcome, retry)
                else:
                    failed.append(pair)
                    report.failures_total += 1
                    recorder.failed(
                        *pair, outcome, sim.now - launched, retry,
                        row=retry == self.retries,
                    )
                    # Cumulative across rounds: report.failures is emptied
                    # before each retry round, so it cannot gate the abort.
                    if (
                        self.max_failures is not None
                        and report.failures_total > self.max_failures
                    ):
                        raise MeasurementError(
                            f"campaign aborted after {report.failures_total} failures"
                        )
                finished()

            if not serial:
                PairTask(engine, *pair, policy(), settle, settle).start()
                return
            try:
                outcome = engine.measure_pair(*pair, policy=policy())
            except MeasurementError as exc:
                outcome = str(exc)
            settle(outcome)

        tasks = [("leg", fp) for fp in legs] + [("pair", *pair) for pair in pairs]
        while True:
            if serial:
                clocks += self._drive_serial(tasks, launch)
            else:
                report.peak_concurrency = max(
                    report.peak_concurrency, self._drive_windowed(tasks, launch)
                )
            if not failed or retry == self.retries:
                break
            retry += 1
            host.metrics.inc("campaign.retry_rounds")
            if host.events.enabled:
                host.events.warning(
                    "campaign", "retry_round", round=retry, pending_pairs=len(failed)
                )
            sim.run(until=sim.now + self.retry_delay_ms)
            # Leg conditions may have changed while relays were down.
            engine.invalidate_leg_cache()
            report.failures.clear()
            tasks, failed = [("pair", *pair) for pair in failed], []

        report.makespan_ms = clocks if self.isolation is not None else sim.now - started
        report.pairs_attempted = len(pairs)
        report.pairs_measured = matrix.num_measured
        for name, count in zip(counters, before):
            setattr(report, name, getattr(engine, name) - count)
        if pairs and host.metrics.enabled:
            # Chunk counts sum to exactly what one unsharded run would
            # record — the merged-counter invariance rests on this.
            host.metrics.inc("campaign.pairs_attempted", report.pairs_attempted)
            host.metrics.inc("campaign.pairs_measured", report.pairs_measured)
        return report

    def _drive_serial(self, tasks: list[tuple[str, ...]], launch) -> Milliseconds:
        """Run each task to completion, in order; returns the isolated
        tasks' summed clocks (0 without isolation).

        Under isolation a task (keyed ``leg:<fp>`` / ``pair:<a>:<b>``)
        also ends by closing the connections it opened and draining the
        simulator, so no event (circuit teardown, connection close)
        crosses a task boundary and its samples and event count are the
        same whether it runs in a full campaign, in one :meth:`run_pairs`
        chunk on a shard worker, or alone. Legs stay tasks of their own:
        one launched from inside a pair task would draw from its streams.
        """
        sim, isolation = self.host.sim, self.isolation
        if isolation is not None and not self._world_taken_over:
            # Whatever the world did before this campaign (connections it
            # cached, events it left pending) is not the first task's.
            isolation.finish()
            self._world_taken_over = True
        clocks = 0.0
        for task in tasks:
            if isolation is not None:
                isolation.begin(":".join(task))
            run_to_completion(sim, lambda done, error: launch(task, done))
            if isolation is not None:
                isolation.finish()
                clocks += sim.now  # the task's clock started at zero
                self.host.metrics.inc("campaign.task_isolations")
        return clocks

    def _drive_windowed(self, tasks: list[tuple[str, ...]], launch) -> int:
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
            raise MeasurementError("campaign did not complete")
        return state["peak"]

    def run_pairs(self, pairs: Sequence[tuple[str, str]]) -> CampaignReport:
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
        check_pairs(pairs, self._rank)
        named = dict.fromkeys(fp for pair in pairs for fp in pair)
        matrix = RttMatrix(sorted(named, key=self._rank.__getitem__))
        return self._run_chunk(named, pairs, matrix)

    def run_legs(self, fingerprints: Sequence[str]) -> CampaignReport:
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
        self, relays: Iterable[str], pairs: Sequence[tuple[str, str]], matrix: RttMatrix
    ) -> CampaignReport:
        """Run the missing legs of ``relays``, then ``pairs``, isolated."""
        if self.isolation is None:
            raise MeasurementError("chunked runs require task isolation")
        return self._execute(self._missing_legs(relays), pairs, matrix)
