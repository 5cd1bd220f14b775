"""Concurrent all-pairs campaigns: many Ting measurements in flight.

Section 4.6 notes that "an all-pairs matrix can be time-consuming to
calculate". Sequential measurement of n relays costs
``C(n,2) + n`` circuit-measurements end to end; but the measurements are
independent, so a client can keep several circuits open and probe them
concurrently, dividing the campaign's *makespan* by (almost) the
concurrency level. Relay load from the extra simultaneous circuits is
negligible next to ambient traffic (each probe stream is a few cells per
second).

:class:`ParallelCampaign` is the fully event-driven counterpart of
:class:`~repro.core.campaign.AllPairsCampaign`: it schedules pair tasks
through a bounded worker pool, deduplicates leg measurements across
pairs (each relay's ``C_x`` is measured exactly once and shared), and
assembles the same :class:`~repro.core.dataset.RttMatrix`.

With a :class:`TaskIsolation` attached the campaign instead runs its
tasks strictly one at a time, resetting cached connections and
reseeding every delay-relevant RNG stream from the task's key before
each task. Each task's result then depends only on ``(root seed, task
key)`` — not on which tasks ran before it in this process — which is
what lets :class:`~repro.core.shard.ShardedCampaign` split the pair
list across worker processes and still merge a matrix that is
invariant to the shard count.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

from repro.core.campaign import ProbeBudget
from repro.core.dataset import LegProvenance, PairProvenance, RttMatrix
from repro.core.measurement_host import MeasurementHost
from repro.core.sampling import SamplePolicy, debiased_min_estimate
from repro.obs import (
    CAMPAIGN_SPAN,
    CIRCUIT_BUILD_SPAN,
    LEG_SPAN,
    PAIR_FAILED,
    PAIR_MEASURED,
    PAIR_SPAN,
    PROBE_ROUND_SPAN,
    SpanHandle,
    categorize_failure,
)
from repro.tor.client import Circuit
from repro.tor.directory import RelayDescriptor
from repro.util.errors import CircuitError, MeasurementError, StreamError
from repro.util.rng import RandomStreams
from repro.util.units import Milliseconds

#: Estimates produced under task isolation are quantized to this many
#: decimal digits of a millisecond (1e-6 ms = one nanosecond). Absolute
#: event times differ between a sharded worker and a full campaign, so
#: float rounding perturbs raw RTTs at the ~1e-10 ms scale; nanosecond
#: quantization erases that while staying far below measurement
#: resolution. Unisolated campaigns never round (bit-for-bit compatible
#: with the historical estimator).
ISOLATED_ESTIMATE_DECIMALS = 6


@dataclass(frozen=True)
class TaskIsolation:
    """Recipe for making each measurement task's outcome context-free.

    ``streams`` is the testbed's root :class:`RandomStreams`;
    ``stream_names`` lists every named stream that is drawn from while a
    probe is in flight (latency jitter, relay forwarding models);
    ``reset`` drops world state cached across tasks (OR connections).
    Testbeds construct this — see ``LiveTorTestbed.task_isolation``.
    """

    streams: RandomStreams
    stream_names: tuple[str, ...]
    reset: Callable[[], None] | None = None

    def begin(self, task_key: str) -> None:
        """Prepare the world so the next task is a pure function of its key."""
        if self.reset is not None:
            self.reset()
        for name in self.stream_names:
            self.streams.reseed(name, task_key)


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


class _CircuitProbe:
    """One async circuit measurement: build, attach, probe, close.

    ``on_done`` receives the full ``EchoProbeResult`` (samples plus the
    early-stop outcome) so campaigns can account saved probes; the
    stream and circuit are closed on every path, success or error.
    """

    def __init__(
        self,
        host: MeasurementHost,
        path: list[str],
        policy: SamplePolicy,
        on_done: Callable[..., None],
        on_error: Callable[[str], None],
        span_parent: SpanHandle | None = None,
    ) -> None:
        self.host = host
        self.policy = policy
        self.on_done = on_done
        self.on_error = on_error
        self.circuit: Circuit | None = None
        self._stream = None
        #: Open spans for the current phase; ``end()`` is idempotent, so
        #: error paths can close whatever happens to be open.
        self._span_parent = span_parent
        self._build_span = host.spans.begin(
            CIRCUIT_BUILD_SPAN, parent=span_parent, hops=len(path)
        )
        self._probe_span: SpanHandle | None = None
        try:
            host.proxy.create_circuit(path, self._built, self._build_failed)
        except CircuitError as exc:
            # Synchronous validation failure (bad path).
            self._build_span.end()
            host.sim.schedule(0.0, on_error, str(exc))

    def _built(self, circuit: Circuit) -> None:
        self._build_span.end()
        self.circuit = circuit
        try:
            self.host.proxy.open_stream(
                circuit,
                self.host.echo_address,
                self.host.echo_port,
                self._attached,
                self._stream_failed,
            )
        except StreamError as exc:
            self._finish_error(str(exc))

    def _build_failed(self, circuit: Circuit, reason: str) -> None:
        self._build_span.end()
        self.on_error(f"circuit build failed: {reason}")

    def _stream_failed(self, reason: str) -> None:
        self._finish_error(f"stream attach failed: {reason}")

    def _attached(self, stream) -> None:
        self._stream = stream
        spec = self.policy.adaptive
        attrs = {"samples": self.policy.samples}
        if spec is not None:
            attrs["adaptive"] = spec.tolerance_label
        self._probe_span = self.host.spans.begin(
            PROBE_ROUND_SPAN, parent=self._span_parent, **attrs
        )
        self.host.echo_client.probe_async(
            stream,
            samples=self.policy.samples,
            on_done=lambda result: self._probed(stream, result),
            on_error=self._finish_error,
            interval_ms=self.policy.interval_ms,
            timeout_ms=self.policy.timeout_ms,
            adaptive=spec,
        )

    def _probed(self, stream, result) -> None:
        if self._probe_span is not None:
            self._probe_span.end()
        stream.close()
        self._stream = None
        self._close_circuit()
        self.on_done(result)

    def _finish_error(self, reason: str) -> None:
        self._build_span.end()
        if self._probe_span is not None:
            self._probe_span.end()
        # Zero-reply probe rounds land here with the stream still open;
        # close it before the circuit so nothing lingers in
        # ``circuit.streams`` (mirrors the TingMeasurer leak fix).
        if self._stream is not None:
            self._stream.close()
            self._stream = None
        self._close_circuit()
        self.on_error(reason)

    def _close_circuit(self) -> None:
        if self.circuit is not None:
            self.host.proxy.close_circuit(self.circuit)
            self.circuit = None


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

        self._w = host.relay_w.fingerprint
        self._z = host.relay_z.fingerprint
        # Leg results shared across pairs: fingerprint -> min RTT.
        # Pre-warmed estimates (a sharded campaign's leg round) are
        # read-only inputs: tasks for them are never scheduled.
        self._legs: dict[str, float] = dict(leg_estimates or {})
        self._leg_waiters: dict[str, list[Callable[[], None]]] = {}
        self._leg_failures: dict[str, str] = dict(leg_failures or {})

    # ------------------------------------------------------------------

    @property
    def leg_estimates(self) -> dict[str, float]:
        """Every known leg estimate (pre-warmed and measured), by relay."""
        return dict(self._legs)

    @property
    def leg_failures(self) -> dict[str, str]:
        """Every known leg failure reason, by relay."""
        return dict(self._leg_failures)

    def _check_pairs(self, pairs: Iterable[tuple[str, str]]) -> None:
        for a, b in pairs:
            if a == b or a not in self._rank or b not in self._rank:
                raise MeasurementError(f"invalid campaign pair ({a}, {b})")

    def _task_lists(self) -> tuple[list[str], list[tuple[str, str]]]:
        """Leg fingerprints and pair tasks for this campaign's scope."""
        if self.pairs is not None:
            pair_tasks = list(self.pairs)
            if self.legs is not None:
                wanted = set(self.legs)
            else:
                wanted = {fp for pair in pair_tasks for fp in pair}
        else:
            pair_tasks = [
                (a.fingerprint, b.fingerprint)
                for i, a in enumerate(self.relays)
                for b in self.relays[i + 1 :]
            ]
            wanted = (
                set(self.legs)
                if self.legs is not None
                else {r.fingerprint for r in self.relays}
            )
        leg_fps = [
            r.fingerprint
            for r in self.relays
            if r.fingerprint in wanted
            and r.fingerprint not in self._legs
            and r.fingerprint not in self._leg_failures
        ]
        return leg_fps, pair_tasks

    def run(self) -> ParallelReport:
        """Execute the campaign; drives the simulator until completion."""
        leg_fps, pair_tasks = self._task_lists()
        # A leg-only campaign writes no entry, so it gets no n×n block
        # to fill and throw away.
        matrix = RttMatrix(list(self._rank) if pair_tasks else [])
        report = ParallelReport(matrix=matrix)
        started = self.host.sim.now

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
            if self.isolation is not None:
                self._run_isolated(leg_fps, pair_tasks, matrix, report)
            else:
                self._run_concurrent(leg_fps, pair_tasks, matrix, report)
        finally:
            campaign_span.end()

        report.pairs_attempted = len(pair_tasks)
        report.pairs_measured = matrix.num_measured
        report.makespan_ms = self.host.sim.now - started
        metrics = self.host.metrics
        if metrics.enabled:
            metrics.inc("campaign.pairs_attempted", report.pairs_attempted)
            metrics.inc("campaign.pairs_measured", report.pairs_measured)
            metrics.set_gauge("campaign.makespan_ms", report.makespan_ms)
            metrics.max_gauge(
                "campaign.peak_concurrency", report.peak_concurrency
            )
        if events.enabled:
            events.info(
                "shard",
                "campaign_finished",
                measured=report.pairs_measured,
                failed=len(report.failures),
                makespan_ms=round(report.makespan_ms, 3),
            )
        return report

    def _run_concurrent(
        self,
        leg_fps: list[str],
        pair_tasks: list[tuple[str, str]],
        matrix: RttMatrix,
        report: ParallelReport,
    ) -> None:
        # Leg tasks first (each exactly once), then pair tasks. A deque:
        # the C(n,2)+n task list is drained one task per completion, and
        # a list.pop(0) here is O(n^2) over the campaign — minutes of
        # pure queue-shuffling at a few hundred relays.
        queue: deque[tuple[str, ...]] = deque(
            [("leg", fp) for fp in leg_fps]
            + [("pair", a, b) for a, b in pair_tasks]
        )
        state = {"running": 0, "done": 0, "total": len(queue)}

        def launch_next() -> None:
            while state["running"] < self.concurrency and queue:
                task = queue.popleft()
                state["running"] += 1
                report.peak_concurrency = max(
                    report.peak_concurrency, state["running"]
                )
                if task[0] == "leg":
                    self._run_leg_task(task[1], report, task_finished)
                else:
                    self._run_pair_task(task[1], task[2], matrix, report, task_finished)

        def task_finished() -> None:
            state["running"] -= 1
            state["done"] += 1
            launch_next()

        launch_next()
        # Drive the simulation until every task resolves.
        self.host.sim.run(
            max_events=200_000_000,
            stop_when=lambda: state["done"] >= state["total"],
        )
        if state["done"] < state["total"]:
            raise MeasurementError("parallel campaign did not complete")

    def _run_isolated(
        self,
        leg_fps: list[str],
        pair_tasks: list[tuple[str, str]],
        matrix: RttMatrix,
        report: ParallelReport,
    ) -> None:
        """Serial per-task execution with context-free task outcomes.

        Before each task the isolation recipe drops cached OR connections
        and reseeds the delay streams from the task key; after each task
        the simulator drains to idle so no event (circuit teardown,
        connection close) crosses a task boundary. Together these make
        every task's samples a pure function of ``(root seed, task key)``.
        """
        report.peak_concurrency = 1
        tasks: list[tuple[str, ...]] = [("leg", fp) for fp in leg_fps] + [
            ("pair", a, b) for a, b in pair_tasks
        ]
        self._execute_isolated(tasks, matrix, report)

    def _execute_isolated(
        self,
        tasks: list[tuple[str, ...]],
        matrix: RttMatrix,
        report: ParallelReport,
    ) -> None:
        """Run a task list serially under per-task isolation.

        Task keys (``leg:<fp>`` / ``pair:<a>:<b>``) are what the
        isolation recipe reseeds from, so a task produces bit-identical
        samples whether it runs here as part of a full campaign, inside
        one :meth:`run_pairs` chunk on a shard worker, or alone.
        """
        sim = self.host.sim
        state = {"done": False}

        def finished() -> None:
            state["done"] = True

        for task in tasks:
            key = ":".join(task)
            self.isolation.begin(key)
            state["done"] = False
            if task[0] == "leg":
                self._run_leg_task(task[1], report, finished)
            else:
                self._run_pair_task(task[1], task[2], matrix, report, finished)
            sim.run(max_events=200_000_000, stop_when=lambda: state["done"])
            if not state["done"]:
                raise MeasurementError(f"isolated task {key} did not complete")
            # Drain teardown traffic before the next task's reset/reseed.
            sim.run(max_events=10_000_000)
            self.host.metrics.inc("campaign.task_isolations")

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
        report = self._run_chunk(named, pairs, matrix)
        metrics = self.host.metrics
        if metrics.enabled:
            # Chunk counts sum to exactly what one unsharded run would
            # record — the merged-counter invariance rests on this.
            metrics.inc("campaign.pairs_attempted", report.pairs_attempted)
            metrics.inc("campaign.pairs_measured", report.pairs_measured)
        return report

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
        report = ParallelReport(matrix=matrix, peak_concurrency=1)
        started = self.host.sim.now
        tasks: list[tuple[str, ...]] = [
            ("leg", fp)
            for fp in relays
            if fp not in self._legs and fp not in self._leg_failures
        ] + [("pair", a, b) for a, b in pairs]
        self._execute_isolated(tasks, matrix, report)
        report.pairs_attempted = len(pairs)
        report.pairs_measured = matrix.num_measured
        report.makespan_ms = self.host.sim.now - started
        return report

    # ------------------------------------------------------------------

    def _launch_policy(self) -> SamplePolicy:
        """The policy for the task being launched right now (budgeted
        campaigns degrade it as the budget drains)."""
        if self.budget is None:
            return self.policy
        return self.budget.policy_for(self.policy)

    def _account_probes(self, report: ParallelReport, result) -> None:
        """Fold one probe round's cost into the report/budget/metrics."""
        report.probes_sent += result.sent
        if self.budget is not None:
            self.budget.spend(result.sent)
        if result.stopped_early:
            report.early_stops += 1
            report.probes_saved += result.samples_saved
            self.host.metrics.inc("ting.probes_saved", result.samples_saved)

    def _estimate(self, samples: list[float], policy: SamplePolicy) -> float:
        """The circuit estimate for one probe round's samples.

        Adaptive policies with a remaining-excess correction debias the
        minimum (see :func:`debiased_min_estimate`); quantization when
        running isolated erases the sub-picosecond float noise that
        absolute event times inject (:data:`ISOLATED_ESTIMATE_DECIMALS`),
        so sharded and unsharded runs of the same task agree exactly.
        The correction itself depends only on the kept-sample count and
        the lowest samples — both prefix properties — so it is quantized
        along with the minimum.
        """
        value = debiased_min_estimate(samples, policy)
        if self.isolation is not None:
            value = round(value, ISOLATED_ESTIMATE_DECIMALS)
        return value

    def _run_leg_task(
        self,
        fingerprint: str,
        report: ParallelReport,
        finished: Callable[[], None],
    ) -> None:
        events = self.host.events
        started = self.host.sim.now
        if events.enabled:
            events.debug("leg", "started", relay=fingerprint)
        leg_span = self.host.spans.begin(LEG_SPAN, relay=fingerprint)
        # The leg result is shared by every pair touching this relay, so
        # adaptive policies measure it at the full cap (for_leg); the
        # budget-degraded cap still applies.
        policy = self._launch_policy().for_leg()

        def done(result) -> None:
            self._legs[fingerprint] = self._estimate(result.rtts_ms, policy)
            self._account_probes(report, result)
            report.legs_measured += 1
            # Each leg is measured exactly once and shared — the
            # campaign-level equivalent of a sequential cache miss.
            self.host.metrics.inc("ting.leg_cache_lookups")
            self.host.metrics.inc("ting.leg_cache_misses")
            leg_span.end()
            if events.enabled:
                events.debug(
                    "leg",
                    "finished",
                    relay=fingerprint,
                    rtt_ms=self._legs[fingerprint],
                )
            if self.host.provenance is not None:
                self.host.provenance.add_leg(
                    LegProvenance(
                        relay=fingerprint,
                        rtt_ms=self._legs[fingerprint],
                        samples_requested=policy.samples,
                        samples_kept=len(result.rtts_ms),
                        samples_saved=result.samples_saved,
                        stop_reason=result.stop_reason,
                        duration_ms=self.host.sim.now - started,
                    )
                )
            self._notify_leg(fingerprint)
            finished()

        def error(reason: str) -> None:
            self._leg_failures[fingerprint] = reason
            report.legs_measured += 1
            leg_span.end()
            if events.enabled:
                events.warning("leg", "failed", relay=fingerprint, reason=reason)
            self._notify_leg(fingerprint)
            finished()

        _CircuitProbe(
            self.host,
            [self._w, fingerprint, self._z],
            policy,
            done,
            error,
            span_parent=leg_span,
        )

    def _notify_leg(self, fingerprint: str) -> None:
        for waiter in self._leg_waiters.pop(fingerprint, []):
            waiter()

    def _when_leg_ready(self, fingerprint: str, callback: Callable[[], None]) -> None:
        if fingerprint in self._legs or fingerprint in self._leg_failures:
            callback()
        else:
            self._leg_waiters.setdefault(fingerprint, []).append(callback)

    def _run_pair_task(
        self,
        x_fp: str,
        y_fp: str,
        matrix: RttMatrix,
        report: ParallelReport,
        finished: Callable[[], None],
    ) -> None:
        started = self.host.sim.now
        metrics = self.host.metrics
        provenance = self.host.provenance
        events = self.host.events
        if events.enabled:
            # One per pair, regardless of which worker runs it: the
            # ``campaign`` category is the shard-invariant event stream.
            events.info("campaign", "pair_started", x=x_fp, y=y_fp)
        pair_span = self.host.spans.begin(PAIR_SPAN, x=x_fp, y=y_fp)
        policy = self._launch_policy()

        def done(result) -> None:
            cxy = self._estimate(result.rtts_ms, policy)
            self._account_probes(report, result)
            self._when_leg_ready(
                x_fp,
                lambda: self._when_leg_ready(y_fp, lambda: combine(cxy, result)),
            )

        def combine(cxy: float, probe_result) -> None:
            if x_fp in self._leg_failures or y_fp in self._leg_failures:
                reason = self._leg_failures.get(x_fp) or self._leg_failures.get(y_fp)
                fail(f"leg failed: {reason}")
                return
            estimate = cxy - self._legs[x_fp] / 2.0 - self._legs[y_fp] / 2.0
            matrix.set(x_fp, y_fp, max(0.0, estimate))
            if metrics.enabled:
                # Both legs came from the shared per-relay measurements.
                metrics.inc("ting.leg_cache_lookups", 2)
                metrics.inc("ting.leg_cache_hits", 2)
                metrics.observe(
                    "campaign.pair_duration_ms", self.host.sim.now - started
                )
            if self.host.trace.enabled:
                self.host.trace.record(
                    self.host.sim.now,
                    PAIR_MEASURED,
                    x=x_fp,
                    y=y_fp,
                    rtt_ms=max(0.0, estimate),
                    duration_ms=self.host.sim.now - started,
                )
            if provenance is not None:
                provenance.add(
                    PairProvenance(
                        x=x_fp,
                        y=y_fp,
                        status="measured",
                        rtt_ms=max(0.0, estimate),
                        cxy_ms=cxy,
                        leg_x_ms=self._legs[x_fp],
                        leg_y_ms=self._legs[y_fp],
                        samples_requested=policy.samples,
                        samples_kept=len(probe_result.rtts_ms),
                        samples_saved=probe_result.samples_saved,
                        stop_reason=probe_result.stop_reason,
                        # The shared per-relay legs are the concurrent
                        # campaign's cache: every pair reuses both.
                        leg_cache_hits=2,
                        duration_ms=self.host.sim.now - started,
                    )
                )
            if events.enabled:
                events.info(
                    "campaign",
                    "pair_measured",
                    x=x_fp,
                    y=y_fp,
                    rtt_ms=max(0.0, estimate),
                    duration_ms=round(self.host.sim.now - started, 3),
                )
            pair_span.end()
            finished()

        def fail(reason: str) -> None:
            report.failures.append((x_fp, y_fp, reason))
            if metrics.enabled or provenance is not None:
                category = categorize_failure(reason, metrics)
                if metrics.enabled:
                    metrics.inc(f"campaign.failures.{category}")
                if provenance is not None:
                    provenance.add(
                        PairProvenance(
                            x=x_fp,
                            y=y_fp,
                            status="failed",
                            failure_category=category,
                            reason=reason,
                            duration_ms=self.host.sim.now - started,
                        )
                    )
            if self.host.trace.enabled:
                self.host.trace.record(
                    self.host.sim.now, PAIR_FAILED, x=x_fp, y=y_fp, reason=reason
                )
            if events.enabled:
                events.warning(
                    "campaign", "pair_failed", x=x_fp, y=y_fp, reason=reason
                )
            pair_span.end()
            finished()

        def error(reason: str) -> None:
            fail(reason)

        _CircuitProbe(
            self.host,
            [self._w, x_fp, y_fp, self._z],
            policy,
            done,
            error,
            span_parent=pair_span,
        )
