"""The Ting measurement technique (Section 3.3), written once.

To measure R(x, y), Ting builds three circuits from its measurement host
``h`` (running s, d, w, z):

* ``C_xy = (w, x, y, z)`` whose echo RTT is
  ``2R(h,h) + 4F_h + R(h,x) + 2F_x + R(x,y) + 2F_y + R(h,y)``  (Eq. 1)
* ``C_x = (w, x, z)`` giving ``2R(h,h) + 4F_h + 2R(h,x) + 2F_x``  (Eq. 2)
* ``C_y = (w, y, z)`` giving ``2R(h,h) + 4F_h + 2R(h,y) + 2F_y``  (Eq. 3)

Each circuit is probed many times and summarized by its minimum; then

    ``R(x, y)  ≈  R_Cxy − ½ R_Cx − ½ R_Cy``                      (Eq. 4)

with residual error ``F_x + F_y`` — the two relays' minimum forwarding
delays, empirically 0–3 ms.

The procedure is one callback state machine: :class:`CircuitProbe` (one
circuit, a *build* step and a *probe* step), :class:`TingMeasurer` (the
leg table, the probe accounting, and the synchronous calls that run one
task to completion — ``measure_pair`` is ``C_xy → C_x → C_y``, each leg
launched by the demand that misses it), :class:`PairTask` (``C_xy`` →
demand leg x → demand leg y → Eq. 4) and :class:`PairRecorder` (where an
outcome is written down). :class:`~repro.core.parallel.ParallelCampaign`
is the one scheduler of it; a campaign class only chooses its task order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import TYPE_CHECKING, Any, Callable

from repro.core.dataset import LegProvenance, PairProvenance
from repro.core.measurement_host import MeasurementHost
from repro.core.sampling import SamplePolicy, debiased_min_estimate, min_estimate
from repro.obs import (
    CIRCUIT_BUILD_SPAN,
    LEG_SPAN,
    PAIR_SPAN,
    PROBE_ROUND_SPAN,
    SpanHandle,
    categorize_failure,
)
from repro.tor.control import SimFuture
from repro.tor.directory import RelayDescriptor
from repro.util.errors import CircuitError, MeasurementError, StreamError
from repro.util.units import Milliseconds

if TYPE_CHECKING:
    from repro.core.campaign import ProbeBudget

#: Callback shapes: ``on_done`` gets the operation's result (an
#: ``EchoProbeResult`` from a probe step), ``on_error`` the reason.
OnDone = Callable[..., None]
OnError = Callable[[str], None]


@dataclass
class CircuitMeasurement:
    """Echo samples collected over one circuit.

    ``stopped_early``/``samples_saved``/``stop_reason`` carry the echo
    run's adaptive-stopping outcome (see
    :class:`~repro.core.sampling.AdaptiveSpec`); fixed-policy runs leave
    them at their defaults.
    """

    path: tuple[str, ...]
    samples_ms: list[Milliseconds]
    stopped_early: bool = False
    samples_saved: int = 0
    stop_reason: str | None = None
    #: The value Eq. 4 used for this circuit: the minimum, debiased under
    #: an adaptive policy. A leg
    #: pre-warmed by a sharded campaign's leg round carries only this
    #: (its samples stayed with the worker that measured it).
    estimate_ms: Milliseconds | None = None

    @property
    def min_ms(self) -> Milliseconds:
        """The circuit's min-filtered RTT estimate."""
        return min_estimate(self.samples_ms)


@dataclass
class TingResult:
    """The outcome of one Ting pair measurement."""

    x_fingerprint: str
    y_fingerprint: str
    rtt_ms: Milliseconds
    circuit_xy: CircuitMeasurement
    circuit_x: CircuitMeasurement
    circuit_y: CircuitMeasurement
    #: Simulated time the measurement occupied, end to end.
    duration_ms: Milliseconds = 0.0
    policy: SamplePolicy = field(default_factory=SamplePolicy.high_accuracy)
    #: The circuits this pair itself probed: ``C_xy``, then each leg its
    #: own demand had to launch (a leg found in the table is not here).
    probed: list[CircuitMeasurement] = field(default_factory=list)

    @property
    def rtt_clamped_ms(self) -> Milliseconds:
        """The estimate clamped at zero (tiny negatives can occur for
        nearly co-located pairs when leg noise exceeds R(x, y))."""
        return max(0.0, self.rtt_ms)

    @property
    def total_probes(self) -> int:
        """Echo probes sent across all three circuits."""
        circuits = (self.circuit_xy, self.circuit_x, self.circuit_y)
        return sum(len(circuit.samples_ms) for circuit in circuits)


def run_to_completion(sim, start: Callable[..., None], *args: Any) -> Any:
    """Run one callback operation as a synchronous call.

    ``start(*args, on_done, on_error)`` launches it; the simulator is
    driven until one of the two fires, stopping on the resolving event so
    the clock does not overshoot. Returns what ``on_done`` received; an
    ``on_error`` reason raises :class:`MeasurementError`.
    """
    future = SimFuture(sim)
    start(*args, future.resolve, future.reject)
    try:
        return future.wait()
    except CircuitError as exc:
        raise MeasurementError(str(exc)) from None


class CircuitProbe:
    """One circuit: a build step, any number of probe steps, a close.

    The only code under ``repro.core`` that asks the onion proxy for a
    circuit or a stream, or the echo client for a probe round
    (:meth:`PairTask._carve` reshapes one it built). A failure
    — reported through a callback or raised by the call itself — closes
    the stream and the circuit *before* it is passed on.
    """

    def __init__(
        self, engine: "TingMeasurer", path, span_parent: SpanHandle | None = None
    ) -> None:
        self.engine = engine
        self.host = engine.host
        self.path = path
        self.circuit = None
        self._stream = None
        self._span_parent = span_parent
        #: The current step's span; ``end()`` is idempotent.
        self._span: SpanHandle | None = None

    def build(self, on_built: Callable[[], None], on_error: OnError) -> None:
        """Build the circuit through ``path``."""
        span = self._span = self.host.spans.begin(
            CIRCUIT_BUILD_SPAN, parent=self._span_parent, hops=len(self.path)
        )

        def built(circuit) -> None:
            span.end()
            self.circuit = circuit
            self.engine.circuits_built += 1
            on_built()

        def failed(circuit, reason: str) -> None:
            span.end()
            on_error(f"circuit build failed: {reason}")

        try:
            self.host.proxy.create_circuit(list(self.path), built, failed)
        except CircuitError as exc:
            # Synchronous validation failure (bad path).
            span.end()
            self.host.sim.schedule(0.0, on_error, str(exc))

    def probe(self, policy: SamplePolicy, on_done: OnDone, on_error: OnError) -> None:
        """Attach an echo stream, run one probe round, close the stream.

        ``on_done`` receives the full ``EchoProbeResult``, already folded
        into the engine's accounting; the circuit stays open.
        """
        host = self.host

        def fail(reason: str) -> None:
            self.close()
            on_error(reason)

        def attached(stream) -> None:
            self._stream = stream
            spec = policy.adaptive
            attrs = {"samples": policy.samples}
            if spec is not None:
                attrs["adaptive"] = spec.tolerance_label
            self._span = host.spans.begin(
                PROBE_ROUND_SPAN, parent=self._span_parent, **attrs
            )
            try:
                host.echo_client.probe_async(
                    stream,
                    samples=policy.samples,
                    on_done=probed,
                    on_error=fail,
                    interval_ms=policy.interval_ms,
                    timeout_ms=policy.timeout_ms,
                    adaptive=spec,
                )
            except BaseException:
                # The call itself raised: no callback will ever fire, so
                # this is the only chance to release the stream.
                self.close()
                raise

        def probed(result) -> None:
            self._span.end()
            self._stream.close()
            self._stream = None
            self.engine.account(result)
            on_done(result)

        def refused(reason: str) -> None:
            fail(f"stream attach failed: {reason}")

        try:
            host.proxy.open_stream(
                self.circuit, host.echo_address, host.echo_port, attached, refused
            )
        except StreamError as exc:
            fail(str(exc))

    def close(self) -> None:
        """Release the stream, if one is attached, and the circuit."""
        if self._span is not None:
            self._span.end()
        if self._stream is not None:
            # Zero-reply probe rounds land here with the stream still open.
            self._stream.close()
            self._stream = None
        if self.circuit is not None:
            self.host.proxy.close_circuit(self.circuit)
            self.circuit = None


def _fingerprint(relay: RelayDescriptor | str) -> str:
    return relay.fingerprint if isinstance(relay, RelayDescriptor) else relay


class TingMeasurer:
    """Measures R(x, y) for arbitrary relay pairs from one host.

    The state every Ting measurement on that host shares, and the
    synchronous calls that drive one measurement to completion.

    **The leg table.** A relay's leg ``R_Cx`` is *known* (``legs``),
    *failed* (``leg_failures``) or *in flight* (a list of waiters);
    :meth:`demand_leg` is the only way in. ``cache_legs`` keeps each leg
    across pairs — an all-pairs campaign over n relays then needs n leg
    circuits plus C(n,2) pair circuits instead of 3·C(n,2). Without it a
    leg is forgotten the moment it is demanded again, so every demand
    measures (the paper's validation: all three circuits per pair).

    **Probe accounting.** Every circuit and probe round lands in the
    counters below and, round by round, in ``budget`` — a campaign sets
    it for its run, so its next launch sees what has been spent so far.
    """

    def __init__(
        self,
        host: MeasurementHost,
        policy: SamplePolicy | None = None,
        cache_legs: bool = False,
        reuse_circuits: bool = False,
    ) -> None:
        self.host = host
        self.policy = policy or SamplePolicy.high_accuracy()
        self.cache_legs = cache_legs
        #: With ``reuse_circuits``, the x-leg circuit (w, x, z) is carved
        #: out of the just-used pair circuit by TRUNCATE + EXTEND instead
        #: of being built from scratch — one fewer full circuit build per
        #: pair, with identical estimates (protocol surgery moves no
        #: packets through different paths).
        self.reuse_circuits = reuse_circuits
        self.budget: ProbeBudget | None = None
        self.w = host.relay_w.fingerprint
        self.z = host.relay_z.fingerprint
        self.legs: dict[str, CircuitMeasurement] = {}
        self.leg_failures: dict[str, str] = {}
        self._leg_waiters: dict[str, list[Callable[[bool], None]]] = {}
        self.circuits_built = 0
        self.circuits_reused = 0
        self.probes_sent = 0
        #: Probes an adaptive policy's early stop avoided sending.
        self.probes_saved = 0
        #: Probe rounds that ended on convergence rather than the cap.
        self.early_stops = 0
        #: Leg measurements launched and settled (measured or failed).
        self.legs_measured = 0

    def account(self, result) -> None:
        """Fold one probe round's cost into the counters and the budget."""
        self.probes_sent += result.sent
        if self.budget is not None:
            self.budget.spend(result.sent)
        if result.stopped_early:
            self.early_stops += 1
            self.probes_saved += result.samples_saved
            self.host.metrics.inc("ting.probes_saved", result.samples_saved)

    def measurement(self, path, result, policy: SamplePolicy) -> CircuitMeasurement:
        """One probe round as a :class:`CircuitMeasurement` (adaptive
        policies debias the minimum: :func:`debiased_min_estimate`)."""
        return CircuitMeasurement(
            path, result.rtts_ms, result.stopped_early, result.samples_saved,
            result.stop_reason, debiased_min_estimate(result.rtts_ms, policy),
        )

    def measure(
        self,
        path,
        policy: SamplePolicy,
        on_done: OnDone,
        on_error: OnError,
        span_parent: SpanHandle | None = None,
    ) -> None:
        """Build ``path``, probe it once under ``policy``, close it."""
        circuit = CircuitProbe(self, path, span_parent)

        def probed(result) -> None:
            circuit.close()
            on_done(result)

        circuit.build(lambda: circuit.probe(policy, probed, on_error), on_error)

    def demand_leg(
        self,
        fingerprint: str,
        policy: SamplePolicy,
        callback: Callable[[bool], None],
        launch: Callable[[SamplePolicy, OnDone, OnError], None] | None = None,
    ) -> None:
        """Ask for one relay's leg; ``callback`` fires once it has settled.

        One demand is one lookup, counted as a hit or a miss, whichever
        scheduler asks. A leg that is known or failed is a hit and calls
        back at once; one in flight is a hit and waits; anything else is
        a miss and is measured now, over a fresh ``(w, x, z)`` circuit or
        by ``launch`` when the caller has a cheaper way to that circuit.
        ``callback(launched)`` says whether this demand is the one that
        measured; that caller is told last, after every waiter that
        joined in flight, so a scheduler frees a prefetched leg's slot
        only once the pairs it unblocked are recorded. The outcome is in
        ``legs`` / ``leg_failures``.
        """
        host = self.host
        if not self.cache_legs:
            self.legs.pop(fingerprint, None)
            self.leg_failures.pop(fingerprint, None)
        waiters = self._leg_waiters.get(fingerprint)
        hit = (
            waiters is not None
            or fingerprint in self.legs
            or fingerprint in self.leg_failures
        )
        if self.cache_legs:  # with caching off there is no cache to consult
            host.metrics.inc("ting.leg_cache_lookups")
            host.metrics.inc("ting.leg_cache_hits" if hit else "ting.leg_cache_misses")
        if waiters is not None:
            waiters.append(callback)
            return
        if hit:
            callback(False)
            return

        started = host.sim.now
        events = host.events
        self._leg_waiters[fingerprint] = []
        if events.enabled:
            events.debug("leg", "started", relay=fingerprint)
        span = host.spans.begin(LEG_SPAN, relay=fingerprint)
        path = (self.w, fingerprint, self.z)
        # The leg is shared by every pair touching this relay, so adaptive
        # policies measure it at the full cap (see SamplePolicy.for_leg).
        policy = policy.for_leg()

        def done(result) -> None:
            leg = self.legs[fingerprint] = self.measurement(path, result, policy)
            span.end()
            if events.enabled:
                events.debug(
                    "leg", "finished", relay=fingerprint, rtt_ms=leg.estimate_ms
                )
            if host.provenance is not None:
                host.provenance.add_leg(
                    LegProvenance(
                        relay=fingerprint,
                        rtt_ms=leg.estimate_ms,
                        samples_requested=policy.samples,
                        samples_kept=len(result.rtts_ms),
                        samples_saved=result.samples_saved,
                        stop_reason=result.stop_reason,
                        duration_ms=host.sim.now - started,
                    )
                )
            settled()

        def error(reason: str) -> None:
            self.leg_failures[fingerprint] = reason
            span.end()
            if events.enabled:
                events.warning("leg", "failed", relay=fingerprint, reason=reason)
            settled()

        def settled() -> None:
            self.legs_measured += 1
            for waiter in self._leg_waiters.pop(fingerprint):
                waiter(False)
            callback(True)

        if launch is None:
            launch = partial(self.measure, path, span_parent=span)
        launch(policy, done, error)

    def measure_pair(
        self,
        x: RelayDescriptor | str,
        y: RelayDescriptor | str,
        policy: SamplePolicy | None = None,
    ) -> TingResult:
        """Run the full Ting procedure for the pair (x, y)."""
        x_fp, y_fp = _fingerprint(x), _fingerprint(y)
        if x_fp == y_fp:
            raise MeasurementError("cannot measure a relay against itself")
        if self.w in (x_fp, y_fp) or self.z in (x_fp, y_fp):
            raise MeasurementError("cannot measure the local helper relays")
        task = partial(PairTask, self, x_fp, y_fp, policy or self.policy)
        return run_to_completion(
            self.host.sim, lambda done, error: task(done, error).start()
        )

    def measure_leg(
        self, x: RelayDescriptor | str, policy: SamplePolicy | None = None
    ) -> CircuitMeasurement:
        """Measure just ``R_Cx`` — the (w, x, z) circuit — for one relay."""
        x_fp = _fingerprint(x)
        run_to_completion(
            self.host.sim,
            lambda done, error: self.demand_leg(x_fp, policy or self.policy, done),
        )
        if x_fp in self.leg_failures:
            raise MeasurementError(f"leg failed: {self.leg_failures[x_fp]}")
        return self.legs[x_fp]

    def measure_pair_circuit(
        self,
        x: RelayDescriptor | str,
        y: RelayDescriptor | str,
        policy: SamplePolicy | None = None,
    ) -> CircuitMeasurement:
        """Measure only the full circuit ``C_xy = (w, x, y, z)``.

        Used by the sample-convergence analysis (Section 4.4), which
        studies raw sample traces rather than the Eq. 4 estimate.
        """
        policy = policy or self.policy
        path = (self.w, _fingerprint(x), _fingerprint(y), self.z)
        result = run_to_completion(self.host.sim, self.measure, path, policy)
        return self.measurement(path, result, policy)

    def leg_is_cached(self, x: RelayDescriptor | str) -> bool:
        """Whether ``R_Cx`` for this relay would come from the leg cache.

        Callers ask *before* measuring so they can count cache hits per
        pair without re-deriving cache policy.
        """
        return self.cache_legs and _fingerprint(x) in self.legs

    def invalidate_leg_cache(self) -> None:
        """Drop cached leg measurements (e.g. after simulated hours pass)."""
        self.legs.clear()
        self.leg_failures.clear()


class PairTask:
    """One Ting pair: ``C_xy`` → demand leg x → demand leg y → Eq. 4.

    :meth:`start` launches the chain and every later step fires from the
    last one's callback, so a task can be started inside a simulator
    event. ``C_xy`` closes once probed — or, with the engine's
    ``reuse_circuits``, once the x leg has settled: an x-leg miss is
    then measured over ``C_xy`` itself (:meth:`_carve`).

    ``on_done`` receives the :class:`TingResult`, ``on_error`` the reason
    (a failed leg reads ``leg failed: <why>`` and ends the task there:
    the other leg is not demanded).
    """

    def __init__(
        self,
        engine: TingMeasurer,
        x_fp: str,
        y_fp: str,
        policy: SamplePolicy,
        on_done: OnDone,
        on_error: OnError,
    ) -> None:
        self.engine = engine
        self.x, self.y = x_fp, y_fp
        self.policy = policy
        self.on_done, self.on_error = on_done, on_error
        self.path = (engine.w, x_fp, y_fp, engine.z)
        self.started = engine.host.sim.now
        self.span = engine.host.spans.begin(PAIR_SPAN, x=x_fp, y=y_fp)
        self.circuit = CircuitProbe(engine, self.path, self.span)
        self.probed: list[CircuitMeasurement] = []

    def start(self) -> None:
        """Build ``C_xy`` and probe it."""
        circuit = self.circuit
        circuit.build(
            lambda: circuit.probe(self.policy, self._pair_probed, self.fail),
            self.fail,
        )

    def _pair_probed(self, result) -> None:
        """``C_xy`` is probed: demand the legs, then combine."""
        engine = self.engine
        self.probed.append(engine.measurement(self.path, result, self.policy))
        carve = self._carve if engine.reuse_circuits else None
        if carve is None:
            self.circuit.close()
        self._demand(self.x, lambda: self._demand(self.y, self._combine), carve)

    def _carve(self, policy: SamplePolicy, done: OnDone, error: OnError) -> None:
        """Measure the x leg over ``C_xy``: keep (w, x), drop (y, z) with
        TRUNCATE, splice z back on with EXTEND, then probe."""
        engine, circuit, proxy = self.engine, self.circuit, self.engine.host.proxy

        def failed(_, reason: str) -> None:
            error(f"circuit reuse surgery failed for {self.x}: {reason}")

        def extended(_) -> None:
            engine.circuits_reused += 1
            circuit.probe(policy, done, error)

        try:
            proxy.truncate_circuit(
                circuit.circuit, 1,
                lambda cut: proxy.extend_circuit(cut, [engine.z], extended, failed),
                failed,
            )
        except CircuitError as exc:
            failed(None, str(exc))

    def _demand(self, fingerprint: str, then, launch=None) -> None:
        def ready(launched: bool) -> None:
            if launch is not None:  # C_xy was held open for the carve
                self.circuit.close()
            reason = self.engine.leg_failures.get(fingerprint)
            if reason is not None:
                self.fail(f"leg failed: {reason}")
                return
            if launched:
                self.probed.append(self.engine.legs[fingerprint])
            then()

        self.engine.demand_leg(fingerprint, self.policy, ready, launch)

    def _combine(self) -> None:
        legs = self.engine.legs
        cxy, leg_x, leg_y = self.probed[0], legs[self.x], legs[self.y]
        # Legs run at the full cap under adaptive policies (for_leg), so
        # only the pair circuit carries the remaining-excess correction.
        estimate = cxy.estimate_ms - leg_x.estimate_ms / 2.0 - leg_y.estimate_ms / 2.0
        self.span.end()
        self.on_done(
            TingResult(
                self.x, self.y, estimate, cxy, leg_x, leg_y,
                duration_ms=self.engine.host.sim.now - self.started,
                policy=self.policy,
                probed=self.probed,
            )
        )

    def fail(self, reason: str) -> None:
        """End the task with ``reason``."""
        self.span.end()
        self.on_error(reason)


class PairRecorder:
    """Where one pair's outcome is written down, whoever scheduled it.

    The matrix entry, the :class:`PairProvenance` row, the ``campaign.*``
    metrics and the ``campaign`` bus events — the
    shard-invariant event stream: one ``pair_started`` and one
    ``pair_measured`` / ``pair_failed`` per attempt, regardless of which
    worker runs it. ``report`` is the run's report: anything with a
    ``matrix`` and a ``failures`` list.
    """

    def __init__(self, host: MeasurementHost, report: Any) -> None:
        self.host = host
        self.report = report

    def started(self, x_fp: str, y_fp: str) -> None:
        """A pair task is about to launch."""
        if self.host.events.enabled:
            self.host.events.info("campaign", "pair_started", x=x_fp, y=y_fp)

    def measured(self, result: TingResult, retries: int) -> None:
        """A pair was measured.

        The provenance row counts only the circuits the pair itself
        probed: a leg found in the table is a cache hit, and its samples
        belong to the pair (or leg round) that measured it.
        """
        host, probed = self.host, result.probed
        x_fp, y_fp = result.x_fingerprint, result.y_fingerprint
        rtt, duration = result.rtt_clamped_ms, result.duration_ms
        self.report.matrix.set(x_fp, y_fp, rtt)
        if host.metrics.enabled:
            host.metrics.observe("campaign.pair_duration_ms", duration)
        if host.provenance is not None:
            host.provenance.add(
                PairProvenance(
                    x=x_fp,
                    y=y_fp,
                    status="measured",
                    rtt_ms=rtt,
                    cxy_ms=result.circuit_xy.estimate_ms,
                    leg_x_ms=result.circuit_x.estimate_ms,
                    leg_y_ms=result.circuit_y.estimate_ms,
                    samples_requested=result.policy.samples * len(probed),
                    samples_kept=sum(len(c.samples_ms) for c in probed),
                    samples_saved=sum(c.samples_saved for c in probed),
                    stop_reason=result.circuit_xy.stop_reason,
                    leg_cache_hits=3 - len(probed),
                    retries=retries,
                    duration_ms=duration,
                )
            )
        if host.events.enabled:
            host.events.info(
                "campaign", "pair_measured",
                x=x_fp, y=y_fp, rtt_ms=rtt, duration_ms=round(duration, 3),
            )

    def failed(
        self, x_fp: str, y_fp: str, reason: str, duration_ms: Milliseconds,
        retries: int, row: bool,
    ) -> None:
        """One attempt at a pair failed, ``duration_ms`` after it launched.

        ``row`` says whether it was the pair's last allowed attempt: the
        provenance log holds one row per pair, not per attempt.
        """
        host = self.host
        self.report.failures.append((x_fp, y_fp, reason))
        if host.metrics.enabled:
            category = categorize_failure(reason, host.metrics)
            host.metrics.inc(f"campaign.failures.{category}")
        if row and host.provenance is not None:
            host.provenance.add(
                PairProvenance(
                    x=x_fp,
                    y=y_fp,
                    status="failed",
                    retries=retries,
                    failure_category=categorize_failure(reason),
                    reason=reason,
                    duration_ms=duration_ms,
                )
            )
        if host.events.enabled:
            host.events.warning(
                "campaign", "pair_failed", x=x_fp, y=y_fp, reason=reason
            )
