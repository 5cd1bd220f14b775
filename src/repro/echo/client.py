"""The measuring echo client (the paper's ``s``).

Given a Tor stream attached to a circuit that exits at the echo server,
the client sends numbered probe payloads and records the time until each
comes back. One probe round-trip traverses the entire circuit out and
back — the quantity every Ting equation is written in.
"""

from __future__ import annotations

import functools
import struct
from dataclasses import dataclass, field

from repro.netsim.engine import Simulator
from repro.obs import NULL_EVENTS, NULL_METRICS
from repro.tor.client import TorStream
from repro.tor.control import SimFuture
from repro.util.errors import MeasurementError, SimulationError
from repro.util.units import Milliseconds

_PROBE = struct.Struct("!IQ")  # sequence number, nonce

#: Default probe-run deadline; matches ``SamplePolicy.timeout_ms`` so a
#: bare client run and a policy-driven run behave the same.
DEFAULT_PROBE_TIMEOUT_MS: Milliseconds = 600_000.0


@dataclass
class EchoProbeResult:
    """RTT samples from one echo run over one circuit.

    ``stopped_early`` is set when an adaptive policy's convergence rule
    terminated the run before the sample cap; ``samples_saved`` is then
    the number of probes the cap allowed but the run never sent.
    ``stop_reason`` records why a run ended short of the cap
    (``"converged"``, ``"deadline"``, ``"stream_death"``); it stays
    ``None`` for a full fixed-count run.
    """

    rtts_ms: list[Milliseconds] = field(default_factory=list)
    sent: int = 0
    received: int = 0
    stopped_early: bool = False
    samples_saved: int = 0
    stop_reason: str | None = None

    @property
    def loss(self) -> int:
        """Probes sent but never answered."""
        return self.sent - self.received


class EchoClient:
    """Sends echo probes over a Tor stream and times the replies."""

    def __init__(self, sim: Simulator) -> None:
        self.sim = sim
        self._nonce = 0
        #: Observability sinks; no-ops unless a live registry is wired in.
        self.metrics = NULL_METRICS
        self.events = NULL_EVENTS

    def probe(
        self,
        stream: TorStream,
        samples: int,
        interval_ms: Milliseconds | None = 5.0,
        timeout_ms: Milliseconds = DEFAULT_PROBE_TIMEOUT_MS,
        adaptive=None,
    ) -> EchoProbeResult:
        """Send ``samples`` probes and return the collected RTTs.

        With a numeric ``interval_ms``, probes are paced on a timer (a
        small spacing keeps a probe's queueing from being self-inflicted
        by its siblings while pipelining the run). With
        ``interval_ms=None`` the client runs **ping-pong**: each probe is
        sent only after the previous reply returns — the paper's serial
        measurement loop, whose wall-clock cost is ~samples x RTT.

        ``adaptive`` (an :class:`~repro.core.sampling.AdaptiveSpec`)
        turns ``samples`` into a cap: the run ends as soon as the
        running minimum plateaus, reporting ``stopped_early`` and
        ``samples_saved`` on the result.

        This synchronous form drives the simulator until done; use
        :meth:`probe_async` from orchestration code that runs several
        measurements concurrently.
        """
        future = SimFuture(self.sim)
        self.probe_async(
            stream,
            samples,
            on_done=future.resolve,
            on_error=future.reject,
            interval_ms=interval_ms,
            timeout_ms=timeout_ms,
            adaptive=adaptive,
        )
        return future.wait()

    def probe_async(
        self,
        stream: TorStream,
        samples: int,
        on_done: "callable",
        on_error: "callable",
        interval_ms: Milliseconds | None = 5.0,
        timeout_ms: Milliseconds = DEFAULT_PROBE_TIMEOUT_MS,
        adaptive=None,
    ) -> None:
        """Callback form of :meth:`probe`: schedules the probe run and
        returns immediately; ``on_done(EchoProbeResult)`` or
        ``on_error(reason)`` fires when it resolves.

        Partial results are handled uniformly: whether the run ends at
        the deadline or because the stream died mid-run, any already-
        collected RTT samples are delivered via ``on_done`` (the minimum
        filter works on what arrived); ``on_error`` fires only when a
        run ends with zero replies.
        """
        if samples < 1:
            raise MeasurementError("samples must be >= 1")
        result = EchoProbeResult()
        in_flight: dict[int, Milliseconds] = {}
        pingpong = interval_ms is None
        state = {"finished": False}
        metrics = self.metrics
        events = self.events
        if events.enabled:
            events.debug(
                "probe",
                "round_started",
                samples=samples,
                adaptive=adaptive is not None,
            )
        # O(1)-per-reply convergence check; None keeps the fixed-count
        # path untouched (and bit-for-bit identical).
        tracker = adaptive.make_tracker() if adaptive is not None else None

        def account_finished() -> None:
            if metrics.enabled and result.loss > 0:
                metrics.inc("echo.probes_lost", result.loss)

        def finish_ok() -> None:
            if not state["finished"]:
                state["finished"] = True
                deadline.cancel()
                account_finished()
                if events.enabled:
                    events.debug(
                        "probe",
                        "round_finished",
                        sent=result.sent,
                        received=result.received,
                        saved=result.samples_saved,
                        stop_reason=result.stop_reason,
                    )
                on_done(result)

        def finish_error(reason: str) -> None:
            if not state["finished"]:
                state["finished"] = True
                deadline.cancel()
                account_finished()
                if events.enabled:
                    events.warning(
                        "probe",
                        "round_failed",
                        sent=result.sent,
                        reason=reason,
                    )
                on_error(reason)

        def landed(payload: bytes | None, lands: list | None = None) -> None:
            # One reply (``payload``), or a walked round's replies landing
            # at ``lands``: the probe in flight's first, then each a send
            # the walk made at the landing before it.
            if lands is not None:
                sent_at = in_flight.pop(result.sent - 1)
            elif state["finished"] or len(payload) != _PROBE.size:
                # A reply landing after the run resolved (early stop or
                # deadline with probes still in flight) must not mutate
                # the already-delivered result.
                return
            else:
                sent_at = in_flight.pop(_PROBE.unpack(payload)[0], None)
                if sent_at is None:
                    return
                lands = [self.sim.now]
            last = len(lands) - 1
            for k, at in enumerate(lands):
                if k:
                    self._nonce += 1
                    result.sent += 1
                    if metrics.enabled:
                        metrics.inc("echo.probes_sent")
                rtt = at - sent_at
                sent_at = at
                result.rtts_ms.append(rtt)
                result.received += 1
                if metrics.enabled:
                    metrics.inc("echo.probes_received")
                    metrics.observe("echo.rtt_ms", rtt)
                full = result.received >= samples
                if not full and (tracker is None or not tracker.update(rtt)):
                    continue
                if k < last:
                    raise SimulationError(
                        f"a probe round of {samples} ends at reply "
                        f"{result.received} of a walked round of {len(lands)} "
                        f"promised to run to reply {result.received - k + last}"
                    )
                if not full:
                    result.stopped_early = True
                    result.stop_reason = "converged"
                    result.samples_saved = samples - result.sent
                    if metrics.enabled:
                        metrics.inc("echo.early_stops")
                        metrics.inc("echo.probes_saved", result.samples_saved)
                finish_ok()
                return
            if pingpong and result.sent < samples:
                if self.sim.quiet_through(self.sim.now):
                    # Nothing else due now and nothing after this draws
                    # or schedules: a +0 event's order, bar a
                    # run(max_events=) that stops here (DESIGN §5).
                    send_next(result.sent)
                else:
                    self.sim.schedule(0.0, send_next, result.sent)

        stream.on_data = landed
        stream.on_round = functools.partial(landed, None)

        def send_next(seq: int) -> None:
            if state["finished"]:
                return
            if stream.state != "open":
                # Mid-run stream death: keep whatever already came back
                # rather than discarding collected samples (a minimum
                # over a shortened run is still a valid estimate).
                if result.rtts_ms:
                    result.stop_reason = "stream_death"
                    finish_ok()
                else:
                    finish_error(f"stream became {stream.state}")
                return
            self._nonce += 1
            in_flight[seq] = self.sim.now
            result.sent += 1
            if metrics.enabled:
                metrics.inc("echo.probes_sent")
            # The next send is arranged before this one goes out, so the
            # onion proxy can see that this sender does not wait for the
            # reply (a probe flight needs a quiet round trip; launched
            # first, it would have to be taken back).
            if not pingpong and seq + 1 < samples:
                self.sim.schedule(interval_ms, send_next, seq + 1)
            # Sends sure to follow: to the cap, or before a stop could come.
            follows = samples - result.sent if pingpong else 0
            if tracker is not None:
                follows = min(follows, tracker.replies_before_stop() - 1)
            stream.send(_PROBE.pack(seq, self._nonce), follows)

        def deadline_hit() -> None:
            # Accept partial results if we got anything; else a failure.
            if result.rtts_ms:
                result.stop_reason = "deadline"
                finish_ok()
            else:
                finish_error("echo probe deadline with zero replies")

        deadline = self.sim.schedule(timeout_ms, deadline_hit)
        self.sim.schedule(0.0, send_next, 0)
