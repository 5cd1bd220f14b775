"""A Stem-like controller for the simulated onion proxy.

The paper drives its unmodified Tor client through the Stem controller
library: build an explicit circuit, attach a TCP connection to it, tear
it down. :class:`Controller` provides the same surface here, in two
flavours:

* a programmatic API (``build_circuit``, ``open_stream``, ``close_circuit``,
  circuit surgery) with synchronous variants that drive the simulator
  until the operation resolves — what tests, the apps and the line
  protocol below use (Ting's engine, circuit reuse included, drives the
  proxy's callbacks directly, see :mod:`repro.core.ting`); and
* a line-oriented command protocol (``raw_command``) modelled on Tor's
  control-port grammar (``EXTENDCIRCUIT``, ``CLOSECIRCUIT``,
  ``GETINFO``, ``SETEVENTS``) for protocol-level tests and realism.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.netsim.engine import Simulator
from repro.tor.client import Circuit, OnionProxy, TorStream
from repro.tor.directory import RelayDescriptor
from repro.util.errors import CircuitError, ControlProtocolError, StreamError
from repro.util.units import Milliseconds


class SimFuture:
    """A one-shot result box resolved by simulator callbacks.

    ``wait`` drives the simulator until the future resolves, giving
    measurement code a synchronous veneer over the event-driven core.
    """

    def __init__(self, sim: Simulator) -> None:
        self._sim = sim
        self.done = False
        self.value: Any = None
        self.error: str | None = None

    def resolve(self, value: Any = None) -> None:
        """Complete the future successfully with ``value``."""
        if not self.done:
            self.done = True
            self.value = value

    def reject(self, error: str) -> None:
        """Fail the future with an error message."""
        if not self.done:
            self.done = True
            self.error = error

    def wait(self, max_events: int = 10_000_000) -> Any:
        """Run the simulator until resolution; raise on rejection.

        The run stops at the exact event that resolves the future, so
        unrelated far-future events (e.g. timeout guards) stay queued and
        the clock does not overshoot; a future already resolved by the
        call that started it processes no event at all.
        """
        if not self.done:
            self._sim.run(max_events=max_events, stop_when=lambda: self.done)
        if not self.done:
            raise CircuitError("simulation quiesced before operation completed")
        if self.error is not None:
            raise CircuitError(self.error)
        return self.value


class Controller:
    """Programmatic + textual control of one onion proxy."""

    def __init__(self, proxy: OnionProxy) -> None:
        self.proxy = proxy
        self.sim = proxy.sim
        self._event_log: list[str] = []
        self._subscribed: set[str] = set()
        self._event_listeners: list[Callable[[str], None]] = []

    # ------------------------------------------------------------------
    # Programmatic API

    def build_circuit(
        self,
        path: list[RelayDescriptor] | list[str],
        timeout_ms: Milliseconds = 60_000.0,
    ) -> Circuit:
        """Build a circuit through ``path`` and wait for completion."""
        future = SimFuture(self.sim)

        def built(circuit: Circuit) -> None:
            self._emit(f"CIRC {circuit.circ_id} BUILT")
            future.resolve(circuit)

        def failed(circuit: Circuit, reason: str) -> None:
            self._emit(f"CIRC {circuit.circ_id} FAILED REASON={reason}")
            future.reject(reason)

        self.proxy.create_circuit(path, built, failed, timeout_ms=timeout_ms)
        return future.wait()

    def open_stream(
        self,
        circuit: Circuit,
        address: str,
        port: int,
        timeout_ms: Milliseconds = 30_000.0,
    ) -> TorStream:
        """Attach a stream to ``circuit`` and wait until it connects."""
        future = SimFuture(self.sim)

        def connected(stream: TorStream) -> None:
            self._emit(f"STREAM {stream.stream_id} SUCCEEDED {address}:{port}")
            future.resolve(stream)

        def failed(reason: str) -> None:
            self._emit(f"STREAM FAILED {address}:{port} REASON={reason}")
            future.reject(reason)

        self.proxy.open_stream(
            circuit, address, port, connected, failed, timeout_ms=timeout_ms
        )
        try:
            return future.wait()
        except CircuitError as exc:
            raise StreamError(str(exc)) from None

    def close_circuit(self, circuit: Circuit) -> None:
        """Tear down ``circuit``."""
        self.proxy.close_circuit(circuit)
        self._emit(f"CIRC {circuit.circ_id} CLOSED")

    def truncate_circuit(
        self,
        circuit: Circuit,
        to_hop: int,
        timeout_ms: Milliseconds = 60_000.0,
    ) -> Circuit:
        """Truncate ``circuit`` so hop ``to_hop`` is its last relay."""
        future = SimFuture(self.sim)

        def truncated(circ: Circuit) -> None:
            self._emit(f"CIRC {circ.circ_id} TRUNCATED LEN={len(circ.path)}")
            future.resolve(circ)

        def failed(circ: Circuit, reason: str) -> None:
            self._emit(f"CIRC {circ.circ_id} FAILED REASON={reason}")
            future.reject(reason)

        self.proxy.truncate_circuit(circuit, to_hop, truncated, failed, timeout_ms)
        return future.wait()

    def extend_circuit(
        self,
        circuit: Circuit,
        additional_path: list[RelayDescriptor] | list[str],
        timeout_ms: Milliseconds = 60_000.0,
    ) -> Circuit:
        """Extend a built circuit in place and wait for completion."""
        future = SimFuture(self.sim)

        def built(circ: Circuit) -> None:
            self._emit(f"CIRC {circ.circ_id} BUILT")
            future.resolve(circ)

        def failed(circ: Circuit, reason: str) -> None:
            self._emit(f"CIRC {circ.circ_id} FAILED REASON={reason}")
            future.reject(reason)

        self.proxy.extend_circuit(circuit, additional_path, built, failed, timeout_ms)
        return future.wait()

    def get_network_statuses(self) -> list[RelayDescriptor]:
        """All relays in the proxy's current consensus (Stem's
        ``get_network_statuses``)."""
        return list(self.proxy.consensus.routers.values())

    def run_for(self, duration_ms: Milliseconds) -> None:
        """Advance the simulation by ``duration_ms``."""
        self.sim.run(until=self.sim.now + duration_ms)

    # ------------------------------------------------------------------
    # Events

    def add_event_listener(self, listener: Callable[[str], None]) -> None:
        """Receive controller event lines (CIRC/STREAM) as they happen."""
        self._event_listeners.append(listener)

    def _emit(self, event: str) -> None:
        kind = event.split(" ", 1)[0]
        if not self._subscribed or kind in self._subscribed:
            self._event_log.append(event)
        for listener in self._event_listeners:
            listener(event)

    def drain_events(self) -> list[str]:
        """Return and clear the buffered event lines."""
        events, self._event_log = self._event_log, []
        return events

    # ------------------------------------------------------------------
    # Line protocol (Tor control-port grammar, simplified)

    def raw_command(self, line: str) -> str:
        """Execute one control-port command line and return the reply."""
        line = line.strip()
        if not line:
            raise ControlProtocolError("empty command")
        verb, _, rest = line.partition(" ")
        verb = verb.upper()
        handler = getattr(self, f"_cmd_{verb.lower()}", None)
        if handler is None:
            return f'510 Unrecognized command "{verb}"'
        return handler(rest.strip())

    def _cmd_extendcircuit(self, args: str) -> str:
        parts = args.split()
        if len(parts) != 2:
            return "512 syntax: EXTENDCIRCUIT 0 fp1,fp2,..."
        circ_id_text, path_text = parts
        if circ_id_text != "0":
            return "552 only new circuits (id 0) are supported"
        fingerprints = [fp for fp in path_text.split(",") if fp]
        try:
            circuit = self.build_circuit(fingerprints)
        except CircuitError as exc:
            return f"552 {exc}"
        return f"250 EXTENDED {circuit.circ_id}"

    def _cmd_closecircuit(self, args: str) -> str:
        try:
            circ_id = int(args.split()[0])
        except (ValueError, IndexError):
            return "512 syntax: CLOSECIRCUIT <id>"
        circuit = self.proxy.circuits.get(circ_id)
        if circuit is None:
            return f"552 Unknown circuit {circ_id}"
        self.close_circuit(circuit)
        return "250 OK"

    def _cmd_setevents(self, args: str) -> str:
        self._subscribed = {kind.upper() for kind in args.split()}
        return "250 OK"

    def _cmd_getinfo(self, args: str) -> str:
        if args == "circuit-status":
            lines = [
                f"{c.circ_id} {c.state.upper()} "
                + ",".join(d.fingerprint for d in c.path)
                for c in self.proxy.circuits.values()
                if c.state in ("building", "built")
            ]
            body = "\n".join(lines)
            return f"250+circuit-status=\n{body}\n.\n250 OK"
        if args == "ns/all":
            lines = [
                f"r {d.nickname} {d.fingerprint} {d.address} {d.or_port}"
                for d in self.proxy.consensus.routers.values()
            ]
            body = "\n".join(lines)
            return f"250+ns/all=\n{body}\n.\n250 OK"
        return f'552 Unrecognized key "{args}"'

    def _cmd_signal(self, args: str) -> str:
        if args.upper() == "NEWNYM":
            return "250 OK"
        return f'552 Unrecognized signal "{args}"'
