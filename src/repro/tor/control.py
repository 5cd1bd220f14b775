"""A Stem-like controller for the simulated onion proxy.

The paper drives its unmodified Tor client through the Stem controller
library: build an explicit circuit, attach a TCP connection to it, tear
it down. :class:`Controller` offers those verbs (``build_circuit``,
``open_stream``, ``close_circuit``) plus circuit surgery
(``truncate_circuit``, ``extend_circuit``); all but ``close_circuit``
drive the simulator until the operation resolves. Tests, the benchmarks
and the apps use it; Ting's engine, circuit reuse included, drives the
proxy's callbacks directly (see :mod:`repro.core.ting`).
"""

from __future__ import annotations

from typing import Any

from repro.netsim.engine import Simulator
from repro.tor.client import Circuit, OnionProxy, TorStream
from repro.tor.directory import RelayDescriptor
from repro.util.errors import CircuitError, StreamError
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
    """Synchronous Stem-like control of one onion proxy."""

    def __init__(self, proxy: OnionProxy) -> None:
        self.proxy = proxy
        self.sim = proxy.sim

    def build_circuit(
        self,
        path: list[RelayDescriptor] | list[str],
        timeout_ms: Milliseconds = 60_000.0,
    ) -> Circuit:
        """Build a circuit through ``path`` and wait for completion."""
        future = SimFuture(self.sim)
        self.proxy.create_circuit(
            path, future.resolve, lambda _, reason: future.reject(reason),
            timeout_ms=timeout_ms,
        )
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
        self.proxy.open_stream(
            circuit, address, port, future.resolve, future.reject,
            timeout_ms=timeout_ms,
        )
        try:
            return future.wait()
        except CircuitError as exc:
            raise StreamError(str(exc)) from None

    def close_circuit(self, circuit: Circuit) -> None:
        """Tear down ``circuit``."""
        self.proxy.close_circuit(circuit)

    def truncate_circuit(
        self,
        circuit: Circuit,
        to_hop: int,
        timeout_ms: Milliseconds = 60_000.0,
    ) -> Circuit:
        """Truncate ``circuit`` so hop ``to_hop`` is its last relay."""
        future = SimFuture(self.sim)
        self.proxy.truncate_circuit(
            circuit, to_hop, future.resolve, lambda _, reason: future.reject(reason),
            timeout_ms,
        )
        return future.wait()

    def extend_circuit(
        self,
        circuit: Circuit,
        additional_path: list[RelayDescriptor] | list[str],
        timeout_ms: Milliseconds = 60_000.0,
    ) -> Circuit:
        """Extend a built circuit in place and wait for completion."""
        future = SimFuture(self.sim)
        self.proxy.extend_circuit(
            circuit, additional_path, future.resolve,
            lambda _, reason: future.reject(reason), timeout_ms,
        )
        return future.wait()
