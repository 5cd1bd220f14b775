"""Packet and stream transport over the event engine.

Three layers, bottom-up:

* :class:`NetworkFabric` — delivers :class:`Packet` objects between hosts
  after a sampled one-way delay (latency engine) plus serialization on the
  sender's access link. Hosts bind handlers to ports. Every host answers
  ICMP echoes natively, so :class:`IcmpPinger` works against any host.
* :class:`StreamConnection` — a minimal TCP abstraction: three-way-ish
  handshake (one RTT to establish), ordered message delivery, close. Tor's
  inter-relay links and the echo service ride on these.
* Probers — :class:`IcmpPinger` and :class:`TcpConnectProber` reproduce the
  paper's `ping` and `tcptraceroute` ground-truth instruments, including
  their exposure to per-network protocol policies.

Everything is callback-driven; experiment code schedules work and then
runs the simulator.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Callable

from repro.netsim.engine import Simulator
from repro.netsim.latency import LatencyEngine, Link
from repro.netsim.policies import TrafficClass
from repro.netsim.topology import Host
from repro.util.errors import SimulationError
from repro.util.units import Milliseconds

#: Port 0 is reserved for the fabric's built-in ICMP echo responder.
ICMP_PORT = 0

#: Default payload size (bytes) for bare packets; Tor cells override this.
DEFAULT_PACKET_BYTES = 64


@dataclass
class Packet:
    """A datagram in flight between two hosts."""

    src: Host
    dst: Host
    sport: int
    dport: int
    traffic_class: TrafficClass
    payload: Any
    size_bytes: int = DEFAULT_PACKET_BYTES
    sent_at: Milliseconds = 0.0


class NetworkFabric:
    """Moves packets between hosts and multiplexes ports and streams."""

    def __init__(self, sim: Simulator, latency: LatencyEngine) -> None:
        self.sim = sim
        self.latency = latency
        self._port_handlers: dict[tuple[int, int], Callable[[Packet], None]] = {}
        self._listeners: dict[tuple[int, int], Callable[["StreamConnection"], None]] = {}
        self._conn_ids = itertools.count(1)
        self._ephemeral = itertools.count(49152)
        # The wiring epoch ``OnionProxy._charted`` keys its memo by: moved
        # by every write that can break a charted path (DESIGN §5).
        self._wiring = 0

    # --- datagram layer -------------------------------------------------

    def bind(self, host: Host, port: int, handler: Callable[[Packet], None]) -> None:
        """Register ``handler`` for packets to ``host:port``."""
        if port == ICMP_PORT:
            raise SimulationError("port 0 is reserved for ICMP")
        key = (host.host_id, port)
        if key in self._port_handlers:
            raise SimulationError(f"port {port} already bound on {host.name}")
        self._port_handlers[key] = handler

    def unbind(self, host: Host, port: int) -> None:
        """Remove the handler for ``host:port`` (no-op if absent)."""
        self._port_handlers.pop((host.host_id, port), None)

    def is_bound(self, host: Host, port: int) -> bool:
        """Whether a datagram handler is registered for ``host:port``."""
        return (host.host_id, port) in self._port_handlers

    def send(self, packet: Packet) -> None:
        """Schedule delivery of ``packet`` after transit delay."""
        packet.sent_at = self.sim.now
        delay = self.latency.sample_one_way_ms(
            packet.src, packet.dst, packet.traffic_class
        ) + packet.src.serialization_delay_ms(packet.size_bytes)
        self.sim.schedule(delay, self._deliver, packet)

    def _deliver(self, packet: Packet) -> None:
        if packet.dport == ICMP_PORT:
            self._handle_icmp(packet)
            return
        handler = self._port_handlers.get((packet.dst.host_id, packet.dport))
        if handler is not None:
            handler(packet)
        # Unbound ports drop silently, as real networks do.

    def _handle_icmp(self, packet: Packet) -> None:
        kind, seq, echo_payload = packet.payload
        if kind == "echo-request":
            reply = Packet(
                src=packet.dst,
                dst=packet.src,
                sport=ICMP_PORT,
                dport=ICMP_PORT,
                traffic_class=TrafficClass.ICMP,
                payload=("echo-reply", seq, echo_payload),
                size_bytes=packet.size_bytes,
            )
            self.send(reply)
        elif kind == "echo-reply":
            handler = self._port_handlers.get((packet.dst.host_id, -1))
            if handler is not None:
                handler(packet)

    def bind_icmp_listener(
        self, host: Host, handler: Callable[[Packet], None]
    ) -> None:
        """Register a handler for ICMP echo replies arriving at ``host``."""
        self._port_handlers[(host.host_id, -1)] = handler

    def unbind_icmp_listener(self, host: Host) -> None:
        """Remove a host's ICMP echo-reply handler."""
        self._port_handlers.pop((host.host_id, -1), None)

    # --- stream layer -----------------------------------------------------

    def listen(
        self,
        host: Host,
        port: int,
        on_connection: Callable[["StreamConnection"], None],
    ) -> None:
        """Accept stream connections to ``host:port``."""
        key = (host.host_id, port)
        if key in self._listeners:
            raise SimulationError(f"already listening on {host.name}:{port}")
        self._listeners[key] = on_connection

    def stop_listening(self, host: Host, port: int) -> None:
        """Stop accepting stream connections on ``host:port``."""
        self._listeners.pop((host.host_id, port), None)

    def connect(
        self,
        src: Host,
        dst: Host,
        dport: int,
        traffic_class: TrafficClass,
        on_established: Callable[["StreamConnection"], None],
        on_failure: Callable[[str], None] | None = None,
    ) -> "StreamConnection":
        """Open a stream from ``src`` to ``dst:dport``.

        ``on_established`` fires one RTT later (SYN out, SYN-ACK back) if
        a listener exists; otherwise ``on_failure`` fires after the same
        round trip (connection refused).
        """
        conn_id = next(self._conn_ids)
        sport = next(self._ephemeral)
        client = StreamConnection(
            fabric=self,
            conn_id=conn_id,
            local=src,
            remote=dst,
            local_port=sport,
            remote_port=dport,
            traffic_class=traffic_class,
            is_client=True,
        )
        syn = Packet(
            src=src,
            dst=dst,
            sport=sport,
            dport=dport,
            traffic_class=traffic_class,
            payload=("syn", conn_id, sport),
            size_bytes=60,
        )
        client._on_established = on_established
        client._on_failure = on_failure
        self.sim.schedule(0.0, self._send_syn, syn, client)
        return client

    def _send_syn(self, syn: Packet, client: "StreamConnection") -> None:
        listener = self._listeners.get((syn.dst.host_id, syn.dport))
        delay_out = client.link().sample_ms() + syn.src.serialization_delay_ms(
            syn.size_bytes
        )
        if listener is None:
            # RST comes back after the full round trip.
            delay_back = self.latency.sample_one_way_ms(
                syn.dst, syn.src, syn.traffic_class
            )
            self.sim.schedule(delay_out + delay_back, client._refused)
            return
        self.sim.schedule(delay_out, self._accept, syn, client, listener)

    def _accept(
        self,
        syn: Packet,
        client: "StreamConnection",
        listener: Callable[["StreamConnection"], None],
    ) -> None:
        _, conn_id, sport = syn.payload
        server = StreamConnection(
            fabric=self,
            conn_id=conn_id,
            local=syn.dst,
            remote=syn.src,
            local_port=syn.dport,
            remote_port=sport,
            traffic_class=syn.traffic_class,
            is_client=False,
        )
        server.established = True
        client._peer = server
        server._peer = client
        listener(server)
        delay_back = server.link().sample_ms() + syn.dst.serialization_delay_ms(60)
        self.sim.schedule(delay_back, client._establish)

    def _transmit(
        self, conn: "StreamConnection", payload: Any, size_bytes: int
    ) -> None:
        peer = conn._peer
        if peer is None:
            raise SimulationError("stream has no peer (not established?)")
        self.sim.schedule_at(
            self.arrival_ms(conn, size_bytes, self.sim.now), peer._receive, payload
        )

    def arrival_ms(
        self, conn: "StreamConnection", size_bytes: int, now: Milliseconds
    ) -> Milliseconds:
        """When ``size_bytes`` written to ``conn`` at ``now`` reach its peer.

        Draws the segment's one-way delay and records the arrival on the
        connection. The one place a stream segment's timing is written:
        :meth:`_transmit` schedules the delivery at the result, a probe
        flight (:mod:`repro.tor.client`) walks on from it.
        """
        link = conn._link or conn.link()
        delay = link.sample_ms() + conn.local.serialization_delay_ms(size_bytes)
        # TCP delivers in order: never let a later segment overtake an
        # earlier one just because its sampled jitter was smaller.
        arrival = max(now + delay, conn._last_arrival + 1e-6)
        conn._last_arrival = arrival
        return arrival


class StreamConnection:
    """One endpoint of an established (or establishing) stream."""

    def __init__(
        self,
        fabric: NetworkFabric,
        conn_id: int,
        local: Host,
        remote: Host,
        local_port: int,
        remote_port: int,
        traffic_class: TrafficClass,
        is_client: bool,
    ) -> None:
        self.fabric = fabric
        self.conn_id = conn_id
        self.local = local
        self.remote = remote
        self.local_port = local_port
        self.remote_port = remote_port
        self.traffic_class = traffic_class
        self.is_client = is_client
        self.established = False
        self.closed = False
        self.on_data: Callable[[Any], None] | None = None
        self.on_close: Callable[[], None] | None = None
        #: The process serving this endpoint — whoever installed
        #: ``on_data`` may name itself here, so that a whole-path walker
        #: (a probe flight) can ask it what an arriving payload would
        #: meet instead of delivering one.
        self.owner: Any = None
        self._last_arrival: Milliseconds = 0.0
        #: When the process at this endpoint is done with the last cell it
        #: took off the connection (a relay's per-connection FIFO; see
        #: ``Relay.ready_ms``). Kept here so that it dies with the
        #: connection.
        self._queue_head: Milliseconds = 0.0
        # The direction this endpoint writes to, once it has written.
        self._link: Link | None = None
        self._peer: StreamConnection | None = None
        self._on_established: Callable[["StreamConnection"], None] | None = None
        self._on_failure: Callable[[str], None] | None = None

    def send(self, payload: Any, size_bytes: int = 512) -> None:
        """Deliver ``payload`` to the peer's ``on_data`` after transit."""
        if not self.established or self.closed:
            raise SimulationError("cannot send on a non-established stream")
        self.fabric._transmit(self, payload, size_bytes)

    def link(self) -> Link:
        """The direction this endpoint writes to (floor, jitter model and
        draw stream), looked up on first use."""
        link = self._link
        if link is None:
            link = self._link = self.fabric.latency.link(
                self.local, self.remote, self.traffic_class
            )
        return link

    def close(self) -> None:
        """Close both endpoints (peer's ``on_close`` fires after transit)."""
        if self.closed:
            return
        self.closed = True
        # Covers the peer's flag too, set after transit: a chart reads both.
        self.fabric._wiring += 1
        peer = self._peer
        if peer is not None and not peer.closed:
            self.fabric.sim.schedule(self.link().sample_ms(), peer._peer_closed)

    # --- internal callbacks -----------------------------------------------

    def _establish(self) -> None:
        self.established = True
        if self._on_established is not None:
            self._on_established(self)

    def _refused(self) -> None:
        self.closed = True
        if self._on_failure is not None:
            self._on_failure("connection refused")

    def _receive(self, payload: Any) -> None:
        if self.closed:
            return
        if self.on_data is not None:
            self.on_data(payload)

    def _peer_closed(self) -> None:
        self.closed = True
        if self.on_close is not None:
            self.on_close()

    def __repr__(self) -> str:
        state = "established" if self.established else "connecting"
        if self.closed:
            state = "closed"
        return (
            f"StreamConnection({self.local.name}:{self.local_port} -> "
            f"{self.remote.name}:{self.remote_port}, {state})"
        )


class IcmpPinger:
    """Sends ICMP echo requests and reports RTTs (the paper's ``ping``)."""

    def __init__(self, fabric: NetworkFabric, src: Host) -> None:
        self.fabric = fabric
        self.src = src
        self._pending: dict[int, Milliseconds] = {}
        self._seq = itertools.count()
        self._rtts: list[Milliseconds] = []
        self._want = 0
        self._on_done: Callable[[list[Milliseconds]], None] | None = None
        fabric.bind_icmp_listener(src, self._on_reply)

    def ping(
        self,
        dst: Host,
        count: int,
        interval_ms: Milliseconds = 20.0,
        on_done: Callable[[list[Milliseconds]], None] | None = None,
    ) -> None:
        """Send ``count`` echoes, ``interval_ms`` apart; collect RTTs."""
        if count < 1:
            raise ValueError("count must be >= 1")
        self._rtts = []
        self._want = count
        self._on_done = on_done
        for i in range(count):
            self.fabric.sim.schedule(i * interval_ms, self._send_one, dst)

    def _send_one(self, dst: Host) -> None:
        seq = next(self._seq)
        self._pending[seq] = self.fabric.sim.now
        packet = Packet(
            src=self.src,
            dst=dst,
            sport=ICMP_PORT,
            dport=ICMP_PORT,
            traffic_class=TrafficClass.ICMP,
            payload=("echo-request", seq, None),
            size_bytes=64,
        )
        self.fabric.send(packet)

    def _on_reply(self, packet: Packet) -> None:
        _, seq, _ = packet.payload
        sent_at = self._pending.pop(seq, None)
        if sent_at is None:
            return
        self._rtts.append(self.fabric.sim.now - sent_at)
        if len(self._rtts) >= self._want and self._on_done is not None:
            done, self._on_done = self._on_done, None
            done(list(self._rtts))

    def measure_min_rtt(self, dst: Host, count: int = 100) -> Milliseconds:
        """Synchronous helper: run the simulator and return the min RTT."""
        result: list[Milliseconds] = []
        self.ping(dst, count, on_done=result.extend)
        self.fabric.sim.run_until_idle()
        if len(result) < count:
            raise SimulationError("ping replies lost")
        return min(result)


class TcpConnectProber:
    """Measures RTT via TCP handshakes (the paper's ``tcptraceroute``)."""

    #: Listener port probes target; testbed hosts bind a discard service here.
    PROBE_PORT = 9

    def __init__(self, fabric: NetworkFabric, src: Host) -> None:
        self.fabric = fabric
        self.src = src

    def probe(
        self,
        dst: Host,
        count: int,
        interval_ms: Milliseconds = 20.0,
        on_done: Callable[[list[Milliseconds]], None] | None = None,
    ) -> None:
        """Run ``count`` handshake probes and report the RTT list."""
        rtts: list[Milliseconds] = []

        def launch_one() -> None:
            started = self.fabric.sim.now

            def established(conn: StreamConnection) -> None:
                rtts.append(self.fabric.sim.now - started)
                conn.close()
                if len(rtts) >= count and on_done is not None:
                    on_done(list(rtts))

            def failed(reason: str) -> None:
                # Refused still measures a full round trip (RST-based probe).
                rtts.append(self.fabric.sim.now - started)
                if len(rtts) >= count and on_done is not None:
                    on_done(list(rtts))

            self.fabric.connect(
                self.src, dst, self.PROBE_PORT, TrafficClass.TCP, established, failed
            )

        for i in range(count):
            self.fabric.sim.schedule(i * interval_ms, launch_one)

    def measure_min_rtt(self, dst: Host, count: int = 100) -> Milliseconds:
        """Synchronous helper: run the simulator and return the min RTT."""
        result: list[Milliseconds] = []
        self.probe(dst, count, on_done=result.extend)
        self.fabric.sim.run_until_idle()
        if not result:
            raise SimulationError("no TCP probe completed")
        return min(result)
