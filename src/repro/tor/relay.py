"""The Tor relay: circuit switching, onion layers, forwarding delays.

A :class:`Relay` listens for OR connections, answers CREATE handshakes,
switches RELAY cells between hops (peeling one onion layer forward,
adding one backward), extends circuits on request, and opens exit
streams subject to its exit policy.

Every cell a relay handles pays a sampled *forwarding delay*
(:class:`ForwardingDelayModel`): the paper's F_x term — user-space
scheduling, queueing behind other circuits, and symmetric crypto. Its
minimum is the crypto floor (the paper measures 0–3 ms); its tail grows
with relay load, which is why Ting takes the minimum of many samples.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from typing import Callable

from repro.netsim.engine import Simulator
from repro.netsim.policies import TrafficClass
from repro.netsim.topology import Host, Topology
from repro.obs import DEBUG, NULL_EVENTS, NULL_METRICS, WARNING
from repro.netsim.transport import NetworkFabric, StreamConnection
from repro.tor.cells import (
    CELL_SIZE_BYTES,
    Cell,
    CellCommand,
    CellError,
    RELAY_DATA_LEN,
    RelayCellBody,
    RelayCommand,
)
from repro.tor.crypto import (
    CryptoError,
    RelayCryptoState,
    RelayIdentity,
    ServerHandshake,
)
from repro.tor.directory import ExitPolicy, RelayDescriptor
from repro.util.rng import BLOCK_WORDS, DrawStream
from repro.util.units import Milliseconds


class ForwardingDelayModel:
    """Samples the per-cell processing delay at one relay.

    ``crypto_floor_ms`` is the deterministic minimum (symmetric crypto +
    context switch). On top of that, with probability ``load`` the cell
    waits behind other circuits for an exponential time, and rarely it
    hits a long burst (scheduler stall, bandwidth throttle refill).
    """

    #: Whether :meth:`sample` reads the simulated clock. A subclass that
    #: does must say so: a probe flight works out every hop of a path
    #: inside one event (inline, from these parameters), with the clock
    #: still at the launch instant, and leaves a path with such a model
    #: on it to the cell path; task isolation, which restarts the clock
    #: for every task, refuses a world that holds one.
    reads_clock = False

    def __init__(
        self,
        crypto_floor_ms: Milliseconds = 0.4,
        load: float = 0.3,
        queue_scale_ms: Milliseconds = 1.5,
        burst_probability: float = 0.02,
        burst_scale_ms: Milliseconds = 30.0,
    ) -> None:
        if crypto_floor_ms < 0 or queue_scale_ms < 0 or burst_scale_ms < 0:
            raise ValueError("delay parameters must be non-negative")
        if not 0.0 <= load <= 1.0:
            raise ValueError(f"load must be in [0, 1], got {load}")
        if not 0.0 <= burst_probability <= 1.0:
            raise ValueError("burst_probability must be in [0, 1]")
        self.crypto_floor_ms = crypto_floor_ms
        self.load = load
        self.queue_scale_ms = queue_scale_ms
        self.burst_probability = burst_probability
        self.burst_scale_ms = burst_scale_ms

    def sample(self, draws: DrawStream) -> Milliseconds:
        """One cell's forwarding delay in milliseconds: the next draw of
        ``draws`` (the relay's own stream), read as queueing coin ``u0``,
        wait ``e0``, burst coin ``u1``, burst ``e1``."""
        # DrawStream.take, inline.
        i = draws.pos
        if i == BLOCK_WORDS:
            draws.fill(draws.base + i)
            i = 0
        draws.pos = i + 2
        u, e = draws.u, draws.e
        delay = self.crypto_floor_ms
        load = self.load
        if u[i] < load:
            delay += self.queue_scale_ms * e[i]
        if u[i + 1] < self.burst_probability * (0.05 if 0.05 > load else load):
            delay += self.burst_scale_ms * e[i + 1]
        return delay

    @classmethod
    def quiet(cls) -> "ForwardingDelayModel":
        """A lightly loaded relay (e.g. the measurement host's w and z)."""
        return cls(crypto_floor_ms=0.15, load=0.05, queue_scale_ms=0.5)


class ServiceQueue:
    """A work-conserving single-server queue for a relay's cell traffic.

    Optional (off by default): with a queue attached, every cell also
    occupies the relay's forwarding capacity for ``service_time_ms``, so
    *competing traffic genuinely delays other circuits* — the physical
    effect Murdoch–Danezis congestion probing exploits. The statistical
    :class:`ForwardingDelayModel` still supplies background (unmodelled
    cross-traffic) noise on top.

    ``bandwidth_kbytes_s`` follows the consensus convention (KB/s).
    """

    def __init__(self, bandwidth_kbytes_s: float, cell_bytes: int = 512) -> None:
        if bandwidth_kbytes_s <= 0:
            raise ValueError("bandwidth must be positive")
        self.service_time_ms = cell_bytes / bandwidth_kbytes_s
        self._busy_until: Milliseconds = 0.0
        self.cells_served = 0

    def admit(self, now: Milliseconds) -> Milliseconds:
        """Admit one cell; return the time its service completes."""
        start = max(now, self._busy_until)
        self._busy_until = start + self.service_time_ms
        self.cells_served += 1
        return self._busy_until

    def backlog_ms(self, now: Milliseconds) -> Milliseconds:
        """How long a cell arriving now would wait before service."""
        return max(0.0, self._busy_until - now)

    def mark(self) -> tuple[Milliseconds, int]:
        """The queue's state, for :meth:`rewind` to put back."""
        return self._busy_until, self.cells_served

    def rewind(self, mark: tuple[Milliseconds, int]) -> None:
        """Forget every admission since ``mark`` was taken."""
        self._busy_until, self.cells_served = mark

    def forget_clock(self) -> None:
        """Go idle (the clock ``_busy_until`` was read on is restarting)."""
        self._busy_until = 0.0


class DiurnalForwardingDelayModel(ForwardingDelayModel):
    """A forwarding-delay model whose load follows a daily cycle.

    Real relay load swings with its users' time zones; the queueing tail
    swells at peak hours while the crypto floor stays put. Ting's
    min-of-N filter is designed to see through exactly this: the
    stability experiments use this model to show minute-to-minute
    estimates staying flat while raw sample means oscillate.
    """

    PERIOD_MS = 24.0 * 3600.0 * 1000.0

    reads_clock = True

    def __init__(
        self,
        sim: Simulator,
        base_load: float = 0.1,
        peak_load: float = 0.7,
        phase_ms: Milliseconds = 0.0,
        **kwargs,
    ) -> None:
        if not 0.0 <= base_load <= peak_load <= 1.0:
            raise ValueError("need 0 <= base_load <= peak_load <= 1")
        super().__init__(load=base_load, **kwargs)
        self._sim = sim
        self.base_load = base_load
        self.peak_load = peak_load
        self.phase_ms = phase_ms

    def current_load(self) -> float:
        """The instantaneous load for the simulator's current time."""
        import math

        angle = 2.0 * math.pi * (self._sim.now + self.phase_ms) / self.PERIOD_MS
        swing = 0.5 * (1.0 + math.sin(angle))
        return self.base_load + (self.peak_load - self.base_load) * swing

    def sample(self, draws: DrawStream) -> Milliseconds:
        self.load = self.current_load()
        return super().sample(draws)


@dataclass
class _CircuitEntry:
    """A relay's per-circuit switching state."""

    prev_conn: StreamConnection
    prev_circ_id: int
    crypto: RelayCryptoState
    next_conn: StreamConnection | None = None
    next_circ_id: int | None = None
    # Exit streams carried on this circuit, keyed by stream id.
    exit_streams: dict[int, StreamConnection] = field(default_factory=dict)
    torn_down: bool = False


class Relay:
    """One Tor relay process bound to a simulated host."""

    #: Service-queue backlog (ms of waiting cells) at or above which a
    #: ``relay``/``queue_saturated`` warning event fires.
    QUEUE_SATURATION_MS = 50.0

    #: Minimum simulated time between saturation events per relay — a
    #: saturated queue would otherwise emit once per arriving cell.
    SATURATION_COOLDOWN_MS = 1000.0

    def __init__(
        self,
        sim: Simulator,
        fabric: NetworkFabric,
        topology: Topology,
        host: Host,
        nickname: str,
        or_port: int = 9001,
        bandwidth_kbps: int = 1024,
        exit_policy: ExitPolicy | None = None,
        forwarding_model: ForwardingDelayModel | None = None,
        identity: RelayIdentity | None = None,
        family: frozenset[str] = frozenset(),
        service_queue: "ServiceQueue | None" = None,
    ) -> None:
        self.sim = sim
        self.fabric = fabric
        self.topology = topology
        self.host = host
        self.nickname = nickname
        self.or_port = or_port
        self.bandwidth_kbps = bandwidth_kbps
        self.exit_policy = exit_policy or ExitPolicy.reject_all()
        self.fingerprint = RelayDescriptor.make_fingerprint(
            nickname, host.address, or_port
        )
        self.identity = identity or RelayIdentity.generate(
            entropy=self.fingerprint.encode().ljust(32, b"\x00")[:32]
        )
        self.forwarding = forwarding_model or ForwardingDelayModel()
        #: This relay's own draw stream, named by the fingerprint: the same
        #: forwarding delays in every interpreter, whoever else draws.
        self.draws = fabric.latency.draws.stream(f"relay:{self.fingerprint}")
        self.family = family
        self.service_queue = service_queue

        self.cells_processed = 0
        #: Observability sinks; no-ops unless live ones are wired in.
        self.metrics = NULL_METRICS
        self.events = NULL_EVENTS
        # Sim time of the last queue-saturation event, for rate limiting.
        self._last_saturation_ms = -float("inf")

        #: Set by a testbed that resets connections between tasks: the
        #: relay adds itself whenever it accepts or opens an OR
        #: connection, so the reset visits only relays with state to drop.
        self.conn_registry: set[Relay] | None = None

        # Outbound OR connections keyed by "address:port".
        self._or_conns: dict[str, StreamConnection] = {}
        # Circuit table keyed by (id(conn), circ_id) for each direction.
        self._circuits: dict[tuple[int, int], _CircuitEntry] = {}
        # Reverse index: which (conn, circ_id) is the *next*-hop side.
        self._next_side: dict[tuple[int, int], _CircuitEntry] = {}
        self._circ_id_counter = itertools.count(1)
        self._online = True

        fabric.listen(host, or_port, self._accept_or_connection)

    # ------------------------------------------------------------------
    # Descriptor

    def descriptor(self, published_at_ms: float = 0.0) -> RelayDescriptor:
        """This relay's directory descriptor."""
        return RelayDescriptor(
            nickname=self.nickname,
            fingerprint=self.fingerprint,
            address=self.host.address,
            or_port=self.or_port,
            identity_public=self.identity.public,
            bandwidth_kbps=self.bandwidth_kbps,
            exit_policy=self.exit_policy,
            family=self.family,
            published_at_ms=published_at_ms,
        )

    # ------------------------------------------------------------------
    # OR connection handling

    def _accept_or_connection(self, conn: StreamConnection) -> None:
        if self.conn_registry is not None:
            self.conn_registry.add(self)
        conn.owner = self
        conn.on_data = functools.partial(self._cell_arrived, conn)

    def _or_conn_to(
        self, address: str, port: int, on_ready: Callable[[StreamConnection], None]
    ) -> None:
        """Get or open an OR connection to a peer relay."""
        key = f"{address}:{port}"
        existing = self._or_conns.get(key)
        if existing is not None and existing.established and not existing.closed:
            on_ready(existing)
            return
        if existing is not None and not existing.closed:
            # Still connecting; chain onto establishment.
            previous = existing._on_established

            def chained(conn: StreamConnection) -> None:
                if previous is not None:
                    previous(conn)
                on_ready(conn)

            existing._on_established = chained
            return
        target = self.topology.host_by_address(address)
        if self.conn_registry is not None:
            self.conn_registry.add(self)

        def established(conn: StreamConnection) -> None:
            conn.owner = self
            conn.on_data = functools.partial(self._cell_arrived, conn)
            on_ready(conn)

        def failed(reason: str) -> None:
            self._or_conns.pop(key, None)

        conn = self.fabric.connect(
            self.host, target, port, TrafficClass.TOR, established, failed
        )
        self._or_conns[key] = conn

    # ------------------------------------------------------------------
    # Cell dispatch

    def _cell_arrived(self, conn: StreamConnection, cell: Cell) -> None:
        """Every arriving cell pays this relay's forwarding delay first.

        Processing is FIFO per connection (the relay's cell queue): a
        cell's sampled delay can stretch its wait but never lets a later
        cell overtake it — otherwise the per-hop stream ciphers, which
        must advance in lockstep on both sides, would desynchronize.
        """
        now = self.sim.now
        ready_at = self.ready_ms(conn, now)
        if self.service_queue is not None and self.saturation_due(now, ready_at):
            self._last_saturation_ms = now
            self.events.warning(
                "relay",
                "queue_saturated",
                relay=self.nickname,
                backlog_ms=round(ready_at - now, 3),
            )
        self.sim.schedule_at(ready_at, self._process_cell, conn, cell)

    def ready_ms(self, conn: StreamConnection, now: Milliseconds) -> Milliseconds:
        """When a cell arriving on ``conn`` at ``now`` is ready to be processed.

        Draws the cell's forwarding delay, holds it behind the
        connection's previous cell, admits it to the service queue, and
        records the result as the connection's new queue head. The one
        place a cell's wait at this relay is written:
        :meth:`_cell_arrived` schedules the processing at the result, a
        probe flight (:mod:`repro.tor.client`) walks on from it.
        """
        # max(a, b) is `if b > a: a = b` here, as in the flight's walk.
        ready_at = now + self.forwarding.sample(self.draws)
        head = conn._queue_head + 1e-6
        if head > ready_at:
            ready_at = head
        queue = self.service_queue
        if queue is not None:
            # Real queueing: this cell also has to wait for the relay's
            # forwarding capacity, shared with every other circuit.
            admitted = queue.admit(now)
            if admitted > ready_at:
                ready_at = admitted
        conn._queue_head = ready_at
        return ready_at

    def floor_ms(self) -> Milliseconds:
        """The least :meth:`ready_ms` can add to an arrival time."""
        floor = self.forwarding.crypto_floor_ms
        if self.service_queue is not None:
            floor = max(floor, self.service_queue.service_time_ms)
        return floor

    def saturation_due(self, now: Milliseconds, ready_at: Milliseconds) -> bool:
        """Whether a cell held in the service queue from ``now`` to
        ``ready_at`` warrants a ``queue_saturated`` event (bus live,
        backlog at the threshold, cooldown over)."""
        return (
            self.events.enabled
            and ready_at - now >= self.QUEUE_SATURATION_MS
            and now - self._last_saturation_ms >= self.SATURATION_COOLDOWN_MS
        )

    def _process_cell(self, conn: StreamConnection, cell: Cell) -> None:
        command = cell.command
        if command is CellCommand.RELAY:
            self.count_cell(True)
            # switch(), inline: the one lookup every relayed cell makes.
            key = (id(conn), cell.circ_id)
            entry = self._circuits.get(key)
            if entry is not None and not entry.torn_down:
                self._relay_forward(entry, cell)
                return
            entry = self._next_side.get(key)
            if entry is not None and not entry.torn_down:
                self._relay_backward(entry, cell)
                return
            self._send_cell(
                conn, Cell(cell.circ_id, CellCommand.DESTROY, "unknown circuit")
            )
            return
        self.count_cell(False)
        if command is CellCommand.CREATE:
            self._handle_create(conn, cell)
        elif command is CellCommand.CREATED:
            self._handle_created(conn, cell)
        elif command is CellCommand.DESTROY:
            self._handle_destroy(conn, cell)
        # PADDING and unknown commands are dropped.

    def count_cell(self, relayed: bool) -> None:
        """Account for one cell processed here (a RELAY cell if ``relayed``)."""
        self.cells_processed += 1
        metrics = self.metrics
        if metrics.enabled:
            metrics.inc("relay.cells_processed")
            if relayed:
                metrics.inc("relay.cells_relayed")

    def _handle_create(self, conn: StreamConnection, cell: Cell) -> None:
        key = (id(conn), cell.circ_id)
        if key in self._circuits:
            self._send_cell(conn, Cell(cell.circ_id, CellCommand.DESTROY, "duplicate"))
            return
        try:
            created_payload, keys = ServerHandshake(self.identity).respond(cell.payload)
        except CryptoError:
            self._send_cell(conn, Cell(cell.circ_id, CellCommand.DESTROY, "handshake"))
            return
        self._circuits[key] = _CircuitEntry(
            prev_conn=conn, prev_circ_id=cell.circ_id, crypto=RelayCryptoState(keys)
        )
        self._send_cell(conn, Cell(cell.circ_id, CellCommand.CREATED, created_payload))

    def _handle_created(self, conn: StreamConnection, cell: Cell) -> None:
        entry = self._next_side.get((id(conn), cell.circ_id))
        if entry is None or entry.torn_down:
            return
        # Relay the handshake back to the client as EXTENDED.
        self._send_backward(entry, RelayCommand.EXTENDED, 0, cell.payload)

    # --- RELAY cells ----------------------------------------------------

    def switch(
        self, conn: StreamConnection, circ_id: int
    ) -> tuple[_CircuitEntry | None, bool]:
        """The live circuit a RELAY cell arriving on ``conn`` belongs to,
        and whether it travels forward (away from the client);
        ``(None, False)`` for a circuit this relay does not carry.
        (:meth:`_process_cell` makes the same lookup inline.)"""
        key = (id(conn), circ_id)
        entry = self._circuits.get(key)
        if entry is not None and not entry.torn_down:
            return entry, True
        entry = self._next_side.get(key)
        if entry is not None and not entry.torn_down:
            return entry, False
        return None, False

    # A relayed cell goes on as the same Cell, re-addressed to the next
    # (or previous) hop: it belongs to whichever hop holds it (see Cell).

    def _relay_forward(self, entry: _CircuitEntry, cell: Cell) -> None:
        body = entry.crypto.peel_forward(cell.payload)
        if self._recognize(entry, body):
            try:
                parsed = RelayCellBody.unpack(body)
            except CellError:
                self._teardown(entry, reason="malformed relay cell")
                return
            self._handle_recognized(entry, parsed)
            return
        if entry.next_conn is None or entry.next_circ_id is None:
            # Unrecognized at the last hop: protocol violation.
            self._teardown(entry, reason="unrecognized cell at circuit end")
            return
        cell.circ_id, cell.payload = entry.next_circ_id, body
        self._send_cell(entry.next_conn, cell)

    def _relay_backward(self, entry: _CircuitEntry, cell: Cell) -> None:
        body = entry.crypto.wrap_backward(cell.payload)
        cell.circ_id, cell.payload = entry.prev_circ_id, body
        self._send_cell(entry.prev_conn, cell)

    def _recognize(self, entry: _CircuitEntry, body: bytes) -> bool:
        """Tor's 'recognized' check: zero field plus running-digest match."""
        if body[1:3] != b"\x00\x00":
            return False
        digest = body[5:9]
        zeroed = body[:5] + b"\x00\x00\x00\x00" + body[9:]
        # commit() hashes once: it advances the running digest only on a
        # tag match, so recognized cells are no longer hashed twice.
        return entry.crypto.forward_digest.commit(zeroed, digest)

    def _handle_recognized(self, entry: _CircuitEntry, body: RelayCellBody) -> None:
        command = body.relay_command
        if command is RelayCommand.EXTEND:
            self._handle_extend(entry, body)
        elif command is RelayCommand.BEGIN:
            self._handle_begin(entry, body)
        elif command is RelayCommand.DATA:
            self._handle_exit_data(entry, body)
        elif command is RelayCommand.END:
            self._close_exit_stream(entry, body.stream_id)
        elif command is RelayCommand.TRUNCATE:
            self._handle_truncate(entry)
        elif command is RelayCommand.DROP:
            pass  # long-range padding: absorbed silently
        else:
            self._teardown(entry, reason=f"unexpected relay command {command.name}")

    def _handle_extend(self, entry: _CircuitEntry, body: RelayCellBody) -> None:
        if entry.next_conn is not None:
            self._teardown(entry, reason="circuit already extended")
            return
        try:
            spec, onionskin = body.data.split(b"|", 1)
            address, port_text, fingerprint = spec.decode("ascii").split(":")
            port = int(port_text)
        except (ValueError, UnicodeDecodeError):
            self._teardown(entry, reason="malformed EXTEND")
            return
        if fingerprint == self.fingerprint:
            # A relay refuses to extend a circuit to itself.
            self._teardown(entry, reason="extend to self")
            return

        def ready(next_conn: StreamConnection) -> None:
            if entry.torn_down:
                return
            next_circ_id = next(self._circ_id_counter)
            entry.next_conn = next_conn
            entry.next_circ_id = next_circ_id
            self._next_side[(id(next_conn), next_circ_id)] = entry
            self._send_cell(
                next_conn, Cell(next_circ_id, CellCommand.CREATE, bytes(onionskin))
            )

        try:
            self._or_conn_to(address, port, ready)
        except KeyError:
            self._teardown(entry, reason=f"no route to {address}:{port}")

    def _handle_begin(self, entry: _CircuitEntry, body: RelayCellBody) -> None:
        try:
            address, port_text = body.data.decode("ascii").rsplit(":", 1)
            port = int(port_text)
        except (ValueError, UnicodeDecodeError):
            self._send_backward(
                entry, RelayCommand.END, body.stream_id, b"malformed begin"
            )
            return
        if not self.exit_policy.allows(address, port):
            self._send_backward(
                entry, RelayCommand.END, body.stream_id, b"exit policy"
            )
            return
        try:
            target = self.topology.host_by_address(address)
        except KeyError:
            self._send_backward(
                entry, RelayCommand.END, body.stream_id, b"resolve failed"
            )
            return
        stream_id = body.stream_id

        def established(exit_conn: StreamConnection) -> None:
            if entry.torn_down:
                exit_conn.close()
                return
            entry.exit_streams[stream_id] = exit_conn
            exit_conn.on_data = lambda data: self._exit_data_arrived(
                entry, stream_id, data
            )
            exit_conn.on_close = lambda: self._exit_closed(entry, stream_id)
            self._send_backward(entry, RelayCommand.CONNECTED, stream_id, b"")

        def failed(reason: str) -> None:
            if not entry.torn_down:
                self._send_backward(
                    entry, RelayCommand.END, stream_id, reason.encode("ascii")
                )

        self.fabric.connect(
            self.host, target, port, TrafficClass.TCP, established, failed
        )

    def _handle_exit_data(self, entry: _CircuitEntry, body: RelayCellBody) -> None:
        exit_conn = entry.exit_streams.get(body.stream_id)
        if exit_conn is None or exit_conn.closed:
            self._send_backward(entry, RelayCommand.END, body.stream_id, b"no stream")
            return
        exit_conn.send(body.data, size_bytes=self.exit_segment_bytes(body.data))

    @staticmethod
    def exit_segment_bytes(data: bytes) -> int:
        """Bytes on the wire for ``data`` leaving an exit stream."""
        return max(64, len(data))

    def _exit_data_arrived(
        self, entry: _CircuitEntry, stream_id: int, data: bytes
    ) -> None:
        if entry.torn_down:
            return
        # Chunk to relay-cell capacity; echo payloads are usually one cell.
        payload = bytes(data)
        for start in range(0, len(payload), RELAY_DATA_LEN):
            self._send_backward(
                entry,
                RelayCommand.DATA,
                stream_id,
                payload[start : start + RELAY_DATA_LEN],
            )

    def _exit_closed(self, entry: _CircuitEntry, stream_id: int) -> None:
        entry.exit_streams.pop(stream_id, None)
        if not entry.torn_down:
            self._send_backward(entry, RelayCommand.END, stream_id, b"closed")

    def _close_exit_stream(self, entry: _CircuitEntry, stream_id: int) -> None:
        exit_conn = entry.exit_streams.pop(stream_id, None)
        if exit_conn is not None:
            exit_conn.close()

    def _handle_truncate(self, entry: _CircuitEntry) -> None:
        if entry.next_conn is not None and entry.next_circ_id is not None:
            self._send_cell(
                entry.next_conn,
                Cell(entry.next_circ_id, CellCommand.DESTROY, "truncated"),
            )
            self._next_side.pop((id(entry.next_conn), entry.next_circ_id), None)
            entry.next_conn = None
            entry.next_circ_id = None
        self._send_backward(entry, RelayCommand.TRUNCATED, 0, b"")

    def _handle_destroy(self, conn: StreamConnection, cell: Cell) -> None:
        key = (id(conn), cell.circ_id)
        entry = self._circuits.get(key)
        if entry is not None:
            # Came from the previous hop: propagate toward the exit.
            self._teardown(entry, notify_prev=False)
            return
        entry = self._next_side.get(key)
        if entry is not None:
            # Came from the next hop: propagate toward the client.
            self._teardown(entry, notify_next=False)

    # ------------------------------------------------------------------
    # Sending helpers

    def _send_backward(
        self,
        entry: _CircuitEntry,
        command: RelayCommand,
        stream_id: int,
        data: bytes,
    ) -> None:
        """Originate a client-bound relay cell (stamp digest, add layer)."""
        body = RelayCellBody(relay_command=command, stream_id=stream_id, data=data)
        packed = body.pack_stamped(entry.crypto.backward_digest.update)
        encrypted = entry.crypto.wrap_backward(packed)
        self._send_cell(
            entry.prev_conn, Cell(entry.prev_circ_id, CellCommand.RELAY, encrypted)
        )

    def _send_cell(self, conn: StreamConnection, cell: Cell) -> None:
        if conn.closed or not conn.established:
            return
        # StreamConnection.send, whose one check this is, without its frame.
        self.fabric._transmit(conn, cell, CELL_SIZE_BYTES)

    # ------------------------------------------------------------------
    # Teardown

    def _teardown(
        self,
        entry: _CircuitEntry,
        reason: str = "torn down",
        notify_prev: bool = True,
        notify_next: bool = True,
    ) -> None:
        if entry.torn_down:
            return
        entry.torn_down = True
        # Every probe flight's remembered chart through this entry is void.
        self.fabric._wiring += 1
        events = self.events
        if events.enabled:
            # Orderly teardowns (a DESTROY from the path, a shutdown)
            # are routine; anything else is a protocol-level surprise.
            routine = reason in ("torn down", "relay shutdown")
            events.emit(
                DEBUG if routine else WARNING,
                "relay",
                "circuit_teardown",
                relay=self.nickname,
                reason=reason,
            )
        for exit_conn in entry.exit_streams.values():
            exit_conn.close()
        entry.exit_streams.clear()
        if notify_prev:
            self._send_cell(
                entry.prev_conn,
                Cell(entry.prev_circ_id, CellCommand.DESTROY, reason),
            )
        if notify_next and entry.next_conn is not None and entry.next_circ_id is not None:
            self._send_cell(
                entry.next_conn,
                Cell(entry.next_circ_id, CellCommand.DESTROY, reason),
            )
        self._circuits.pop((id(entry.prev_conn), entry.prev_circ_id), None)
        if entry.next_conn is not None and entry.next_circ_id is not None:
            self._next_side.pop((id(entry.next_conn), entry.next_circ_id), None)

    def disconnect_or_conns(self) -> None:
        """Close and forget cached outbound OR connections; stay online.

        Used by the per-task isolation mode of sharded campaigns: with no
        cached connections, every measurement task rebuilds its links from
        scratch and therefore consumes an identical event (and RNG-draw)
        sequence regardless of which tasks ran before it in this process.
        """
        for conn in self._or_conns.values():
            conn.close()
        self._or_conns.clear()

    def forget_clock(self) -> None:
        """Drop the absolute times this relay holds across tasks, whose
        clock is restarting: service-queue busy time, saturation cooldown
        (per-connection queue heads die with their connections)."""
        if self.service_queue is not None:
            self.service_queue.forget_clock()
        self._last_saturation_ms = -float("inf")

    def shutdown(self) -> None:
        """Take the relay offline: tear down everything, stop listening."""
        if not self._online:
            return
        self._online = False
        for entry in list(self._circuits.values()):
            self._teardown(entry, reason="relay shutdown")
        self._circuits.clear()
        self._next_side.clear()
        self.fabric.stop_listening(self.host, self.or_port)
        for conn in self._or_conns.values():
            conn.close()
        self._or_conns.clear()

    def restart(self) -> None:
        """Bring a shut-down relay back online (fresh circuit state)."""
        if self._online:
            return
        self._online = True
        self.fabric.listen(self.host, self.or_port, self._accept_or_connection)

    @property
    def is_online(self) -> bool:
        """Whether the relay is accepting connections."""
        return self._online

    @property
    def open_circuits(self) -> int:
        """Circuits currently switched through this relay."""
        return sum(1 for e in self._circuits.values() if not e.torn_down)

    def __repr__(self) -> str:
        return (
            f"Relay({self.nickname}, {self.host.address}:{self.or_port}, "
            f"circuits={self.open_circuits})"
        )
