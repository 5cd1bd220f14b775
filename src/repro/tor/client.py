"""The onion proxy: client-side circuit construction and streams.

:class:`OnionProxy` plays the role of the local ``tor`` process the paper
controlled through Stem: it owns OR connections to entry relays, builds
circuits hop-by-hop (CREATE, then EXTEND per additional hop), enforces
the client policies the paper works within (no one-hop circuits, no
relay appearing twice), and multiplexes application streams onto
circuits via BEGIN/CONNECTED/DATA/END relay cells.

All operations are callback-based; the controller layer adds the
synchronous facade measurement code uses.

**Probe flights.** A stream write that is one relay cell, on an intact
circuit whose far end reflects it (an echo server), with nothing else
due before the reply would be back, does not travel as cells: the proxy
walks the hops once inside the sending event, makes the draws every hop
would make in the order the cells would make them, and schedules the
reply's delivery alone (:meth:`OnionProxy._fly`). No cell, cipher or
digest is touched — both ends of every onion layer skip the same cells,
so they stay in lockstep for the cell-path traffic around a flight.
A long ping-pong round is walked at once (:meth:`OnionProxy._walk_round`).
"""

from __future__ import annotations

import functools
import itertools
from bisect import bisect_left
from typing import Callable

import numpy as np

from repro.netsim.engine import EventHandle, Simulator
from repro.netsim.latency import LOOPBACK_JITTER_MS, JitterModel
from repro.netsim.policies import TrafficClass
from repro.obs import NULL_METRICS
from repro.netsim.topology import Host, Topology
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
from repro.tor.crypto import ClientHandshake, CryptoError, OnionLayer
from repro.tor.directory import Consensus, RelayDescriptor
from repro.tor.relay import Relay
from repro.util.errors import CircuitError, StreamError
from repro.util.rng import BLOCK_WORDS
from repro.util.units import Milliseconds

#: Default deadline for building a circuit before it is abandoned.
DEFAULT_CIRCUIT_TIMEOUT_MS = 60_000.0

#: Default deadline for attaching a stream.
DEFAULT_STREAM_TIMEOUT_MS = 30_000.0

#: The fewest probes a ping-pong round must have left to fly (the one
#: being sent included, up to the next live event at the path's floor
#: round trip each) for :meth:`OnionProxy._walk_round` to walk them at
#: once; fewer go probe by probe. Per probe on a 4-hop service-queue
#: world (µs, 2-vCPU x86, median of three), by probes left:
#:
#:   left           4     8    16    24    32    64   200
#:   probe by probe 19.4  17.2  16.1  16.1  15.5  15.2  14.8
#:   round walk     53.1  31.8  20.4  16.2  13.7  11.3   8.9
ROUND_WALK_MIN = 24

#: A loopback segment's scheduling noise, as a jitter model: no burst.
_LOOPBACK = JitterModel(LOOPBACK_JITTER_MS, 0.0, 0.0)


class Circuit:
    """Client-side state for one circuit."""

    def __init__(self, circ_id: int, path: list[RelayDescriptor]) -> None:
        self.circ_id = circ_id
        self.path = path
        self.layers: list[OnionLayer] = []
        self.state = "building"  # building | built | failed | closed
        self.failure_reason: str | None = None
        self.created_at_ms: Milliseconds = 0.0
        self.built_at_ms: Milliseconds | None = None
        self.streams: dict[int, "TorStream"] = {}

    @property
    def hops_completed(self) -> int:
        """Hops whose handshakes have finished."""
        return len(self.layers)

    @property
    def is_built(self) -> bool:
        """Whether the circuit is fully built and usable."""
        return self.state == "built"

    def __repr__(self) -> str:
        nicknames = ",".join(d.nickname for d in self.path)
        return f"Circuit({self.circ_id}, [{nicknames}], {self.state})"


class TorStream:
    """An application stream attached to a circuit."""

    def __init__(self, stream_id: int, circuit: Circuit, target: str) -> None:
        self.stream_id = stream_id
        self.circuit = circuit
        self.target = target
        self.state = "connecting"  # connecting | open | closed | failed
        self.on_data: Callable[[bytes], None] | None = None
        self.on_close: Callable[[], None] | None = None
        self._proxy: "OnionProxy | None" = None
        self.opened_at_ms: Milliseconds = 0.0
        self.connected_at_ms: Milliseconds = 0.0
        # The least a one-cell echo round trip can take, once a probe
        # flight has charted the path.
        self._floor_rtt_ms: Milliseconds | None = None
        # The last chart of this path and its key (``OnionProxy._charted``).
        self._chart_memo: tuple | None = None
        # Sends the sender said follow the last; sends a cut walk did not hold.
        self._follows = self._unheld = 0

    def send(self, data: bytes, follows: int = 0) -> None:
        """Send application bytes to the stream's destination; ``follows``
        more sends are sure to come, each at the last one's reply (a
        sender that stops sooner stays exact, but wastes a round walk)."""
        if self.state != "open":
            raise StreamError(f"stream {self.stream_id} is {self.state}")
        assert self._proxy is not None
        self._follows = follows
        self._proxy._send_stream_data(self, data)

    def close(self) -> None:
        """Close the stream (sends END to the exit)."""
        if self.state in ("closed", "failed"):
            return
        self.state = "closed"
        if self._proxy is not None:
            self._proxy._end_stream(self)

    def __repr__(self) -> str:
        return f"TorStream({self.stream_id} -> {self.target}, {self.state})"


class _BuildState:
    """Transient bookkeeping while a circuit is under construction, or
    being cut back by TRUNCATE (``on_built`` then takes the cut circuit)."""

    def __init__(
        self,
        on_built: Callable[[Circuit], None],
        on_failure: Callable[[Circuit, str], None],
        timeout: EventHandle,
    ) -> None:
        self.on_built = on_built
        self.on_failure = on_failure
        self.timeout = timeout
        self.handshake: ClientHandshake | None = None


class _Round:
    """A held round (:meth:`OnionProxy._walk_round`): probe ``k`` lands at
    ``lands[k]``, ``sent`` are launched, ``airborne`` is the payload up.
    ``settle(done)`` leaves the world as ``done`` probes' cells would."""

    __slots__ = ("stream", "chart", "lands", "settle", "sent", "airborne")

    def __init__(self, stream, chart, lands, settle, payload) -> None:
        self.stream, self.chart, self.lands, self.settle = stream, chart, lands, settle
        self.sent, self.airborne = 1, payload


class OnionProxy:
    """The local Tor client process."""

    def __init__(
        self,
        sim: Simulator,
        fabric: NetworkFabric,
        topology: Topology,
        host: Host,
        consensus: Consensus,
        nonce_source: Callable[[], bytes] | None = None,
    ) -> None:
        self.sim = sim
        self.fabric = fabric
        self.topology = topology
        self.host = host
        self.consensus = consensus
        self._nonce_source = nonce_source
        self._circ_ids = itertools.count(1)
        self._stream_ids = itertools.count(1)
        self.circuits: dict[int, Circuit] = {}
        self._builds: dict[int, _BuildState] = {}
        self._stream_waiters: dict[
            tuple[int, int],
            tuple[Callable[[TorStream], None], Callable[[str], None], EventHandle],
        ] = {}
        # OR connections keyed by "address:port" of the entry relay, plus
        # the mapping from connection to the circuits it carries.
        self._or_conns: dict[str, StreamConnection] = {}
        self._conn_for_circuit: dict[int, StreamConnection] = {}
        #: Observability sinks; no-ops unless a live registry is wired in.
        self.metrics = NULL_METRICS
        # The probe flight in the air, if it is this proxy's: what
        # ``_take_back`` needs to undo it and redo it as a cell.
        self._airborne: tuple | None = None
        # The walked round the engine holds, if it is this proxy's.
        self._round: _Round | None = None

    def set_consensus(self, consensus: Consensus) -> None:
        """Install a fresh network view (e.g. after a directory fetch)."""
        self.consensus = consensus

    # ------------------------------------------------------------------
    # Circuit construction

    def create_circuit(
        self,
        path: list[RelayDescriptor] | list[str],
        on_built: Callable[[Circuit], None],
        on_failure: Callable[[Circuit, str], None],
        timeout_ms: Milliseconds = DEFAULT_CIRCUIT_TIMEOUT_MS,
    ) -> Circuit:
        """Start building a circuit through ``path`` (descriptors or
        fingerprints), enforcing the client's safety policies."""
        descriptors = [
            hop if isinstance(hop, RelayDescriptor) else self.consensus.get(hop)
            for hop in path
        ]
        if len(descriptors) < 2:
            raise CircuitError(
                "one-hop circuits are disallowed (a relay refuses to be both "
                "entry and exit); paths must have at least 2 hops"
            )
        fingerprints = [d.fingerprint for d in descriptors]
        if len(set(fingerprints)) != len(fingerprints):
            raise CircuitError("a relay cannot appear on a circuit more than once")

        circuit = Circuit(circ_id=next(self._circ_ids), path=descriptors)
        circuit.created_at_ms = self.sim.now
        self.circuits[circuit.circ_id] = circuit
        timeout = self.sim.schedule(
            timeout_ms, self._build_timed_out, circuit
        )
        self._builds[circuit.circ_id] = _BuildState(on_built, on_failure, timeout)

        entry = descriptors[0]

        def conn_ready(conn: StreamConnection) -> None:
            if circuit.state != "building":
                return
            self._conn_for_circuit[circuit.circ_id] = conn
            handshake = ClientHandshake(
                entry.identity_public, nonce=self._make_nonce()
            )
            self._builds[circuit.circ_id].handshake = handshake
            self._send_cell(
                conn,
                Cell(circuit.circ_id, CellCommand.CREATE, handshake.create_payload()),
            )

        self._entry_conn(entry, conn_ready, circuit)
        return circuit

    def _make_nonce(self) -> bytes | None:
        return self._nonce_source() if self._nonce_source is not None else None

    def _entry_conn(
        self,
        entry: RelayDescriptor,
        on_ready: Callable[[StreamConnection], None],
        circuit: Circuit,
    ) -> None:
        key = f"{entry.address}:{entry.or_port}"
        existing = self._or_conns.get(key)
        if existing is not None and existing.established and not existing.closed:
            self.sim.schedule(0.0, on_ready, existing)
            return
        if existing is not None and not existing.closed:
            previous = existing._on_established

            def chained(conn: StreamConnection) -> None:
                if previous is not None:
                    previous(conn)
                on_ready(conn)

            existing._on_established = chained
            return
        try:
            target = self.topology.host_by_address(entry.address)
        except KeyError:
            self._fail_circuit(circuit, f"cannot resolve entry {entry.address}")
            return

        def established(conn: StreamConnection) -> None:
            conn.on_data = functools.partial(self._cell_arrived, conn)
            on_ready(conn)

        def failed(reason: str) -> None:
            self._or_conns.pop(key, None)
            self._fail_circuit(circuit, f"entry connection failed: {reason}")

        conn = self.fabric.connect(
            self.host, target, entry.or_port, TrafficClass.TOR, established, failed
        )
        self._or_conns[key] = conn

    def _build_timed_out(self, circuit: Circuit) -> None:
        if circuit.state == "building":
            self._fail_circuit(circuit, "circuit build timed out")

    def _fail_circuit(self, circuit: Circuit, reason: str) -> None:
        if circuit.state in ("failed", "closed"):
            return
        circuit.state = "failed"
        circuit.failure_reason = reason
        build = self._builds.pop(circuit.circ_id, None)
        for stream in list(circuit.streams.values()):
            stream.state = "failed"
        circuit.streams.clear()
        self.metrics.inc("tor.circuits_failed")
        if build is not None:
            build.timeout.cancel()
            build.on_failure(circuit, reason)

    # ------------------------------------------------------------------
    # Cell arrival and the build state machine

    def _cell_arrived(self, conn: StreamConnection, cell: Cell) -> None:
        circuit = self.circuits.get(cell.circ_id)
        if circuit is None:
            return
        if cell.command is CellCommand.CREATED:
            self._advance_build(circuit, cell.payload)
        elif cell.command is CellCommand.RELAY:
            self._handle_relay_cell(circuit, cell.payload)
        elif cell.command is CellCommand.DESTROY:
            self._fail_circuit(circuit, f"destroyed: {cell.payload}")

    def _advance_build(self, circuit: Circuit, handshake_payload: bytes) -> None:
        build = self._builds.get(circuit.circ_id)
        if build is None or build.handshake is None or circuit.state != "building":
            return
        try:
            keys = build.handshake.complete(handshake_payload)
        except CryptoError as exc:
            self._fail_circuit(circuit, f"handshake failed: {exc}")
            return
        circuit.layers.append(OnionLayer(keys))
        build.handshake = None
        if circuit.hops_completed == len(circuit.path):
            circuit.state = "built"
            circuit.built_at_ms = self.sim.now
            build.timeout.cancel()
            self._builds.pop(circuit.circ_id, None)
            metrics = self.metrics
            if metrics.enabled:
                metrics.inc("tor.circuits_built")
                metrics.observe(
                    "tor.circuit_build_ms", self.sim.now - circuit.created_at_ms
                )
            build.on_built(circuit)
            return
        # Extend to the next hop.
        next_hop = circuit.path[circuit.hops_completed]
        handshake = ClientHandshake(next_hop.identity_public, nonce=self._make_nonce())
        build.handshake = handshake
        spec = f"{next_hop.address}:{next_hop.or_port}:{next_hop.fingerprint}"
        data = spec.encode("ascii") + b"|" + handshake.create_payload()
        self._send_relay_cell(circuit, RelayCommand.EXTEND, 0, data)

    def _handle_relay_cell(self, circuit: Circuit, encrypted: bytes) -> None:
        """Unwrap backward layers until some hop's digest recognizes the cell."""
        body = encrypted
        source_hop: int | None = None
        for index, layer in enumerate(circuit.layers):
            body = layer.backward_cipher.process(body)
            if body[1:3] != b"\x00\x00":
                continue
            digest = body[5:9]
            zeroed = body[:5] + b"\x00\x00\x00\x00" + body[9:]
            # Single-hash recognize: commit() advances the digest only on
            # a tag match instead of hashing the body a second time.
            if layer.backward_digest.commit(zeroed, digest):
                source_hop = index
                break
        if source_hop is None:
            self._fail_circuit(circuit, "unrecognized backward cell")
            return
        try:
            parsed = RelayCellBody.unpack(body)
        except CellError as exc:
            self._fail_circuit(circuit, f"bad relay cell: {exc}")
            return
        self._dispatch_backward(circuit, source_hop, parsed)

    def _dispatch_backward(
        self, circuit: Circuit, source_hop: int, body: RelayCellBody
    ) -> None:
        command = body.relay_command
        if command is RelayCommand.EXTENDED:
            self._advance_build(circuit, body.data)
        elif command is RelayCommand.CONNECTED:
            self._stream_connected(circuit, body.stream_id)
        elif command is RelayCommand.DATA:
            stream = circuit.streams.get(body.stream_id)
            if stream is not None and stream.on_data is not None:
                stream.on_data(body.data)
        elif command is RelayCommand.END:
            self._stream_ended(circuit, body.stream_id, body.data)
        elif command is RelayCommand.TRUNCATED:
            self._truncated(circuit, source_hop)
        # Other backward commands are ignored.

    # ------------------------------------------------------------------
    # Streams

    def open_stream(
        self,
        circuit: Circuit,
        address: str,
        port: int,
        on_connected: Callable[[TorStream], None],
        on_failure: Callable[[str], None],
        timeout_ms: Milliseconds = DEFAULT_STREAM_TIMEOUT_MS,
    ) -> TorStream:
        """Attach a new stream to ``circuit`` targeting ``address:port``."""
        if not circuit.is_built:
            raise StreamError(f"circuit {circuit.circ_id} is {circuit.state}")
        stream_id = next(self._stream_ids) & 0xFFFF
        stream = TorStream(stream_id, circuit, f"{address}:{port}")
        stream._proxy = self
        stream.opened_at_ms = self.sim.now
        circuit.streams[stream_id] = stream
        timeout = self.sim.schedule(
            timeout_ms, self._stream_timed_out, circuit, stream_id
        )
        self._stream_waiters[(circuit.circ_id, stream_id)] = (
            on_connected,
            on_failure,
            timeout,
        )
        self._send_relay_cell(
            circuit, RelayCommand.BEGIN, stream_id, f"{address}:{port}".encode("ascii")
        )
        return stream

    def _stream_connected(self, circuit: Circuit, stream_id: int) -> None:
        waiter = self._stream_waiters.pop((circuit.circ_id, stream_id), None)
        stream = circuit.streams.get(stream_id)
        if waiter is None or stream is None:
            return
        on_connected, _, timeout = waiter
        timeout.cancel()
        stream.state = "open"
        stream.connected_at_ms = self.sim.now
        self.metrics.inc("tor.streams_attached")
        on_connected(stream)

    def _stream_ended(self, circuit: Circuit, stream_id: int, reason: bytes) -> None:
        waiter = self._stream_waiters.pop((circuit.circ_id, stream_id), None)
        stream = circuit.streams.pop(stream_id, None)
        if waiter is not None:
            _, on_failure, timeout = waiter
            timeout.cancel()
            if stream is not None:
                stream.state = "failed"
            decoded = reason.decode("ascii", errors="replace")
            self.metrics.inc("tor.stream_failures")
            on_failure(decoded)
            return
        if stream is not None and stream.state == "open":
            stream.state = "closed"
            if stream.on_close is not None:
                stream.on_close()

    def _stream_timed_out(self, circuit: Circuit, stream_id: int) -> None:
        waiter = self._stream_waiters.pop((circuit.circ_id, stream_id), None)
        if waiter is None:
            return
        _, on_failure, _ = waiter
        stream = circuit.streams.pop(stream_id, None)
        if stream is not None:
            stream.state = "failed"
        self.metrics.inc("tor.stream_failures")
        on_failure("stream attach timed out")

    def _send_stream_data(self, stream: TorStream, data: bytes) -> None:
        payload = bytes(data)
        if 0 < len(payload) <= RELAY_DATA_LEN and self._fly(stream, payload):
            return
        for start in range(0, len(payload), RELAY_DATA_LEN):
            self._send_relay_cell(
                stream.circuit,
                RelayCommand.DATA,
                stream.stream_id,
                payload[start : start + RELAY_DATA_LEN],
            )

    # ------------------------------------------------------------------
    # Probe flights

    def _fly(self, stream: TorStream, payload: bytes) -> bool:
        """Send one DATA cell's worth of ``payload`` as a probe flight.

        Returns ``False`` — nothing drawn, changed or scheduled that the
        cell path will not redo identically — unless all of this holds:

        * the path is intact end to end and ends at a reflector
          (:meth:`_chart`, every state check a cell would meet);
        * no forwarding model on it reads the clock;
        * no other live event (nor the end of a bounded ``run``) is due
          before the reply lands, a tie included. That is tested twice:
          against the path's floor round trip (before the path is first
          charted, the round trip the stream took to open) before
          anything is drawn, so a timer-paced train or a concurrent
          campaign pays one comparison, and against the drawn landing
          time after;
        * no hop's wait would have raised a ``queue_saturated`` event.

        The walk takes the draws the cells would take — each segment the
        next draw of its link direction, each arrival the next draw of
        its relay — and computes from them, inline, what the cells' own
        helpers compute (:meth:`NetworkFabric.arrival_ms`,
        :meth:`Relay.ready_ms`: the same float operations in the same
        order; ``tests/contract/test_probe_flight.py`` holds the two
        together), so connections, queue heads and service queues end up
        as the cells would leave them. A flight refused after drawing
        gives every draw back (each stream rewound to the position it
        was marked at, queues rewound): all or nothing, no knob.
        Counters move at the landing, when the cells would have moved
        the last of them.

        A round with :data:`ROUND_WALK_MIN` probes or more left is walked
        at once instead (:meth:`_walk_round`); later sends launch its probes.
        """
        sim = self.sim
        walk = self._round
        if walk is not None and walk.stream is stream and walk.airborne is None:
            # The walked round's next probe, sent at the last one's landing.
            chart = walk.chart
            if self._charted(stream, payload) == chart and sim.launch_flight(
                walk.lands[walk.sent], self._land, self._take_round_back,
                stream, payload, chart,
            ):
                walk.sent, walk.airborne = walk.sent + 1, payload
                return True
        sim.ground_flight()
        now = sim.now
        floor = stream._floor_rtt_ms
        if floor is None:
            # Not charted yet. The stream took a round trip over the same
            # path to open: a simulator that is not quiet for that long
            # does not pay for a chart (refusing is always safe).
            floor = stream.connected_at_ms - stream.opened_at_ms
        if not sim.quiet_through(now + floor):
            return False
        chart = self._charted(stream, payload)
        if chart is None:
            return False
        steps = chart[0]
        if stream._floor_rtt_ms is None:
            stream._floor_rtt_ms = self._floor_ms(steps)
        follows = stream._follows
        if stream._unheld:
            stream._unheld -= 1
        elif follows >= ROUND_WALK_MIN - 1 and self._walk_round(
            stream, payload, chart, follows + 1
        ):
            return True
        marks = []
        at = now
        # The helpers' max(a, b) is `if b > a: a = b` here: same float, no call.
        for conn, peer, serialization_ms, relay, _ in steps:
            # NetworkFabric.arrival_ms, inline.
            link = conn._link or conn.link()
            draws = link.draws
            i = draws.pos
            last_arrival, link_mark = conn._last_arrival, draws.base + i
            if i == BLOCK_WORDS:
                draws.fill(draws.base + i)
                i = 0
            draws.pos = i + 2
            model = link.jitter
            if model is None:
                delay = link.base_ms + LOOPBACK_JITTER_MS * draws.e[i]
            else:
                e = draws.e
                jitter = model.scale_ms * e[i]
                if draws.u[i] < model.burst_probability:
                    jitter += model.burst_scale_ms * e[i + 1]
                delay = link.base_ms + jitter
            delay += serialization_ms
            at += delay
            if last_arrival + 1e-6 > at:
                at = last_arrival + 1e-6
            conn._last_arrival = at
            if relay is None:
                marks.append((last_arrival, link_mark))
                continue
            # Relay.ready_ms, inline.
            draws = relay.draws
            i = draws.pos
            queue = relay.service_queue
            marks.append(
                (
                    last_arrival,
                    link_mark,
                    draws.base + i,
                    peer._queue_head,
                    None if queue is None else queue.mark(),
                )
            )
            if i == BLOCK_WORDS:
                draws.fill(draws.base + i)
                i = 0
            draws.pos = i + 2
            model = relay.forwarding
            u, e = draws.u, draws.e
            delay = model.crypto_floor_ms
            load = model.load
            if u[i] < load:
                delay += model.queue_scale_ms * e[i]
            if u[i + 1] < model.burst_probability * (0.05 if 0.05 > load else load):
                delay += model.burst_scale_ms * e[i + 1]
            arrived = at
            at = arrived + delay
            if peer._queue_head + 1e-6 > at:
                at = peer._queue_head + 1e-6
            if queue is not None:
                admitted = queue.admit(arrived)
                if admitted > at:
                    at = admitted
            peer._queue_head = at
            if queue is not None and relay.saturation_due(arrived, at):
                break
        else:
            if sim.launch_flight(
                at, self._land, self._take_back, stream, payload, chart
            ):
                self._airborne = (stream, payload, steps, marks)
                return True
        self._give_back(steps, marks)
        return False

    def _walk_round(
        self, stream: TorStream, payload: bytes, chart: tuple, left: int
    ) -> bool:
        """Walk as many of the ``left`` probes sure to be sent (each at the
        last one's landing) as could land, at the floor round trip, before
        anything is due — if :data:`ROUND_WALK_MIN` or more. Launch the
        first, and have the engine hold the longest prefix the cells would
        reproduce exactly (DESIGN §5): each delay a numpy column (the
        per-probe walk's operations, in order), arrivals one ``cumsum``,
        then per probe no ``max`` that binds, no ``queue_saturated`` owed,
        landing before anything is due. ``False``, nothing changed, if no
        probe passes, too few could land or a connection end repeats."""
        steps = chart[0]
        conns, peers = [s[0] for s in steps], [s[1] for s in steps if s[3] is not None]
        if len(set(conns)) < len(conns) or len(set(peers)) < len(peers):
            return False
        sim, now, rtt = self.sim, self.sim.now, stream._floor_rtt_ms
        count = bisect_left(
            range(1, left + 1), True, key=lambda k: not sim.quiet_through(now + k * rtt)
        )
        if count < ROUND_WALK_MIN:
            return False
        # A site is a draw a probe takes, in the walk's order: each
        # segment's link, then the relay it reaches, if any.
        uses, links, hops, visits = {}, [], [], {}
        for conn, _, serialization_ms, relay, _ in steps:
            link, site = conn._link or conn.link(), len(links) + len(hops)
            model = link.jitter or _LOOPBACK
            uses.setdefault(link.draws, []).append(site)
            links.append((site, link.base_ms, model.scale_ms, model.burst_probability,
                          model.burst_scale_ms, serialization_ms))
            if relay is None:
                continue
            model, queue, site = relay.forwarding, relay.service_queue, site + 1
            uses.setdefault(relay.draws, []).append(site)
            if queue is not None:
                visits.setdefault(relay, []).append(site)
            load, service = model.load, queue.service_time_ms if queue else 0.0
            hops.append((site, model.crypto_floor_ms, load, model.queue_scale_ms,
                         model.burst_probability * (0.05 if 0.05 > load else load),
                         model.burst_scale_ms, service))
        # Draw k of the i-th of the m sites a stream serves is its draw
        # k·m + i: words 2(k·m + i) and the one after.
        us, es, draws, pick, start = [], [], [], {}, 0
        for source, sites in uses.items():
            words = 2 * len(sites)
            u, e, mark = source.ahead(words * count)
            us += u
            es += e
            read = sum(map(len, u))
            draws.append((source, words, start, start + read, mark))
            pick.update((site, (words, start + 2 * i)) for i, site in enumerate(sites))
            start += read
        u, e = np.concatenate(us), np.concatenate(es)
        probes = np.arange(count)[:, None]
        delays = np.empty((count, len(links) + len(hops)))

        def gather(sites):
            stride, offset = np.array([pick[site] for site in sites.tolist()]).T
            return probes * stride + offset

        site, base, scale, burst_p, burst, serialization = np.array(links).T
        at, link_at = gather(site), site.astype(int)
        jitter = scale * e[at]
        jitter = np.where(u[at] < burst_p, jitter + burst * e[at + 1], jitter)
        delays[:, link_at] = base + jitter + serialization
        site, floor, load, queue_scale, burst_p, burst, service = np.array(hops).T
        at, hop_at = gather(site), site.astype(int)
        delay = np.where(u[at] < load, floor + queue_scale * e[at], floor)
        delay = np.where(u[at + 1] < burst_p, delay + burst * e[at + 1], delay)
        delays[:, hop_at] = np.maximum(delay, service)
        clock = np.cumsum(np.concatenate(([now], delays.ravel())))
        before = clock[:-1].reshape(delays.shape)
        after = clock[1:].reshape(delays.shape)
        # Row k: every connection's last arrival and queue head after k probes.
        first = [c._last_arrival for c in conns] + [p._queue_head for p in peers]
        times = np.vstack((first, after[:, np.concatenate((link_at, hop_at))]))
        ok = (times[:-1] + 1e-6 <= times[1:]).all(axis=1)
        queues = []
        for relay, sites in visits.items():
            queue = relay.service_queue
            mark, arrived = queue.mark(), before[:, sites]
            busy = arrived + queue.service_time_ms  # as each visit leaves it
            found = np.concatenate(([mark[0]], busy.ravel()[:-1]))
            ok &= (found.reshape(arrived.shape) <= arrived).all(axis=1)
            if relay.events.enabled:
                owed = (after[:, sites] - arrived >= relay.QUEUE_SATURATION_MS) & (
                    arrived - relay._last_saturation_ms >= relay.SATURATION_COOLDOWN_MS
                )
                ok &= ~owed.any(axis=1)
            queues.append((queue, len(sites), busy[:, -1], mark))
        failed = np.flatnonzero(~ok)
        lands = after[: failed[0] if len(failed) else count, -1].tolist()
        held = bisect_left(lands, True, key=lambda at: not sim.quiet_through(at))
        draws = [(d, words, u[at:to], e[at:to], mark) for d, words, at, to, mark in draws]
        end = [mark[0] + mark[1] + words * held for _, words, _, _, mark in draws]

        def settle(done: int) -> bool:
            untouched = [source.base + source.pos for source, *_ in draws] == end
            for source, words, u, e, mark in draws:
                source.seek(words * done, u, e, mark)
            row = iter(times[done].tolist())
            for conn, at in zip(conns, row):
                conn._last_arrival = at
            for peer, at in zip(peers, row):
                peer._queue_head = at
            for queue, visits, busy, mark in queues:
                served = mark[1] + visits * done
                queue.rewind((busy[done - 1].item(), served) if done else mark)
            return untouched

        settle(held)
        # The probes walked and not held go probe by probe: none twice.
        stream._unheld = count - held
        if not held:
            return False
        self._round = _Round(stream, chart, lands[:held], settle, payload)
        land, take_back = self._land, self._take_round_back
        sim.launch_flight(lands[0], land, take_back, stream, payload, chart)
        sim.hold(lands[held - 1])
        return True

    def _take_round_back(self) -> bool:
        """Undo what the held round has not landed and send its probe in
        the air, if any, as a cell; exact unless a walked stream was drawn."""
        walk, self._round = self._round, None
        untouched = walk.settle(walk.sent - (walk.airborne is not None))
        if walk.airborne is not None:
            self.metrics.inc("echo.flight_rollbacks")
            circuit, stream_id = walk.stream.circuit, walk.stream.stream_id
            self._send_relay_cell(circuit, RelayCommand.DATA, stream_id, walk.airborne)
        return untouched

    def _charted(self, stream: TorStream, payload: bytes) -> tuple | None:
        """:meth:`_chart`, remembered on the stream: a flight's one way to
        it. The client's checks (:meth:`_attached`) and ``reads_clock``
        run on every use; the rest is charted again only if the wiring
        epoch (moved by every write that can change a chart that
        succeeded, DESIGN §5), entry connection, hop count or payload
        length moved."""
        first = self._attached(stream)
        if first is None:
            return None
        key = (self.fabric._wiring, first, len(stream.circuit.layers), len(payload))
        memo = stream._chart_memo
        if memo is None or memo[0] != key:
            chart = self._chart(stream, payload)
            if chart is None:
                return None
            memo = stream._chart_memo = (key, chart)
        chart = memo[1]
        for relay in chart[2]:
            if relay.forwarding.reads_clock:
                return None
        return chart

    def _attached(self, stream: TorStream) -> StreamConnection | None:
        """The entry connection of ``stream``'s circuit if the circuit is
        built, still this proxy's and still holds the stream."""
        circuit = stream.circuit
        circ_id = circuit.circ_id
        if (
            circuit.state != "built"
            or self.circuits.get(circ_id) is not circuit
            or circuit.streams.get(stream.stream_id) is not stream
        ):
            return None
        return self._conn_for_circuit.get(circ_id)

    def _chart(self, stream: TorStream, payload: bytes) -> tuple | None:
        """The segments a lone DATA cell on ``stream`` and its echo cross.

        One ``(connection written to, its peer, serialization delay,
        relay that processes the arrival or None, its circuit entry)``
        per segment, client to reflector and back, then the reflector
        and the relays on the way out — or ``None`` if a cell sent now
        would not make the round trip: every check the cell path makes
        on the way is made here (circuit and stream attached, connection
        established and open at both ends of every hop, circuit entry
        present, live and the one the relay's table holds, exit stream
        open, reflector open). Only :meth:`_charted` calls it.
        """
        circuit = stream.circuit
        circ_id, hops = circuit.circ_id, len(circuit.layers)
        first = conn = self._attached(stream)
        if first is None:
            return None
        steps: list[tuple] = []
        # Out: every hop finds the circuit in its table and switches the
        # cell forward. (An established connection has a peer.)
        for _ in circuit.layers:
            if conn is None or not conn.established:
                return None
            peer = conn._peer
            relay = peer.owner
            if not isinstance(relay, Relay):
                return None
            entry, forward = relay.switch(peer, circ_id)
            if entry is None or not forward:
                return None
            steps.append((conn, peer, CELL_SIZE_BYTES, relay, entry))
            conn, circ_id = entry.next_conn, entry.next_circ_id
        # The last hop recognizes the cell: out to the reflector and back.
        conn = entry.exit_streams.get(stream.stream_id)
        if conn is None or not conn.established:
            return None
        peer = conn._peer
        reflector = peer.owner
        if not getattr(reflector, "reflects_payloads", False):
            return None
        steps.append((conn, peer, relay.exit_segment_bytes(payload), None, None))
        steps.append((peer, conn, reflector.segment_bytes(payload), None, None))
        # Back: each relay met on the way out, nearest the exit first,
        # finds the same entry from its other side.
        for _, _, _, relay, expected in reversed(steps[: hops - 1]):
            conn, circ_id = entry.prev_conn, entry.prev_circ_id
            peer = conn._peer
            entry, forward = relay.switch(peer, circ_id)
            if entry is not expected or forward:
                return None
            steps.append((conn, peer, CELL_SIZE_BYTES, relay, entry))
        conn = entry.prev_conn
        if conn._peer is not first or entry.prev_circ_id != circuit.circ_id:
            return None
        steps.append((conn, first, CELL_SIZE_BYTES, None, None))
        # What ``send`` checks on the writer and ``_receive`` on the
        # reader, for every segment.
        for conn, peer, _, _, _ in steps:
            if not conn.established or conn.closed or peer.closed:
                return None
        steps = [
            (conn, peer, conn.local.serialization_delay_ms(size), relay, entry)
            for conn, peer, size, relay, entry in steps
        ]
        return steps, reflector, tuple(step[3] for step in steps[:hops])

    def _floor_ms(self, steps: list[tuple]) -> Milliseconds:
        """The least the charted round trip can take: every segment at
        its deterministic floor, every relay at its minimum wait."""
        latency = self.fabric.latency
        floor = 0.0
        for conn, _, serialization_ms, relay, _ in steps:
            floor += latency.base_one_way_ms(
                conn.local, conn.remote, conn.traffic_class
            ) + serialization_ms
            if relay is not None:
                floor += relay.floor_ms()
        return floor

    def _give_back(self, steps: list[tuple], marks: list) -> None:
        """Undo a walk (or the part of one that ``marks`` covers): draw
        positions, arrivals, queue heads, queues."""
        # Backwards: a stream, connection or relay met twice took its
        # second mark after its first draw.
        for step in range(len(marks) - 1, -1, -1):
            conn, peer, _, relay, _ = steps[step]
            mark = marks[step]
            conn._last_arrival = mark[0]
            conn._link.draws.rewind(mark[1])
            if relay is not None:
                relay.draws.rewind(mark[2])
                peer._queue_head = mark[3]
                if mark[4] is not None:
                    relay.service_queue.rewind(mark[4])
        self.metrics.inc("echo.flight_rollbacks")

    def _take_back(self) -> bool:
        """Undo the flight in the air and send its payload as a cell
        (see :meth:`Simulator.ground_flight`). Exact unless someone has
        drawn from one of the walk's streams since the launch — a link
        direction's is reachable from outside an event."""
        stream, payload, steps, marks = self._airborne
        self._airborne = None
        # Where the walk left each stream: one draw past its last mark.
        left_at = {}
        for (conn, _, _, relay, _), mark in zip(steps, marks):
            left_at[conn._link.draws] = mark[1] + 2
            if relay is not None:
                left_at[relay.draws] = mark[2] + 2
        untouched = all(
            draws.base + draws.pos == position for draws, position in left_at.items()
        )
        self._give_back(steps, marks)
        self._send_relay_cell(
            stream.circuit, RelayCommand.DATA, stream.stream_id, payload
        )
        return untouched

    def _land(self, stream: TorStream, payload: bytes, chart: tuple) -> None:
        """The one event of a flight: count what the cells would have
        counted, then deliver the echo if every check still holds."""
        self._airborne = None
        walk = self._round
        if walk is not None:
            walk.airborne = None
            if walk.sent == len(walk.lands):  # the held round's last
                self._round = walk = None
        steps, reflector, _ = chart
        for step in steps:
            if step[3] is not None:
                step[3].count_cell(True)
        reflector.count_echo()
        self.metrics.inc("echo.probes_flown")
        # Nothing can have fired since the launch, but the code that
        # launched it ran on: evaluate every check again, as the cells
        # would have met them on the way (a fresh chart if the wiring moved).
        if self._charted(stream, payload) == chart and stream.on_data is not None:
            stream.on_data(payload)
        if walk is not None and self._round is walk and walk.airborne is None:
            self.sim.ground_flight()  # the sender stopped: the rest goes back

    def _end_stream(self, stream: TorStream) -> None:
        stream.circuit.streams.pop(stream.stream_id, None)
        if stream.circuit.is_built:
            self._send_relay_cell(
                stream.circuit, RelayCommand.END, stream.stream_id, b""
            )

    def send_padding(self, circuit: Circuit, hop: int | None = None) -> None:
        """Send a long-range padding cell (RELAY_DROP) to a hop.

        The receiving relay absorbs it silently; clients use these to
        obscure traffic patterns. Useful in tests and traffic-analysis
        experiments as innocuous cover traffic.
        """
        if not circuit.is_built:
            raise CircuitError(f"circuit {circuit.circ_id} is {circuit.state}")
        self._send_relay_cell(
            circuit, RelayCommand.DROP, 0, b"", target_hop=hop
        )

    # ------------------------------------------------------------------
    # Truncation and in-place extension

    def truncate_circuit(
        self,
        circuit: Circuit,
        to_hop: int,
        on_truncated: Callable[[Circuit], None],
        on_failure: Callable[[Circuit, str], None],
        timeout_ms: Milliseconds = DEFAULT_CIRCUIT_TIMEOUT_MS,
    ) -> None:
        """Cut the circuit back so ``to_hop`` becomes its last relay.

        Sends TRUNCATE to hop ``to_hop``; that relay destroys everything
        beyond itself and acknowledges with TRUNCATED, at which point the
        dropped hops' onion layers are discarded and ``on_truncated``
        fires. A circuit that fails first (a DESTROY, no TRUNCATED within
        ``timeout_ms``) calls ``on_failure`` instead, once, as a build
        does. The shortened circuit can then be re-extended with
        :meth:`extend_circuit` — the mechanism that lets a measurement
        client reuse an existing circuit prefix instead of rebuilding.
        """
        if not circuit.is_built:
            raise CircuitError(f"circuit {circuit.circ_id} is {circuit.state}")
        if not 0 <= to_hop < len(circuit.layers) - 1:
            raise CircuitError(
                f"cannot truncate to hop {to_hop} of a "
                f"{len(circuit.layers)}-hop circuit"
            )
        if circuit.streams:
            raise CircuitError("close the circuit's streams before truncating")
        timeout = self.sim.schedule(
            timeout_ms, self._truncate_timed_out, circuit
        )
        self._builds[circuit.circ_id] = _BuildState(on_truncated, on_failure, timeout)
        self._send_relay_cell(
            circuit, RelayCommand.TRUNCATE, 0, b"", target_hop=to_hop
        )

    def _truncated(self, circuit: Circuit, source_hop: int) -> None:
        """TRUNCATED from ``source_hop``: it is now the last hop."""
        truncate = self._builds.pop(circuit.circ_id, None)
        if truncate is None:
            return
        truncate.timeout.cancel()
        del circuit.layers[source_hop + 1 :]
        del circuit.path[source_hop + 1 :]
        truncate.on_built(circuit)

    def _truncate_timed_out(self, circuit: Circuit) -> None:
        self._fail_circuit(circuit, "truncate timed out")

    def extend_circuit(
        self,
        circuit: Circuit,
        additional_path: list[RelayDescriptor] | list[str],
        on_built: Callable[[Circuit], None],
        on_failure: Callable[[Circuit, str], None],
        timeout_ms: Milliseconds = DEFAULT_CIRCUIT_TIMEOUT_MS,
    ) -> None:
        """Extend a built circuit with further hops in place."""
        if not circuit.is_built:
            raise CircuitError(f"circuit {circuit.circ_id} is {circuit.state}")
        descriptors = [
            hop if isinstance(hop, RelayDescriptor) else self.consensus.get(hop)
            for hop in additional_path
        ]
        if not descriptors:
            raise CircuitError("no hops to extend with")
        fingerprints = [d.fingerprint for d in circuit.path + descriptors]
        if len(set(fingerprints)) != len(fingerprints):
            raise CircuitError("a relay cannot appear on a circuit more than once")
        circuit.path.extend(descriptors)
        circuit.state = "building"
        circuit.created_at_ms = self.sim.now
        timeout = self.sim.schedule(timeout_ms, self._build_timed_out, circuit)
        build = _BuildState(on_built, on_failure, timeout)
        self._builds[circuit.circ_id] = build
        next_hop = circuit.path[circuit.hops_completed]
        handshake = ClientHandshake(next_hop.identity_public, nonce=self._make_nonce())
        build.handshake = handshake
        spec = f"{next_hop.address}:{next_hop.or_port}:{next_hop.fingerprint}"
        data = spec.encode("ascii") + b"|" + handshake.create_payload()
        self._send_relay_cell(
            circuit,
            RelayCommand.EXTEND,
            0,
            data,
            target_hop=circuit.hops_completed - 1,
        )

    # ------------------------------------------------------------------
    # Outbound relay cells

    def _send_relay_cell(
        self,
        circuit: Circuit,
        command: RelayCommand,
        stream_id: int,
        data: bytes,
        target_hop: int | None = None,
    ) -> None:
        """Build, digest-stamp, and onion-encrypt a relay cell.

        ``target_hop`` defaults to the last completed hop; the digest is
        stamped with that hop's forward digest and the body is encrypted
        innermost-first from that hop back to the entry.
        """
        # A flight in the air must come back as a cell first: its cell
        # would have drawn its link jitter, and advanced this circuit's
        # ciphers and digests, before this one does.
        self.sim.ground_flight()
        if not circuit.layers:
            raise CircuitError("circuit has no completed hops")
        hop = target_hop if target_hop is not None else len(circuit.layers) - 1
        body = RelayCellBody(relay_command=command, stream_id=stream_id, data=data)
        packed = body.pack_stamped(circuit.layers[hop].forward_digest.update)
        for index in range(hop, -1, -1):
            packed = circuit.layers[index].forward_cipher.process(packed)
        conn = self._conn_for_circuit.get(circuit.circ_id)
        if conn is None:
            raise CircuitError(f"circuit {circuit.circ_id} has no entry connection")
        self._send_cell(conn, Cell(circuit.circ_id, CellCommand.RELAY, packed))

    def _send_cell(self, conn: StreamConnection, cell: Cell) -> None:
        if conn.closed or not conn.established:
            return
        self.fabric._transmit(conn, cell, CELL_SIZE_BYTES)

    # ------------------------------------------------------------------
    # Circuit teardown

    def close_circuit(self, circuit: Circuit) -> None:
        """Tear down a circuit (sends DESTROY toward the entry relay)."""
        if circuit.state == "closed":
            return
        self.sim.ground_flight()
        previous_state = circuit.state
        circuit.state = "closed"
        build = self._builds.pop(circuit.circ_id, None)
        if build is not None:
            build.timeout.cancel()
        for stream in list(circuit.streams.values()):
            stream.state = "closed"
        circuit.streams.clear()
        conn = self._conn_for_circuit.pop(circuit.circ_id, None)
        if conn is not None and previous_state in ("building", "built"):
            self._send_cell(conn, Cell(circuit.circ_id, CellCommand.DESTROY, "closed"))

    def disconnect_or_conns(self) -> None:
        """Close and forget cached entry-relay OR connections.

        Counterpart of :meth:`~repro.tor.relay.Relay.disconnect_or_conns`
        for the client side; used by per-task isolation so each
        measurement task starts from a connection-free world.
        """
        for conn in self._or_conns.values():
            conn.close()
        self._or_conns.clear()

    @property
    def open_circuit_count(self) -> int:
        """Number of currently built circuits."""
        return sum(1 for c in self.circuits.values() if c.is_built)
