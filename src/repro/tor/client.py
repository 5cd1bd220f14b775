"""The onion proxy: client-side circuit construction and streams.

:class:`OnionProxy` plays the role of the local ``tor`` process the paper
controlled through Stem: it owns OR connections to entry relays, builds
circuits hop-by-hop (CREATE, then EXTEND per additional hop), enforces
the client policies the paper works within (no one-hop circuits, no
relay appearing twice), and multiplexes application streams onto
circuits via BEGIN/CONNECTED/DATA/END relay cells.

All operations are callback-based; the controller layer adds the
synchronous facade measurement code uses.

A stream's lone echo cell or timer-paced train of them and a circuit's
set-up cells may go as *flights* instead (:mod:`repro.tor.flight`):
walked inside the sending event, one landing event for the answer.
:meth:`OnionProxy._send_stream_data` and :meth:`OnionProxy._set_up` are
the only calls into that module.
"""

from __future__ import annotations

import functools
import itertools
from typing import Callable

from repro.netsim.engine import EventHandle, Simulator
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
from repro.tor.flight import Probe, SetUp, Train
from repro.util.errors import CircuitError, StreamError
from repro.util.units import Milliseconds

#: Default deadline for building a circuit before it is abandoned.
DEFAULT_CIRCUIT_TIMEOUT_MS = 60_000.0

#: Default deadline for attaching a stream.
DEFAULT_STREAM_TIMEOUT_MS = 30_000.0

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
        # When the last set-up cell went, how long the one before took.
        self._asked_ms: Milliseconds = 0.0
        self._answer_ms: Milliseconds = 0.0

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
        #: A sender that declares ``follows`` takes a walked round's
        #: replies here, as their landing times (a train's with its sends'
        #: times); a stream without one is never walked. One that declares
        #: ``every`` arms its next send with ``on_pace``.
        self.on_round: Callable[..., None] | None = None
        self.on_pace: Callable[[], None] | None = None
        self.on_close: Callable[[], None] | None = None
        self._proxy: "OnionProxy | None" = None
        self.opened_at_ms: Milliseconds = 0.0
        self.connected_at_ms: Milliseconds = 0.0
        # The least a one-cell echo round trip can take, once a probe
        # flight has charted the path.
        self._floor_rtt_ms: Milliseconds | None = None
        # The last chart of this path and its key (``Probe.charted``).
        self._chart_memo: tuple | None = None
        # Sends the sender said follow the last, and how far apart if it
        # paces them; sends a cut walk did not hold.
        self._follows, self._every, self._unheld = 0, None, 0

    def send(self, data: bytes, follows: int = 0,
             every: Milliseconds | None = None) -> None:
        """Send application bytes to the stream's destination; ``follows``
        more sends are sure to come, each at the last one's reply: a
        promise that lets ``on_round`` take up to ``follows + 1`` replies
        at once, the sends between them made for the sender. With
        ``every``, each is due ``every`` ms after the last instead and
        ``follows`` is 0 or all the sender has left: a train, which may
        fly whole (``on_round`` takes each reply with its send's time);
        if not, ``on_pace`` arms the next send before this one goes."""
        if self.state != "open":
            raise StreamError(f"stream {self.stream_id} is {self.state}")
        assert self._proxy is not None
        self._follows, self._every = follows, every
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
            self._set_up(circuit, CellCommand.CREATE, 0, handshake.create_payload())

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

        def refused(reason: str) -> None:
            self._fail_circuit(circuit, f"entry connection failed: {reason}")

        if existing is not None and not existing.closed:
            existing.wait(on_ready, refused)  # still connecting
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
            refused(reason)

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
        circuit._answer_ms = self.sim.now - circuit._asked_ms
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
        self._set_up(circuit, RelayCommand.EXTEND, 0, data)

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
        self._set_up(
            circuit, RelayCommand.BEGIN, stream_id, f"{address}:{port}".encode("ascii")
        )
        return stream

    def _stream_connected(self, circuit: Circuit, stream_id: int) -> None:
        circuit._answer_ms = self.sim.now - circuit._asked_ms
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
        cell = (stream.circuit, RelayCommand.DATA, stream.stream_id, payload)
        one = 0 < len(payload) <= RELAY_DATA_LEN
        if stream._every is not None:  # a train flies whole, or is no round
            if one and stream._follows and Train(self, cell, stream).launch():
                return
            stream._follows = 0
            stream.on_pace()
        if one and Probe(self, cell, stream).launch():
            return
        for start in range(0, len(payload), RELAY_DATA_LEN):
            self._send_relay_cell(
                stream.circuit,
                RelayCommand.DATA,
                stream.stream_id,
                payload[start : start + RELAY_DATA_LEN],
            )

    def _end_stream(self, stream: TorStream) -> None:
        stream.circuit.streams.pop(stream.stream_id, None)
        if stream.circuit.is_built:
            self._send_relay_cell(
                stream.circuit, RelayCommand.END, stream.stream_id, b""
            )

    # ------------------------------------------------------------------
    # Set-up cells: a set-up cell is ``(circuit, command, stream id, data)``

    def _set_up(
        self,
        circuit: Circuit,
        command: CellCommand | RelayCommand,
        stream_id: int,
        data: bytes,
    ) -> None:
        """Send the cell a set-up step waits on — CREATE, EXTEND (from
        the last hop) or BEGIN — as a flight if it may fly."""
        circuit._asked_ms = self.sim.now
        cell = (circuit, command, stream_id, data)
        if not SetUp(self, cell).launch():
            self._send(cell)

    def _send(self, cell: tuple) -> None:
        """Send ``(circuit, command, stream id, data)`` as a cell: a CREATE
        on the circuit's entry connection, anything else as a relay cell."""
        circuit, command, stream_id, data = cell
        if command is CellCommand.CREATE:
            conn = self._conn_for_circuit[circuit.circ_id]
            self._send_cell(conn, Cell(circuit.circ_id, command, data))
        else:
            self._send_relay_cell(circuit, command, stream_id, data)

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
        self._set_up(circuit, RelayCommand.EXTEND, 0, data)  # from the last hop

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
