"""Flights: a circuit's cells worked out inside the event that sends them.

A cell whose round trip can be worked out in the sending event, with
nothing else due before the answer lands, does not travel as cells: the
client walks it once (:func:`_walk`: every draw each hop would take, in
the cells' order, written where the cells write it) and schedules the
answer alone (:meth:`Simulator.launch_flight`). No cell, cipher or digest
is touched, so both ends of every onion layer stay in lockstep.

A flight is one record (:class:`Flight`) of one of three kinds — a
:class:`Probe` (a stream's DATA cell to an echo server, or a ping-pong
round of them walked at once), a :class:`Train` (a timer-paced run of
them, walked at once) or a :class:`SetUp` (a circuit's CREATE, EXTEND or
BEGIN, the far end's new connection included) — with one launch, one
give-back, one take-back and one landing step.
"""

from __future__ import annotations

from bisect import bisect_left
from math import inf
from typing import TYPE_CHECKING

import numpy as np

from repro.netsim.latency import LOOPBACK_JITTER_MS, JitterModel
from repro.netsim.policies import TrafficClass
from repro.netsim.transport import SYN_BYTES, NetworkFabric, StreamConnection
from repro.tor.cells import CELL_SIZE_BYTES, RelayCommand
from repro.tor.relay import Relay
from repro.util.errors import SimulationError
from repro.util.rng import BLOCK_WORDS
from repro.util.units import Milliseconds

if TYPE_CHECKING:
    from repro.tor.client import OnionProxy, TorStream

#: The fewest probes a ping-pong round must have left to fly (the one
#: being sent included, up to the next live event at the path's floor
#: round trip each) for :meth:`Probe.walk_round` to walk them at once;
#: fewer go probe by probe. Per probe on a 4-hop service-queue world
#: (µs spin-normalised, 2-vCPU x86, median of three), by probes left:
#:
#:   left            4     8    12    16    18    20    24    32    64   200
#:   probe by probe 24.0  20.9  20.6  19.2  20.1  20.2  18.1  18.4  17.8  18.0
#:   round walk     70.9  34.4  25.3  23.0  19.9  17.8  14.5  12.0   8.2   4.7
#: (Re-measured with the walked round landing in one event: DESIGN §5.)
ROUND_WALK_MIN = 18

#: A loopback segment's scheduling noise, as a jitter model: no burst.
_LOOPBACK = JitterModel(LOOPBACK_JITTER_MS, 0.0, 0.0)


class Flight:
    """One flight: ``cell`` — ``(circuit, command, stream id, data)``, what
    ``proxy`` sends as cells if it does not fly —, the times its cells are
    sent (``sends``: now, or a train's), its ``chart`` (the steps the walk
    takes, one ``(connection written to, its peer, serialization delay,
    relay that processes the arrival or None, its circuit entry)`` per
    segment, then what the landing needs), the walk's ``marks`` (where it
    found everything it drew from or wrote) and ``lands`` (the landing
    times of a walked round or a train; ``None`` for one cell). A kind
    says how far ahead the simulator must be quiet before the flight
    charts (``floor()``, ``None`` to refuse: refusing is always exact),
    charts (``charted()``, ``None`` if a cell sent now would not come
    back answered) and what the answer's cell would have done at the
    client (``landed(probes)``)."""

    __slots__ = ("proxy", "cell", "stream", "sends", "chart", "marks", "lands")

    #: The counter a give-back moves, if the kind keeps one.
    given_back: str | None = None

    def __init__(self, proxy: "OnionProxy", cell: tuple,
                 stream: "TorStream | None" = None) -> None:
        self.proxy, self.cell, self.stream, self.lands = proxy, cell, stream, None
        self.sends = [proxy.sim.now]

    def launch(self) -> bool:
        """Fly the cells. ``False`` — nothing drawn, changed or scheduled
        that the cell path will not redo identically — unless the cells
        would make the round trip (``charted()``: every state check a cell
        would meet, no relay reading the clock), no hop's wait would raise
        a ``queue_saturated`` event, a train's cells would take each
        stream in the order the walk takes it (:func:`_walk`) and nothing
        else (nor the end of a bounded ``run``) is due before the last
        answer lands, a tie included: tested against ``floor()`` before
        anything is charted or drawn, so a busy simulator pays one
        comparison, then against the drawn landing by
        :meth:`Simulator.launch_flight`. A flight refused after drawing
        gives every draw back (:meth:`give_back`): all or nothing, no
        knob. Counters move at the landing, as the cells' last would."""
        sim = self.proxy.sim
        sim.ground_flight()
        floor = self.floor()
        if floor is None or not sim.quiet_through(sim.now + floor):
            return False
        chart = self.chart = self.charted()
        if chart is None:
            return False
        if self.walked_round():
            return True
        lands, self.marks = _walk(chart[0], self.sends)
        if lands is not None and sim.launch_flight(lands[-1], self.land, self.take_back):
            if len(lands) > 1:
                self.lands = lands
            return True
        self.give_back()
        return False

    def walked_round(self) -> bool:
        """Whether the flight went up as a walked round instead (a probe's
        choice, after its chart)."""
        return False

    def give_back(self) -> bool:
        """Undo the walk: every draw position, arrival, queue head and
        queue back where its marks found them (a walked round's — one
        send, many landings — where it found them before its first probe).
        Whether every stream the walk drew from stood where it left them."""
        if self.given_back is not None:
            self.proxy.metrics.inc(self.given_back)
        if self.lands is not None and len(self.sends) == 1:
            return _settle(self.marks, 0)
        steps, marks, untouched = self.chart[0], self.marks, True
        words = 2 * len(self.sends)  # each step draws once per cell
        # Backwards: a stream, connection or relay met twice took its
        # second mark after its first draw, so each stream is checked at
        # its last mark first, and met again where its rewind left it.
        for step in range(len(marks) - 1, -1, -1):
            conn, peer, _, relay, _ = steps[step]
            mark = marks[step]
            conn._last_arrival = mark[0]
            draws = conn._link.draws
            untouched = untouched and draws.base + draws.pos == mark[1] + words
            draws.rewind(mark[1])
            if len(mark) > 2:
                draws = relay.draws
                untouched = untouched and draws.base + draws.pos == mark[2] + words
                draws.rewind(mark[2])
                peer._queue_head = mark[3]
                if mark[4] is not None:
                    relay.service_queue.rewind(mark[4])
        return untouched

    def take_back(self) -> bool:
        """Give the flight in the air back and send its cell (see
        :meth:`Simulator.ground_flight`). Exact unless someone has drawn
        from one of the walk's streams since the launch — a link
        direction's is reachable from outside an event."""
        untouched = self.give_back()
        self.proxy._send(self.cell)
        return untouched

    def land(self) -> None:
        """The flight's one event: count the cells every relay on the way
        would have counted (for each probe of a walked round or train),
        then what the answer's cell would have done (``landed``)."""
        probes = 1 if self.lands is None else len(self.lands)
        for _, _, _, relay, entry in self.chart[0]:
            if relay is not None:
                relay.count_cell(entry is not None, probes)
        self.landed(probes)


class Probe(Flight):
    """A stream's one DATA cell to the reflector at its far end (an echo
    server) and the echo, or a walked round of them. The chart is
    ``(steps, reflector, the relays on the way out)``."""

    __slots__ = ()
    given_back = "echo.flight_rollbacks"

    def floor(self) -> Milliseconds:
        """The path's floor round trip; before the path is first charted,
        the round trip the stream took to open over the same path."""
        stream = self.stream
        floor = stream._floor_rtt_ms
        return stream.connected_at_ms - stream.opened_at_ms if floor is None else floor

    def charted(self) -> tuple | None:
        """:func:`_chart`, remembered on the stream. The client's checks
        (:func:`_attached`) and ``reads_clock`` run on every use; the rest
        is charted again only if the wiring epoch (DESIGN §5), entry
        connection, hop count or payload length moved."""
        proxy, stream, payload = self.proxy, self.stream, self.cell[3]
        first = _attached(proxy, stream)
        if first is None:
            return None
        key = (proxy.fabric._wiring, first, len(stream.circuit.layers), len(payload))
        memo = stream._chart_memo
        if memo is None or memo[0] != key:
            chart = _chart(proxy, stream, payload)
            if chart is None:
                return None
            memo = stream._chart_memo = (key, chart)
        chart = memo[1]
        for relay in chart[2]:
            if relay.forwarding.reads_clock:
                return None
        return chart

    def walked_round(self) -> bool:
        """Learn the path's floor; then a round with :data:`ROUND_WALK_MIN`
        probes or more left, on a stream with a round handler, is walked
        at once (:meth:`walk_round`). Probes a cut walk read for but did
        not hold go one by one."""
        stream = self.stream
        if stream._floor_rtt_ms is None:
            stream._floor_rtt_ms = _floor_ms(self.proxy.fabric, self.chart[0])
        if stream._unheld:
            stream._unheld -= 1
            return False
        follows = stream._follows
        return follows >= ROUND_WALK_MIN - 1 and stream.on_round is not None and (
            self.walk_round(follows + 1) > 0)

    def walk_round(self, left: int) -> int:
        """Walk as many of the ``left`` probes sure to be sent (each at the
        last one's landing) as could land, at the floor round trip, before
        anything is due — if :data:`ROUND_WALK_MIN` or more. Launch the
        longest prefix the cells would reproduce exactly (DESIGN §5) as one
        flight, landing with its last probe: each delay a numpy column (the
        per-probe walk's operations, in order), arrivals one ``cumsum``,
        then per probe no ``max`` that binds, no ``queue_saturated`` owed,
        landing before anything is due. The probes held, or 0, nothing
        changed, if no probe passes, too few could land or a connection
        end repeats."""
        steps = self.chart[0]
        conns, peers = [s[0] for s in steps], [s[1] for s in steps if s[3] is not None]
        if len(set(conns)) < len(conns) or len(set(peers)) < len(peers):
            return 0
        sim = self.proxy.sim
        now, rtt = sim.now, self.stream._floor_rtt_ms
        count = bisect_left(
            range(1, left + 1), True, key=lambda k: not sim.quiet_through(now + k * rtt)
        )
        if count < ROUND_WALK_MIN:
            return 0
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
            us.append(u)
            es.append(e)
            draws.append((source, words, u, e, mark))
            pick.update((site, (words, start + 2 * i)) for i, site in enumerate(sites))
            start += len(u)
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
        end = [mark[0] + mark[1] + words * held for _, words, _, _, mark in draws]
        marks = (draws, end, conns, peers, times, queues)
        _settle(marks, held)
        # The probes walked and not held go probe by probe: none twice.
        self.stream._unheld = count - held
        if held:  # quiet through its last landing: the launch is sure
            self.marks, self.lands = marks, lands[:held]
            sim.launch_flight(lands[held - 1], self.land, self.take_back)
        return held

    def landed(self, probes: int) -> None:
        """Count the reflector's echoes and the probes flown, then deliver
        the echo (a round's landing times) if every check still holds."""
        stream, chart = self.stream, self.chart
        chart[1].count_echo(probes)
        self.proxy.metrics.inc("echo.probes_flown", probes)
        # Nothing can have fired since the launch, but the code that
        # launched it ran on: evaluate every check again, as the cells
        # would have met them on the way (a fresh chart if the wiring moved).
        if self.charted() != chart:
            if probes > 1:  # the cells would have dropped the first reply
                raise SimulationError(
                    f"a round of {probes} probes walked to land at "
                    f"{self.proxy.sim.now!r} ms lost its path before its first landing"
                )
        elif self.lands is not None:
            stream.on_round(self.lands)
        elif stream.on_data is not None:
            stream.on_data(self.cell[3])


class Train(Flight):
    """A stream's DATA cell and the ``follows`` its sender is sure to send
    after it, each ``every`` ms after the last (``TorStream.send``), and
    their echoes: walked at once from the sends' times, landing with the
    last reply. The path and chart are a :class:`Probe`'s."""

    __slots__ = ()
    given_back = "echo.train_rollbacks"

    def floor(self) -> Milliseconds | None:
        """The last send's offset, then the path's floor round trip; or
        ``None`` if the sends span that round trip: a reply could be back
        first, and a relay's return visits then come before later probes'
        outbound ones, which the walk would only find out K cells on."""
        span, floor = self.stream._follows * self.stream._every, Probe.floor(self)
        return span + floor if 0 < span < floor else None

    def charted(self) -> tuple | None:
        """:meth:`Probe.charted`, the path's floor learnt as a probe's is,
        and the sends timed as the timer times them: each the last plus
        ``every``, one float add."""
        chart = Probe.charted(self)
        if chart is None:
            return None
        stream, sends = self.stream, self.sends
        if stream._floor_rtt_ms is None:
            stream._floor_rtt_ms = _floor_ms(self.proxy.fabric, chart[0])
        while len(sends) <= stream._follows:
            sends.append(sends[-1] + stream._every)
        return chart

    def take_back(self) -> bool:
        """Arm the next send, then give back and send: a refused train's order."""
        self.stream.on_pace()
        return super().take_back()

    def landed(self, probes: int) -> None:
        """Count the echoes and the probes flown, then hand the sender the
        replies and their sends, if every check holds still."""
        chart = self.chart
        chart[1].count_echo(probes)
        self.proxy.metrics.inc("echo.train_probes_flown", probes)
        if self.charted() != chart:
            raise SimulationError(
                f"a train of {probes} probes walked to land at "
                f"{self.proxy.sim.now!r} ms lost its path before its first landing"
            )
        self.stream.on_round(self.lands, self.sends)


class SetUp(Flight):
    """The cell a circuit's set-up step waits on — CREATE, EXTEND (from
    the last hop) or BEGIN —, what the far end does with it and the
    answer back. The chart is ``(steps, answer, events)``: ``answer()``
    applies the far end's writes in cell order and returns the handshake
    reply, ``events`` is what the cells take."""

    __slots__ = ()

    def floor(self) -> Milliseconds | None:
        """The circuit's last answer time (the entry hop's floor round
        trip before one): near enough, since refusing is always exact."""
        circuit = self.cell[0]
        first = self.proxy._conn_for_circuit.get(circuit.circ_id)
        if first is None or not first.established:
            return None
        return circuit._answer_ms or first._link.base_ms + first._peer._link.base_ms

    def charted(self) -> tuple | None:
        """The steps out to the circuit's last hop, through the far end — a
        CREATE at the entry, or the last hop's EXTEND (a new OR connection's
        SYN and SYN-ACK if needed, then CREATE/CREATED at the new hop) or
        BEGIN (its TCP SYN and SYN-ACK to the echo server) — and back. A new
        connection's ends are made here, unnumbered."""
        proxy = self.proxy
        circuit, command, stream_id, data = self.cell
        first = proxy._conn_for_circuit.get(circuit.circ_id)
        out = first and first.established and _out(
            first, circuit.circ_id, len(circuit.layers)
        )
        if not out:
            return None
        (steps, relay, entry), hops, opened = out, len(circuit.layers), None
        if command is RelayCommand.BEGIN:
            address, _, port = data.decode("ascii").rpartition(":")
            if not relay.exit_policy.allows(address, int(port)):
                return None
            opened = _open_to(proxy, relay, address, int(port), TrafficClass.TCP)
            if opened is None or not getattr(
                getattr(opened[2], "__self__", None), "reflects_payloads", False
            ):
                return None

            def answer() -> None:
                proxy.fabric.open_walked(*opened)
                relay._attach_exit(entry, stream_id, opened[0])

        else:  # CREATE at the entry, or the last hop's EXTEND
            conn, onionskin = first, data
            if hops:
                hop, onionskin = circuit.path[hops], data.split(b"|", 1)[1]
                if entry.next_conn is not None or hop.fingerprint == relay.fingerprint:
                    return None
                key = f"{hop.address}:{hop.or_port}"
                conn = relay._or_conns.get(key)
                if conn is None or conn.closed:
                    opened = _open_to(proxy, relay, hop.address, hop.or_port, TrafficClass.TOR)
                    if opened is None:
                        return None
                    conn = opened[0]
                elif not conn.established:
                    return None  # waiting on it is left to the cells
            peer = conn._peer if opened is None else opened[1]
            far = peer.owner if opened is None else getattr(opened[2], "__self__", None)
            if not isinstance(far, Relay) or (
                not hops and (id(peer), circuit.circ_id) in far._circuits
            ):
                return None
            steps += [(conn, peer, CELL_SIZE_BYTES, far, None),
                      (peer, conn, CELL_SIZE_BYTES, relay, None)]

            def answer() -> bytes:
                circ_id = circuit.circ_id
                if hops:
                    if opened is not None:
                        relay._dial(key, conn)
                        proxy.fabric.open_walked(*opened)
                        relay._own(conn)
                    circ_id = relay._extend_entry(entry, conn)
                return far._answer_create(peer, circ_id, onionskin)

        if opened is not None:
            steps[hops:hops] = [(opened[0], None, SYN_BYTES, None, None),
                                (opened[1], None, SYN_BYTES, None, None)]
        if hops and not _back(steps, hops, entry, first, circuit.circ_id):
            return None
        visits = [step[3] for step in steps if step[3]]
        for visited in visits:
            if visited.forwarding.reads_clock:
                return None
        steps = _timed(steps, opened[:2] if opened else ())
        if steps is None:
            return None
        events = len(steps) + len(visits) + bool(opened)  # a SYN is sent in an event
        return steps, answer, events

    def landed(self, probes: int) -> None:
        """Apply the far end's writes in cell order, then run the client
        code the answer's cell would have reached, if it would reach it."""
        proxy, (circuit, command, stream_id, _) = self.proxy, self.cell
        steps, answer, _ = self.chart
        reply = answer()
        if steps[-1][1].closed or proxy.circuits.get(circuit.circ_id) is not circuit:
            return  # the answer's cell would be dropped here
        if command is RelayCommand.BEGIN:
            proxy._stream_connected(circuit, stream_id)
        else:
            proxy._advance_build(circuit, reply)


def _walk(steps: list[tuple], sends: list[Milliseconds]) -> tuple:
    """Walk ``steps`` from each time in ``sends`` as the cells would: each
    segment the next draw of its link direction, each relay visit the next
    of its relay, computed inline as :meth:`NetworkFabric.arrival_ms` and
    :meth:`Relay.ready_ms` compute them (same float operations, same
    order: the one scalar copy) and written where they write. A step
    with no peer is a SYN or SYN-ACK (``NetworkFabric._send_syn`` /
    ``_accept``): no order kept, nothing written. Step by step, each
    send's cell in turn: a train's cells take the streams in that order
    if each stream's draws at a step come strictly after its draws at
    every step before (a relay's return visits after its outbound ones;
    checked, DESIGN §5). ``(landings, marks)``, or ``(None, marks)`` if a
    hop owes a ``queue_saturated`` event or that order would not hold."""
    marks, times = [], sends
    # When a train last drew from each stream (one cell needs no check).
    drawn = {} if len(times) > 1 else None
    # The helpers' max(a, b) is `if b > a: a = b` here: same float, no call.
    for conn, peer, serialization_ms, relay, _ in steps:
        # NetworkFabric.arrival_ms, inline, at each cell's send.
        link = conn._link or conn.link()
        draws = link.draws
        if drawn is not None:
            if drawn.get(draws, -inf) >= times[0]:
                return None, marks
            drawn[draws] = times[-1]
        mark = last_arrival = conn._last_arrival
        link_mark = draws.base + draws.pos
        model = link.jitter
        arrivals = []
        for at in times:
            i = draws.pos
            if i == BLOCK_WORDS:
                draws.fill(draws.base + i)
                i = 0
            draws.pos = i + 2
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
            if peer is not None:
                if last_arrival + 1e-6 > at:
                    at = last_arrival + 1e-6
                conn._last_arrival = last_arrival = at
            arrivals.append(at)
        times = arrivals
        if relay is None:
            marks.append((mark, link_mark))
            continue
        # Relay.ready_ms, inline, at each cell's arrival.
        draws = relay.draws
        if drawn is not None:
            if drawn.get(draws, -inf) >= times[0]:
                marks.append((mark, link_mark))
                return None, marks
            drawn[draws] = times[-1]
        queue = relay.service_queue
        marks.append((mark, link_mark, draws.base + draws.pos, peer._queue_head,
                      None if queue is None else queue.mark()))
        model = relay.forwarding
        load = model.load
        readies = []
        for arrived in times:
            i = draws.pos
            if i == BLOCK_WORDS:
                draws.fill(draws.base + i)
                i = 0
            draws.pos = i + 2
            u, e = draws.u, draws.e
            delay = model.crypto_floor_ms
            if u[i] < load:
                delay += model.queue_scale_ms * e[i]
            if u[i + 1] < model.burst_probability * (0.05 if 0.05 > load else load):
                delay += model.burst_scale_ms * e[i + 1]
            at = arrived + delay
            if peer._queue_head + 1e-6 > at:
                at = peer._queue_head + 1e-6
            if queue is not None:
                admitted = queue.admit(arrived)
                if admitted > at:
                    at = admitted
            peer._queue_head = at
            if queue is not None and relay.saturation_due(arrived, at):
                return None, marks
            readies.append(at)
        times = readies
    return times, marks


def _settle(marks: tuple, done: int) -> bool:
    """Stand a walked round's streams, connection ends and queues where
    its first ``done`` probes leave them (``0``: where the walk found
    them); whether every stream stood where the round left it."""
    draws, end, conns, peers, times, queues = marks
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


def _attached(proxy: "OnionProxy", stream: "TorStream") -> StreamConnection | None:
    """The entry connection of ``stream``'s circuit if the circuit is
    built, still ``proxy``'s and still holds the stream."""
    circuit = stream.circuit
    circ_id = circuit.circ_id
    if (
        circuit.state != "built"
        or proxy.circuits.get(circ_id) is not circuit
        or circuit.streams.get(stream.stream_id) is not stream
    ):
        return None
    return proxy._conn_for_circuit.get(circ_id)


def _chart(proxy: "OnionProxy", stream: "TorStream", payload: bytes) -> tuple | None:
    """A :class:`Probe`'s chart: the steps a lone DATA cell on ``stream``
    and its echo cross, the reflector and the relays on the way out — or
    ``None`` if the cell path would fail one of its checks on the way
    (circuit and stream attached, every hop's connection open at both
    ends, each circuit entry live and the one the relay's table holds,
    exit stream and reflector open). Only :meth:`Probe.charted` calls it."""
    circuit = stream.circuit
    hops = len(circuit.layers)
    first = _attached(proxy, stream)
    out = first and _out(first, circuit.circ_id, hops)
    if not out:
        return None
    steps, relay, entry = out
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
    if not _back(steps, hops, entry, first, circuit.circ_id):
        return None
    steps = _timed(steps)
    return steps and (steps, reflector, tuple(step[3] for step in steps[:hops]))


def _out(conn: StreamConnection, circ_id: int, hops: int) -> tuple | None:
    """The segments a RELAY cell on entry connection ``conn`` crosses to
    the ``hops``-th relay (each hop switching it forward), that relay
    and its entry; ``None`` if the cell would not get there."""
    steps: list[tuple] = []
    relay = entry = None
    for _ in range(hops):
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
    return steps, relay, entry


def _back(steps: list, hops: int, entry, first: StreamConnection, circ_id: int) -> bool:
    """Append the segments a cell from ``entry``'s relay back to
    ``first`` crosses, each relay met on the way out finding the same
    entry from its other side; ``False`` if it would not get there."""
    for _, _, _, relay, expected in reversed(steps[: hops - 1]):
        conn = entry.prev_conn
        peer = conn._peer
        entry, forward = relay.switch(peer, entry.prev_circ_id)
        if entry is not expected or forward:
            return False
        steps.append((conn, peer, CELL_SIZE_BYTES, relay, entry))
    conn = entry.prev_conn
    if conn._peer is not first or entry.prev_circ_id != circ_id:
        return False
    steps.append((conn, first, CELL_SIZE_BYTES, None, None))
    return True


def _timed(steps: list, unopened: tuple = ()) -> list | None:
    """``steps`` with each size as its writer's serialization delay,
    or ``None`` unless every segment passes what ``send`` checks on
    the writer and ``_receive`` on the reader (not checked: the
    ``unopened`` ends of a connection the walk opens)."""
    for conn, peer, _, _, _ in steps:
        if conn not in unopened and (not conn.established or conn.closed or peer.closed):
            return None
    return [
        (conn, peer, conn.local.serialization_delay_ms(size), relay, entry)
        for conn, peer, size, relay, entry in steps
    ]


def _floor_ms(fabric: NetworkFabric, steps: list[tuple]) -> Milliseconds:
    """The least the charted round trip can take: every segment at
    its deterministic floor, every relay at its minimum wait."""
    latency = fabric.latency
    floor = 0.0
    for conn, _, serialization_ms, relay, _ in steps:
        one_way = latency.base_one_way_ms(conn.local, conn.remote, conn.traffic_class)
        floor += one_way + serialization_ms
        if relay is not None:
            floor += relay.floor_ms()
    return floor


def _open_to(proxy: "OnionProxy", relay: Relay, address: str, port: int,
             traffic_class: TrafficClass) -> tuple | None:
    """The two ends of the connection ``relay`` would open to
    ``address:port`` and the listener there, or ``None`` if the
    connection would be refused."""
    try:
        target = proxy.topology.host_by_address(address)
    except KeyError:
        return None
    listener = proxy.fabric._listeners.get((target.host_id, port))
    if listener is None:
        return None
    ends = proxy.fabric.unopened(relay.host, target, port, traffic_class)
    return (*ends, listener)
