"""Contract: a probe flight is the cell path without the cells.

``OnionProxy._send_stream_data`` may send a lone echo cell as a *probe
flight* (``repro.tor.flight.Probe``) — every draw the cells would take,
each from its own link's or relay's stream, inside the sending event,
and one landing event. The claim is that nothing a measurement can
observe tells the two apart. This file holds the claim to that: each
case runs once as shipped and once with every probe flight refused
(``_world.refusing(Probe)``), on two worlds generated from the same
seed, and compares — bit for bit — what was measured and the world's
snapshot (``_world.state``: the clock, every draw stream, every
connection end, relay tables, cell counts, service queues, the echo
server, the whole metrics registry but the flight counters), and the
heap peak. The one thing allowed to differ is the simulator's event
count, and only by ``4 x hops`` per flown probe plus ``held - 1`` per
walked round that landed once (its ``held`` probes in one event).

(The first file of ``tests/contract/``, ROADMAP item 2.)
"""

from __future__ import annotations

from contextlib import ExitStack
from unittest.mock import patch

import _world
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.sampling import AdaptiveSpec, SamplePolicy
from repro.netsim.policies import TrafficClass
from repro.netsim.transport import Packet
from repro.testbeds.churn import ChurnProcess
from repro.testbeds.livetor import LiveTorTestbed
from repro.tor import flight
from repro.tor.cells import RELAY_DATA_LEN, RelayCommand
from repro.tor.flight import ROUND_WALK_MIN, Probe
from repro.tor.relay import DiurnalForwardingDelayModel, ServiceQueue
from repro.util.errors import SimulationError
from repro.util.rng import BLOCK_WORDS, DrawStream

FLIGHT_COUNTERS = ("echo.probes_flown", "echo.flight_rollbacks")


def _stream(testbed, hops, first=0):
    """An echo stream over ``w, <hops - 2 public relays>, z``."""
    host = testbed.measurement
    middle = [relay.fingerprint for relay in testbed.relays[first : first + hops - 2]]
    circuit = host.controller.build_circuit(
        [host.relay_w.fingerprint, *middle, host.relay_z.fingerprint]
    )
    return host.controller.open_stream(circuit, host.echo_address, host.echo_port)


def differential(scenario, hops, seed=47, n_relays=10, service_queues=False):
    """Run ``scenario(testbed, hops)`` flown and as cells; assert the two
    indistinguishable; return ``(probes flown, flights rolled back)``."""
    both = _world.runs(
        lambda testbed: scenario(testbed, hops), Probe, seed, n_relays, service_queues
    )
    (flown, rollbacks), cells = (
        tuple(run[1]["counters"].pop(name, 0) for name in FLIGHT_COUNTERS) for run in both
    )
    (observed, state, events, peak, landed), reference = both
    assert cells == (0, 0)
    assert observed == reference[0]
    assert state == reference[1]
    assert peak == reference[3]
    rounds = [len(probe.lands) for probe in landed if probe.lands is not None]
    assert reference[2] - events == 4 * hops * flown + sum(n - 1 for n in rounds)
    return flown, rollbacks


def _pingpong(samples, **kwargs):
    def scenario(testbed, hops):
        stream = _stream(testbed, hops)
        result = testbed.measurement.echo_client.probe(
            stream, samples, interval_ms=None, **kwargs
        )
        testbed.sim.run_until_idle()
        return (
            result.rtts_ms, result.sent, result.received,
            result.stopped_early, result.samples_saved, result.stop_reason,
        )

    return scenario


# ----------------------------------------------------------------------
# The quiet regime: every probe flies


@pytest.mark.parametrize("hops", [3, 4])
def test_every_pingpong_probe_flies_and_nothing_measured_moves(hops):
    assert differential(_pingpong(25), hops) == (25, 0)


@pytest.mark.parametrize("hops", [3, 4])
def test_service_queues_are_left_as_the_cells_leave_them(hops):
    assert differential(_pingpong(25), hops, service_queues=True) == (25, 0)


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    n_relays=st.integers(min_value=4, max_value=14),
    samples=st.integers(min_value=1, max_value=2 * ROUND_WALK_MIN),
    hops=st.integers(min_value=2, max_value=5),
    service_queues=st.booleans(),
)
def test_generated_worlds(seed, n_relays, samples, hops, service_queues):
    flown, _ = differential(
        _pingpong(samples), hops, seed, n_relays, service_queues
    )
    assert flown == samples


def test_adaptive_early_stop():
    adaptive = AdaptiveSpec(absolute_ms=1.0, min_samples=2, patience=2, confirm_k=2)
    sent = []

    def scenario(testbed, hops):
        observed = _pingpong(60, adaptive=adaptive)(testbed, hops)
        sent.append(observed[1])
        assert observed[3], "the round must stop early"
        return observed

    flown, _ = differential(scenario, hops=4)
    assert flown == sent[0] < 60


# ----------------------------------------------------------------------
# Something else is due: the flight declines, before or after drawing


def test_a_round_that_hits_its_deadline():
    """The deadline is a live event: the probe it would cut short goes
    as cells (its flight is refused, drawn or not), the rest fly."""
    outcome = []

    def scenario(testbed, hops):
        stream = _stream(testbed, hops)
        client = testbed.measurement.echo_client
        rtt = client.probe(stream, 1, interval_ms=None).rtts_ms[0]
        observed = _pingpong(1000, timeout_ms=6.5 * rtt)(testbed, hops)
        outcome.append(observed)
        return observed

    flown, _ = differential(scenario, hops=4)
    _, sent, received, _, _, reason = outcome[0]
    assert reason == "deadline" and sent == received + 1
    assert flown == 1 + received


def test_a_relay_shut_down_mid_round():
    outcome = []

    def scenario(testbed, hops):
        stream = _stream(testbed, hops)
        churn = ChurnProcess(
            testbed.sim, [testbed.relays[0]], testbed.authority,
            np.random.default_rng(3), mean_uptime_ms=40_000.0,
        )
        churn.start()
        result = testbed.measurement.echo_client.probe(
            stream, 400, interval_ms=None
        )
        churn.stop()
        testbed.sim.run_until_idle()
        outcome.append(result)
        return result.rtts_ms, result.sent, result.stop_reason, churn.transitions

    flown, _ = differential(scenario, hops=4)
    result = outcome[0]
    assert 10 < result.received < result.sent < 400
    # The shutdown is a live event: the probe whose round trip spans it
    # goes as cells, whether or not it gets back.
    assert result.received - 1 <= flown <= result.received


def test_cross_traffic_through_shared_relays_never_flies():
    """A timer-paced train on a second circuit keeps an event due inside
    every floor round trip: each ping-pong probe pays one comparison."""

    def scenario(testbed, hops):
        client = testbed.measurement.echo_client
        train, pingpong = _stream(testbed, hops), _stream(testbed, hops, first=1)
        done = {}
        client.probe_async(
            train, 600, lambda r: done.setdefault("train", r), done.setdefault,
            interval_ms=5.0,
        )
        client.probe_async(
            pingpong, 4, lambda r: done.setdefault("pingpong", r), done.setdefault,
            interval_ms=None,
        )
        testbed.sim.run(stop_when=lambda: "pingpong" in done)
        assert "train" not in done, "the train must outlast the ping-pong round"
        testbed.sim.run_until_idle()
        return done["train"].rtts_ms, done["pingpong"].rtts_ms

    charts = []
    chart = flight._chart

    def counting(proxy, stream, payload):
        charts.append(stream)
        return chart(proxy, stream, payload)

    with patch.object(flight, "_chart", counting):
        assert differential(scenario, hops=3) == (0, 0)
    # Not even charted: until a stream's floor is known, the round trip
    # it took to open stands in for it.
    assert not charts


def test_a_hop_whose_delay_model_reads_the_clock_never_flies():
    def scenario(testbed, hops):
        relay = testbed.relays[0]
        relay.forwarding = DiurnalForwardingDelayModel(
            testbed.sim, phase_ms=6 * 3_600_000.0
        )
        return _pingpong(10)(testbed, hops)

    assert differential(scenario, hops=4) == (0, 0)


def test_a_payload_longer_than_one_cell_never_flies():
    def scenario(testbed, hops):
        stream = _stream(testbed, hops)
        chunks = []
        stream.on_data = lambda data: chunks.append((testbed.sim.now, data))
        stream.send(bytes(range(256)) * 2 + b"tail")
        assert len(bytes(range(256)) * 2 + b"tail") > RELAY_DATA_LEN
        testbed.sim.run_until_idle()
        assert len(chunks) == 2
        return chunks

    assert differential(scenario, hops=4) == (0, 0)


def test_a_bounded_run_that_ends_mid_round_trip():
    """``run(until=...)`` short of the landing: the flight is refused at
    launch, so the run returns with cells in the air, not a flight."""

    def scenario(testbed, hops):
        stream = _stream(testbed, hops)
        done = []
        testbed.measurement.echo_client.probe_async(
            stream, 5, done.append, done.append, interval_ms=None
        )
        testbed.sim.run(until=testbed.sim.now + 20.0)
        assert not done
        testbed.sim.run_until_idle()
        return done[0].rtts_ms

    assert differential(scenario, hops=4) == (4, 0)


# ----------------------------------------------------------------------
# The sender goes on after launching: the flight is taken back


def test_a_sender_that_schedules_inside_the_round_trip_after_sending():
    """``send`` then ``schedule(interval)``: the first payload is launched
    on a quiet heap, and taken back — draws, queues, arrivals — when the
    next send is scheduled inside its round trip. (``EchoClient`` offers
    its whole train at once instead: ``test_train_flight.py``.)"""

    def scenario(testbed, hops):
        stream = _stream(testbed, hops)
        sim = testbed.sim
        replies = []
        stream.on_data = lambda data: replies.append((sim.now, data))

        def send(seq):
            stream.send(bytes([seq]) * 12)
            if seq < 7:
                sim.schedule(2.0, send, seq + 1)

        sim.schedule(0.0, send, 0)
        sim.run_until_idle()
        assert len(replies) == 8
        return replies

    assert differential(scenario, hops=4, service_queues=True) == (0, 1)


def test_flown_and_cell_probes_interleave_and_the_circuit_stays_in_lockstep():
    """Flights skip every cipher and digest on the circuit, at both ends
    of every layer; cells sent between and after them — a train, the
    stream's END, a second stream's BEGIN / CONNECTED — are still
    recognized where they should be."""

    def scenario(testbed, hops):
        host = testbed.measurement
        client, sim = host.echo_client, testbed.sim
        stream = _stream(testbed, hops)
        rtts = [
            client.probe(stream, 6, interval_ms=None).rtts_ms,
            client.probe(stream, 6, interval_ms=2.0).rtts_ms,
            client.probe(stream, 6, interval_ms=None).rtts_ms,
        ]
        accepted = host.echo_server.connections_accepted
        stream.close()
        sim.run_until_idle()
        circuit = stream.circuit
        assert circuit.is_built and host.relay_z.open_circuits == 1
        (exit_entry,) = host.relay_z._circuits.values()
        assert not exit_entry.exit_streams, "the exit recognized the END"
        again = host.controller.open_stream(
            circuit, host.echo_address, host.echo_port
        )
        assert host.echo_server.connections_accepted == accepted + 1
        rtts.append(client.probe(again, 6, interval_ms=None).rtts_ms)
        sim.run_until_idle()
        return rtts

    assert differential(scenario, hops=4) == (18, 0)


@pytest.mark.parametrize("what", ["stream", "circuit"])
def test_send_then_close_in_one_breath(what):
    def scenario(testbed, hops):
        stream = _stream(testbed, hops)
        got = []
        stream.on_data = got.append
        stream.send(b"ping")
        if what == "stream":
            stream.close()
        else:
            testbed.measurement.controller.close_circuit(stream.circuit)
        testbed.sim.run_until_idle()
        return got

    assert differential(scenario, hops=3) == (0, 1)


def test_a_bounded_run_returns_mid_flight_and_the_caller_schedules():
    """``run(max_events=...)`` returns at the launch instant with the
    flight up; a plain event scheduled before the landing takes it back,
    which is exact there."""

    def scenario(testbed, hops):
        stream = _stream(testbed, hops)
        sim = testbed.sim
        done, ticks = [], []
        testbed.measurement.echo_client.probe_async(
            stream, 3, done.append, done.append, interval_ms=None
        )
        sim.run(max_events=1)  # the first send
        sim.schedule(1.0, lambda: ticks.append(sim.now))
        sim.run_until_idle()
        return done[0].rtts_ms, ticks

    assert differential(scenario, hops=4) == (2, 1)


# ----------------------------------------------------------------------
# Landing: every check again


@pytest.mark.parametrize("change", ["listener removed", "circuit forgotten"])
def test_landing_drops_what_the_last_cell_would_have_dropped(change):
    """The client's side changed while the probe was out: the cells
    cross every relay and the echo server, and the proxy drops the
    reply; the landing counts the same cells and delivers nothing."""

    def scenario(testbed, hops):
        stream = _stream(testbed, hops)
        got = []
        stream.on_data = got.append
        stream.send(b"ping")
        if change == "listener removed":
            stream.on_data = None
        else:
            del testbed.measurement.proxy.circuits[stream.circuit.circ_id]
        testbed.sim.run_until_idle()
        return got

    assert differential(scenario, hops=4) == (1, 0)


def test_a_walked_round_whose_path_broke_before_its_landing_raises():
    """A walked round lands once, with its last probe. A raw write that
    breaks its path while it is up (between ``run()`` calls; a write
    inside an event schedules something, which takes the round back)
    would have dropped the first reply, before that landing: it raises."""
    testbed = LiveTorTestbed.build(seed=47, n_relays=10)
    stream, sim = _stream(testbed, hops=4), testbed.sim
    testbed.measurement.echo_client.probe_async(
        stream, 64, lambda result: None, lambda reason: None, interval_ms=None
    )
    sim.run(max_events=1)  # the first send: the round is launched
    assert sim._flight is not None
    del testbed.measurement.proxy.circuits[stream.circuit.circ_id]
    with pytest.raises(SimulationError, match="lost its path"):
        sim.run_until_idle()


def _ping_under_a_flight(to_helper_w: bool):
    """Launch a flight, then send a datagram from the echo client's host
    before the landing; returns ``(testbed, landing event, send)``."""
    testbed = LiveTorTestbed.build(seed=47, n_relays=6)
    host, sim = testbed.measurement, testbed.sim
    stream = _stream(testbed, hops=4)
    host.echo_client.probe_async(
        stream, 3, lambda result: None, lambda reason: None, interval_ms=None
    )
    sim.run(max_events=1)  # returns with the first probe's flight up
    dst = host.relay_w.host if to_helper_w else testbed.relays[0].host
    ping = Packet(
        src=host.echo_client_host, dst=dst, sport=0, dport=0,
        traffic_class=TrafficClass.ICMP, payload=("echo-request", 0, None),
    )
    return testbed, sim._flight, lambda: testbed.fabric.send(ping)


def test_drawing_link_jitter_under_a_flight_fails_fast():
    """The one thing that cannot be replayed: someone took a draw of a
    link direction the flight had already drawn its whole path on (here
    ``s -> w``, the flight's first segment)."""
    _, landing, send = _ping_under_a_flight(to_helper_w=True)
    with pytest.raises(SimulationError) as raised:
        send()
    assert f"lands at {landing.time!r} ms" in str(raised.value)


def test_drawing_on_another_link_under_a_flight_is_replayed_exactly():
    """Draws are keyed by who makes them: a datagram on a direction the
    flight does not cross takes nothing of the flight's, so the flight
    comes back as cells and the send goes ahead."""
    testbed, _, send = _ping_under_a_flight(to_helper_w=False)
    send()
    assert testbed.sim._flight is None
    testbed.sim.run_until_idle()


# ----------------------------------------------------------------------
# Rounds walked at launch: the same contract on both sides of the
# crossover (``ROUND_WALK_MIN``), and what a walked round can meet


class _Walks:
    """Round walks, the probes each held, and block reads (a single read
    counts one, a run as many blocks as it fills), while patched in."""

    def __init__(self):
        self.held, self.reads = [], 0

    def __enter__(self):
        walk, read, read_run = Probe.walk_round, DrawStream.read, DrawStream.read_run

        def walked(probe, left):
            held = walk(probe, left)
            if held:
                self.held.append(held)
            return held

        def counted(draws, base):
            self.reads += 1
            return read(draws, base)

        def counted_run(draws, base, u, e):
            self.reads += len(u) // BLOCK_WORDS
            return read_run(draws, base, u, e)

        self._patches = ExitStack()
        self._patches.enter_context(patch.object(Probe, "walk_round", walked))
        self._patches.enter_context(patch.object(DrawStream, "read", counted))
        self._patches.enter_context(patch.object(DrawStream, "read_run", counted_run))
        return self

    def __exit__(self, *exc):
        self._patches.close()

    def reading(self, scenario, runs):
        """``scenario``, appending each run's block reads to ``runs``
        (``differential`` runs it flown, then as cells)."""

        def counted(testbed, hops):
            before = self.reads
            observed = scenario(testbed, hops)
            runs.append(self.reads - before)
            return observed

        return counted


def _either_side(samples):
    """The round is walked at launch exactly when it is long enough."""
    return ROUND_WALK_MIN if samples >= ROUND_WALK_MIN else 0


@pytest.mark.parametrize("samples", [12, 64])
def test_pingpong_rounds_on_both_sides_of_the_crossover(samples):
    for hops in (3, 4):
        for service_queues in (False, True):
            with _Walks() as walks:
                assert differential(
                    _pingpong(samples), hops, service_queues=service_queues
                ) == (samples, 0)
            assert walks.held == ([samples] if _either_side(samples) else [])
        

@pytest.mark.parametrize("samples", [12, 64])
def test_adaptive_early_stop_on_both_sides_of_the_crossover(samples):
    """The echo client declares only the sends no stop can precede (here
    ``min_samples``, half the cap): those are walked, the stop falls
    after them, and nothing is read that the cells would not read."""
    adaptive = AdaptiveSpec(
        absolute_ms=1.0, min_samples=samples // 2, patience=2, confirm_k=2
    )
    sent, reads = [], []

    def scenario(testbed, hops):
        observed = _pingpong(samples, adaptive=adaptive)(testbed, hops)
        sent.append(observed[1])
        return observed

    with _Walks() as walks:
        flown, _ = differential(walks.reading(scenario, reads), hops=4)
    assert flown == sent[0] < samples
    assert walks.held == ([samples // 2] if _either_side(samples // 2) else [])
    assert reads[0] == reads[1]


@pytest.mark.parametrize("rtts", [6.5, 40.5])
def test_a_round_that_hits_its_deadline_on_both_sides_of_the_crossover(rtts):
    """The deadline bounds the walk: the walked prefix lands before it,
    and the probe it would cut short goes as cells."""
    outcome = []

    def scenario(testbed, hops):
        stream = _stream(testbed, hops)
        client = testbed.measurement.echo_client
        rtt = client.probe(stream, 1, interval_ms=None).rtts_ms[0]
        observed = _pingpong(1000, timeout_ms=rtts * rtt)(testbed, hops)
        outcome.append(observed)
        return observed

    with _Walks() as walks:
        flown, _ = differential(scenario, hops=4)
    _, sent, received, _, _, reason = outcome[0]
    assert reason == "deadline" and sent == received + 1
    assert flown == 1 + received
    assert (walks.held == [received]) == (rtts > ROUND_WALK_MIN)


@pytest.mark.parametrize("samples", [12, 64])
def test_a_relay_shut_down_mid_round_on_both_sides_of_the_crossover(samples):
    outcome = []

    def scenario(testbed, hops):
        stream = _stream(testbed, hops)
        churn = ChurnProcess(
            testbed.sim, [testbed.relays[0]], testbed.authority,
            np.random.default_rng(3), mean_uptime_ms=1_500.0 * samples,
        )
        churn.start()
        result = testbed.measurement.echo_client.probe(
            stream, samples, interval_ms=None
        )
        churn.stop()
        testbed.sim.run_until_idle()
        outcome.append(result)
        return result.rtts_ms, result.sent, result.stop_reason, churn.transitions

    with _Walks() as walks:
        flown, _ = differential(scenario, hops=4)
    result = outcome[0]
    assert 1 < result.received < result.sent < samples
    assert result.received - 1 <= flown <= result.received
    assert len(walks.held) == (1 if _either_side(samples) else 0)


def test_an_adaptive_round_walks_only_the_probes_it_is_sure_to_send():
    """The paper's operating point (``SamplePolicy.adaptive_1ms``: cap
    200, ``min_samples`` 10, ``patience`` 30): no stop can come before the
    30th reply, so the first walk holds 30 probes, later ones only what a
    plateau still needs — each landing as one event, no flight taken
    back, and every block read is one the cells read."""
    adaptive = SamplePolicy.adaptive_1ms().adaptive
    rounds, reads = [], []

    def scenario(testbed, hops):
        observed = _pingpong(200, adaptive=adaptive)(testbed, hops)
        rounds.append(observed)
        return observed

    with _Walks() as walks:
        flown, rollbacks = differential(
            walks.reading(scenario, reads), hops=3, service_queues=True
        )
    rtts, sent, received, stopped, saved, reason = rounds[0]
    assert stopped and reason == "converged" and sent == received == flown < 200
    assert rollbacks == 0
    assert walks.held[0] == adaptive.patience and sum(walks.held) <= sent
    assert reads[0] == reads[1]


def _overstating(cap, adaptive):
    """A ping-pong sender that declares the rest of its cap as following
    every send but stops when ``adaptive``'s tracker says so, and takes
    its replies one by one (no ``on_round``)."""

    def scenario(testbed, hops):
        stream, sim = _stream(testbed, hops), testbed.sim
        tracker, rtts, sent_at = adaptive.make_tracker(), [], []

        def send():
            sent_at.append(sim.now)
            stream.send(bytes(12), cap - len(sent_at))

        def reply(payload):
            rtts.append(sim.now - sent_at[-1])
            if not tracker.update(rtts[-1]) and len(sent_at) < cap:
                send()

        stream.on_data = reply
        sim.schedule(0.0, send)
        sim.run_until_idle()
        return rtts

    return scenario


def test_a_sender_without_a_round_handler_is_never_walked():
    """Declaring ``follows`` is not enough: a stream whose sender takes no
    round (``TorStream.on_round``) goes probe by probe, and a sender that
    stops short of what it declared stops on the cells' sample."""
    adaptive = AdaptiveSpec(absolute_ms=1.0, min_samples=2, patience=2, confirm_k=2)
    rounds = []

    def scenario(testbed, hops):
        rtts = _overstating(200, adaptive)(testbed, hops)
        rounds.append(rtts)
        return rtts

    with _Walks() as walks:
        flown, rollbacks = differential(scenario, hops=3, service_queues=True)
    assert 1 < len(rounds[0]) == flown < 200 and rollbacks == 0
    assert walks.held == []


def test_a_live_timer_inside_the_round_cuts_the_walk_short():
    """A timer due mid-round bounds the walk before anything is drawn:
    a short prefix is held, the probe the timer would interrupt goes as
    cells, the rest of the round is walked after it — and no block is
    read that the cells would not read."""
    reads = []

    def scenario(testbed, hops):
        stream = _stream(testbed, hops)
        sim = testbed.sim
        client = testbed.measurement.echo_client
        rtt = client.probe(stream, 1, interval_ms=None).rtts_ms[0]
        ticks = []
        sim.schedule(30.5 * rtt, lambda: ticks.append(sim.now))
        return _pingpong(200)(testbed, hops), ticks

    with _Walks() as walks:
        # 201 probes sent, one of them as cells.
        assert differential(
            walks.reading(scenario, reads), hops=4, service_queues=True
        ) == (200, 0)
    assert len(walks.held) == 2 and walks.held[0] < 31 and sum(walks.held) <= 200
    flown_reads, cell_reads = reads
    assert flown_reads == cell_reads


def test_a_busy_service_queue_at_the_first_probe_falls_back_exactly():
    """A backlog admitted outside any event (a public call on the queue)
    still holds the relay when the first probe arrives: the walk accepts
    nothing, and the probes it read for go probe by probe — the scalar
    ``admit`` — on the blocks it read, none read twice."""
    reads = []

    def scenario(testbed, hops):
        stream, sim = _stream(testbed, hops), testbed.sim
        queue = testbed.relays[0].service_queue
        while queue.backlog_ms(sim.now) < 50.0:
            queue.admit(sim.now)
        result = testbed.measurement.echo_client.probe(stream, 64, interval_ms=None)
        sim.run_until_idle()
        return result.rtts_ms

    with _Walks() as walks:
        assert differential(
            walks.reading(scenario, reads), hops=3, service_queues=True
        ) == (64, 0)
    assert walks.held == []
    assert reads[0] == reads[1]


@pytest.mark.parametrize("hops", [3, 4])
def test_a_round_spanning_many_blocks_per_stream(hops):
    """200 probes walked at once: every stream reads block after block
    ahead of the cells (a relay visited twice, twice as many) and stands
    where 200 probes' worth of takes leave it."""
    spans = []
    ahead = DrawStream.ahead

    def recorded(draws, words):
        spans.append(words)
        return ahead(draws, words)

    with _Walks() as walks, patch.object(DrawStream, "ahead", recorded):
        assert differential(_pingpong(200), hops, service_queues=True) == (200, 0)
    assert walks.held == [200]
    assert len(spans) >= 2 * hops + 1 and min(spans) >= 3 * 2 * 16


def test_a_connection_whose_last_arrival_is_ahead_falls_back_exactly():
    """The entry connection holds a last arrival past the first probe's
    (a raw write): its in-order ``max`` would bind, so the walk accepts
    nothing, and the probes it read for go probe by probe, none of their
    blocks read twice."""
    reads = []

    def scenario(testbed, hops):
        stream = _stream(testbed, hops)
        conn = testbed.measurement.proxy._conn_for_circuit[stream.circuit.circ_id]
        conn._last_arrival = testbed.sim.now + 30.0
        result = testbed.measurement.echo_client.probe(stream, 64, interval_ms=None)
        testbed.sim.run_until_idle()
        return result.rtts_ms

    with _Walks() as walks:
        assert differential(walks.reading(scenario, reads), hops=3) == (64, 0)
    assert walks.held == []
    assert reads[0] == reads[1]


def test_a_hop_owing_queue_saturated_events_ends_each_prefix():
    """A slow hop on the live bus: every probe waits ≈ 100 ms for its
    service, so a ``queue_saturated`` event is owed whenever the cooldown
    has run out. A round started inside the cooldown (a lone probe just
    emitted one) is walked, and the walk holds only the probes before
    the next; the cells emit it, and the rest of what the walk read for
    goes probe by probe: one walk, and no block read that the round read
    probe by probe does not read. (Probe by probe reads a block again
    where a flight refused for an owed event rewinds across a block
    boundary; the cells never rewind.)"""
    reads, probe_by_probe = [], []

    def scenario(testbed, hops):
        relay, host = testbed.relays[0], testbed.measurement
        relay.service_queue = ServiceQueue(bandwidth_kbytes_s=5.0)
        relay.events = host.events
        stream = _stream(testbed, hops)
        host.echo_client.probe(stream, 1, interval_ms=None)
        result = host.echo_client.probe(stream, 64, interval_ms=None)
        testbed.sim.run_until_idle()
        return result.rtts_ms, len(host.events.events(kind="queue_saturated"))

    with _Walks() as walks:
        flown, _ = differential(walks.reading(scenario, reads), hops=3)
    assert 0 < flown < 64 and len(walks.held) == 1 and walks.held[0] < 8
    with _Walks() as unwalked, patch("repro.tor.flight.ROUND_WALK_MIN", 10**9):
        assert differential(unwalked.reading(scenario, probe_by_probe), 3)[0] == flown
    assert unwalked.held == [] and reads == probe_by_probe


def test_a_chart_that_meets_a_connection_end_twice_is_not_walked():
    testbed = LiveTorTestbed.build(seed=47, n_relays=10)
    proxy, stream = testbed.measurement.proxy, _stream(testbed, hops=3)
    probe = _probe(proxy, stream, bytes(12))
    chart = probe.charted()
    steps = chart[0]
    def positions():
        streams = testbed.streams.draws._streams.values()
        return {draws.name: draws.base + draws.pos for draws in streams}

    before, pending = positions(), testbed.sim.pending
    probe.chart = (steps + steps[:1], *chart[1:])
    assert not probe.walk_round(30)
    assert testbed.sim._flight is None and testbed.sim.pending == pending
    assert positions() == before


def _probe(proxy, stream, payload):
    """The probe flight ``stream.send(payload)`` would launch."""
    return Probe(proxy, (stream.circuit, RelayCommand.DATA, stream.stream_id, payload), stream)
