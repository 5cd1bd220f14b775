"""Contract: a train flight is the cell path without the cells.

An ``EchoClient`` that paces its probes on a timer offers its stream the
whole rest of its train at each send (``TorStream.send(data, follows,
every)``). ``OnionProxy._send_stream_data`` may send it as a *train
flight* (``repro.tor.flight.Train``): every draw the train's cells would
take, in the order their events would take them, walked inside the
first send's event, and one landing with the last reply, which hands the
client every reply and its send's time. No timer is armed. A train that
does not fly, or is taken back at its launch instant, arms the timer
first and goes as cells. The claim is that nothing a measurement can
observe tells the two apart. Each case runs once as shipped and once
with every train flight refused (``_world.refusing(Train)``; lone probe
flights fly on both sides), on two worlds generated from the same seed,
and compares bit for bit what was measured and the world's snapshot
(``_world.state``: the clock, every draw stream's block and offset, every
connection end, relay and proxy tables, cell counts, service queues, the
echo server, the whole metrics registry but the flight counters). The
heap peak may only fall (a train's cells keep ``K`` events pending), and
the event count only by

    reference − events == Σ_trains ((4·hops + 2)·K − 2)
                          + 4·hops · (flown − reference flown)

— per landed train of ``K`` probes its ``K·(4·hops + 1)`` cell events and
``K − 1`` timer sends less its landing, and per lone probe flight
(``echo.probes_flown``) that one side flew and the other did not the
``4·hops`` events a probe flight saves.
"""

from __future__ import annotations

import _world
import pytest
from hypothesis import given, settings, strategies as st
from test_probe_flight import _stream

from repro.core.sampling import AdaptiveSpec
from repro.tor.flight import Train
from repro.tor.relay import ServiceQueue

FLIGHT_COUNTERS = (
    "echo.probes_flown", "echo.flight_rollbacks",
    "echo.train_probes_flown", "echo.train_rollbacks",
)


def differential(scenario, hops, seed=47, n_relays=10, service_queues=False):
    """Run ``scenario(testbed, hops)`` with train flights and without;
    assert the two indistinguishable; return ``(the sizes of the trains
    landed, trains given back)``."""
    both = _world.runs(
        lambda testbed: scenario(testbed, hops), Train, seed, n_relays, service_queues
    )
    (flown, _, train_probes, given_back), (reference_flown, _, *refused) = (
        tuple(run[1]["counters"].pop(name, 0) for name in FLIGHT_COUNTERS) for run in both
    )
    (observed, state, events, peak, landed), reference = both
    assert refused == [0, 0] and reference[4] == []
    assert observed == reference[0]
    assert state == reference[1]
    assert peak <= reference[3]
    trains = [len(train.lands) for train in landed]
    assert train_probes == sum(trains)
    assert reference[2] - events == sum((4 * hops + 2) * k - 2 for k in trains) + (
        4 * hops * (flown - reference_flown)
    )
    return trains, given_back


def _train(samples, interval_ms, **kwargs):
    def scenario(testbed, hops):
        stream = _stream(testbed, hops)
        result = testbed.measurement.echo_client.probe(
            stream, samples, interval_ms=interval_ms, **kwargs
        )
        testbed.sim.run_until_idle()
        return (
            result.rtts_ms, result.sent, result.received,
            result.stopped_early, result.samples_saved, result.stop_reason,
        )

    return scenario


def _round_trip(testbed, stream):
    """One ping-pong probe's RTT (it flies, and the path's floor is learnt)."""
    return testbed.measurement.echo_client.probe(stream, 1, interval_ms=None).rtts_ms[0]


# ----------------------------------------------------------------------
# The quiet regime: the train flies whole


def test_an_echo_client_train_flies_whole():
    def scenario(testbed, hops):
        stream = _stream(testbed, hops)
        result = testbed.measurement.echo_client.probe(stream, 8, interval_ms=2.0)
        testbed.sim.run_until_idle()
        return result.rtts_ms

    assert differential(scenario, hops=4, service_queues=True) == ([8], 0)


@pytest.mark.parametrize("hops", [3, 4, 5])
@pytest.mark.parametrize("interval_ms", [0.3, 2.0])
def test_trains_fly_on_every_path_length(hops, interval_ms):
    assert differential(_train(12, interval_ms), hops) == ([12], 0)


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    n_relays=st.integers(min_value=4, max_value=14),
    samples=st.integers(min_value=1, max_value=12),
    interval_ms=st.sampled_from([0.3, 2.0, 5.0]),
    hops=st.integers(min_value=2, max_value=5),
    service_queues=st.booleans(),
)
def test_generated_worlds(seed, n_relays, samples, interval_ms, hops, service_queues):
    trains, _ = differential(
        _train(samples, interval_ms), hops, seed, n_relays, service_queues
    )
    # Offered at every send: once one flies it holds every send left.
    assert len(trains) <= 1 and sum(trains) <= samples


def test_an_adaptive_train_flies_only_if_no_stop_can_come_before_its_last_reply():
    """A stop needs six replies: a six-probe cap flies whole, a twelve-probe
    one is never offered whole (its sends sure to come stop at six), and
    goes as cells."""
    adaptive = AdaptiveSpec(absolute_ms=1.0, min_samples=6, patience=2, confirm_k=2)
    assert differential(_train(6, 2.0, adaptive=adaptive), hops=3) == ([6], 0)
    assert differential(_train(12, 2.0, adaptive=adaptive), hops=3) == ([], 0)


# ----------------------------------------------------------------------
# The cells would take a stream in another order: refused


def test_replies_that_land_before_the_next_send():
    """Probes three round trips apart: each reply lands before the next
    send, so every relay met twice would meet a probe's return before the
    next probe's outbound cell. The sends span more than the path's floor
    round trip, so each offer is refused before anything is drawn, and
    each probe flies alone, on both sides."""

    def scenario(testbed, hops):
        stream = _stream(testbed, hops)
        rtt = _round_trip(testbed, stream)
        result = testbed.measurement.echo_client.probe(stream, 6, interval_ms=3 * rtt)
        testbed.sim.run_until_idle()
        assert max(result.rtts_ms) < 3 * rtt
        return result.rtts_ms

    assert differential(scenario, hops=3) == ([], 0)


def test_a_return_visit_that_overtakes_a_later_outbound_one():
    """Two probes 0.8 round trips apart on five hops: the second is sent
    before the first reply lands, but the relay next to the exit meets the
    first probe's echo before the second probe's outbound cell. Step by
    step the walk would draw that relay's stream out of its events' order:
    it gives the train back and the cells go."""

    def scenario(testbed, hops):
        stream = _stream(testbed, hops)
        rtt = _round_trip(testbed, stream)
        result = testbed.measurement.echo_client.probe(stream, 2, interval_ms=0.8 * rtt)
        testbed.sim.run_until_idle()
        assert result.rtts_ms[0] > 0.8 * rtt, "the first reply lands after the second send"
        return result.rtts_ms

    assert differential(scenario, hops=5) == ([], 1)


def test_a_hop_owing_a_queue_saturated_event():
    """A slow hop on the live bus: the train's second cell waits ≈ 100 ms
    for its service, which owes a ``queue_saturated`` event that only the
    cells emit."""

    def scenario(testbed, hops):
        relay, host = testbed.relays[0], testbed.measurement
        relay.service_queue = ServiceQueue(bandwidth_kbytes_s=5.0)
        relay.events = host.events
        stream = _stream(testbed, hops)
        result = host.echo_client.probe(stream, 4, interval_ms=2.0)
        testbed.sim.run_until_idle()
        return result.rtts_ms, len(host.events.events(kind="queue_saturated"))

    trains, given_back = differential(scenario, hops=3)
    assert trains == [] and given_back >= 1


# ----------------------------------------------------------------------
# Something else is due inside the train


@pytest.mark.parametrize(("past_floor_ms", "given_back"), [(-5.0, 0), (1e-6, 1)])
def test_a_deadline_inside_the_train(past_floor_ms, given_back):
    """The run's deadline falls inside the train's time: before its last
    send's floor round trip (refused at the first comparison), or just
    past it, so before the drawn last landing (walked and given back).
    The cells end the run there with what came back, if anything."""

    def scenario(testbed, hops):
        stream = _stream(testbed, hops)
        _round_trip(testbed, stream)
        done = []
        testbed.measurement.echo_client.probe_async(
            stream, 8, done.append, done.append, interval_ms=2.0,
            timeout_ms=7 * 2.0 + stream._floor_rtt_ms + past_floor_ms,
        )
        testbed.sim.run_until_idle()
        (result,) = done
        return result if isinstance(result, str) else (result.rtts_ms, result.stop_reason)

    assert differential(scenario, hops=4) == ([], given_back)


def test_a_bounded_run_that_ends_inside_the_train():
    def scenario(testbed, hops):
        stream = _stream(testbed, hops)
        done = []
        testbed.measurement.echo_client.probe_async(
            stream, 8, done.append, done.append, interval_ms=2.0
        )
        testbed.sim.run(until=testbed.sim.now + 10.0)
        assert not done
        testbed.sim.run_until_idle()
        return done[0].rtts_ms

    assert differential(scenario, hops=4) == ([], 0)


def test_a_take_back_at_the_launch_instant():
    """``run(max_events=1)`` returns with the train up; a timer scheduled
    inside it takes it back: the next send is armed, then the cell goes,
    as a train that never flew."""
    up = []

    def scenario(testbed, hops):
        stream, sim = _stream(testbed, hops), testbed.sim
        done, ticks = [], []
        testbed.measurement.echo_client.probe_async(
            stream, 8, done.append, done.append, interval_ms=2.0
        )
        sim.run(max_events=1)
        up.append(sim._flight is not None)
        sim.schedule(1.0, lambda: ticks.append(sim.now))
        sim.run_until_idle()
        return done[0].rtts_ms, ticks

    assert differential(scenario, hops=4, service_queues=True) == ([], 1)
    assert up == [True, False]


@pytest.mark.parametrize(("offset_ms", "trains"), [(0.0, []), (5.0, []), (600.0, [6, 6])])
def test_cross_traffic_on_a_second_circuit(offset_ms, trains):
    """A second circuit's train starts ``offset_ms`` after the first's: at
    once or inside it, both go as cells (each keeps the other's events
    due); after the first's last landing, each flies whole."""

    def scenario(testbed, hops):
        client, sim = testbed.measurement.echo_client, testbed.sim
        first, second = _stream(testbed, hops), _stream(testbed, hops, first=1)
        done = {}

        def start(name, stream):
            client.probe_async(stream, 6, lambda r: done.setdefault(name, r.rtts_ms),
                               done.setdefault, interval_ms=2.0)

        start("first", first)
        sim.schedule(offset_ms, start, "second", second)
        sim.run_until_idle()
        return done

    assert differential(scenario, hops=3) == (trains, 0)
