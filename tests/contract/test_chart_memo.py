"""Contract: the chart a probe flight remembers is the chart.

A probe flight walks a path it charted — ``repro.tor.flight._chart``,
every check a cell would meet out to the echo server and back. The chart
is made once per stream and remembered (``Probe.charted``) under the
fabric's *wiring epoch*, which every write that can change the answer
moves: a connection closing, a relay tearing a circuit down. The
client's own checks are made on every use, the entry connection, hop
count and payload length compared, and whether a hop's forwarding model
reads the clock is read live.

This file holds the memo to that two ways at once, with every flight
still taken:

* every use of the memo also charts afresh, and the two must be equal;
* after every event, every remembered chart still current — epoch
  unmoved, client-side checks passing — must equal a fresh chart, so a
  write that should have moved the epoch is caught where it happens,
  not only if a later flight happens to use the stale chart.

It runs them over the probe-flight contract's own cases
(``test_probe_flight.py``, unedited) and over what a round can meet:
circuits truncated and re-extended (``reuse_circuits``), relays shut
down and restarted (``ChurnProcess``), connections torn down between
isolated tasks, a sharded run, and one case per kind of write.
"""

from __future__ import annotations

import functools

import numpy as np
import pytest
import test_probe_flight as flight

from repro.core.campaign import AllPairsCampaign
from repro.core.parallel import ParallelCampaign
from repro.core.planner import CampaignPlanner
from repro.core.sampling import AdaptiveSpec, SamplePolicy
from repro.core.shard import ShardedCampaign
from repro.core.ting import TingMeasurer
from repro.netsim.engine import Simulator
from repro.testbeds.churn import ChurnProcess
from repro.testbeds.livetor import LiveTorTestbed
from repro.tor import flight as flights
from repro.tor.flight import Probe
from repro.tor.relay import DiurnalForwardingDelayModel, Relay

ADAPTIVE = SamplePolicy(
    samples=6,
    interval_ms=None,
    adaptive=AdaptiveSpec(absolute_ms=1.0, min_samples=2, patience=2, confirm_k=2),
)


def _fresh(proxy, stream, payload):
    """What the memo must answer: a chart made now, refused if a hop's
    forwarding model reads the clock."""
    chart = _CHART(proxy, stream, payload)
    if chart is None or any(relay.forwarding.reads_clock for relay in chart[2]):
        return None
    return chart


_CHART = flights._chart


@pytest.fixture
def memo(monkeypatch):
    """Check every use of the memo, and every current memo after every
    event; count uses and the charts actually made."""
    charted, run = Probe.charted, Simulator.run
    counts = {"uses": 0, "charts": 0}
    streams = {}

    def checked(probe):
        answer = charted(probe)
        counts["uses"] += 1
        streams[probe.stream] = probe.proxy
        assert answer == _fresh(probe.proxy, probe.stream, probe.cell[3])
        return answer

    def counted(proxy, stream, payload):
        counts["charts"] += 1
        return _CHART(proxy, stream, payload)

    def current_memos_hold():
        for stream, proxy in list(streams.items()):
            if stream.state != "open":
                del streams[stream]  # never sent on again
                continue
            if stream._chart_memo is None:
                continue
            (wiring, first, hops, length), chart = stream._chart_memo
            if (
                wiring != proxy.fabric._wiring
                or flights._attached(proxy, stream) is not first
                or len(stream.circuit.layers) != hops
            ):
                continue
            assert _CHART(proxy, stream, bytes(length)) == chart

    def checked_run(self, until=None, max_events=None, stop_when=None):
        def after_each_event():
            current_memos_hold()
            return stop_when is not None and stop_when()

        return run(self, until, max_events, after_each_event)

    monkeypatch.setattr(Probe, "charted", checked)
    monkeypatch.setattr(flights, "_chart", counted)
    monkeypatch.setattr(Simulator, "run", checked_run)
    return counts


def _flight_cases():
    for name, case in vars(flight).items():
        if not name.startswith("test_"):
            continue
        marks = [m for m in getattr(case, "pytestmark", []) if m.name == "parametrize"]
        if not marks:
            yield pytest.param(case, {}, id=name)
            continue
        (mark,) = marks
        for value in mark.args[1]:
            yield pytest.param(case, {mark.args[0]: value}, id=f"{name}[{value}]")


@pytest.mark.parametrize("case, kwargs", list(_flight_cases()))
def test_the_probe_flight_contract_under_the_check(case, kwargs, memo):
    case(**kwargs)


def _used(memo) -> None:
    """The memo did the work: far fewer charts made than used."""
    assert memo["uses"] > 4 * memo["charts"] > 0, memo


# ----------------------------------------------------------------------
# What a campaign's rounds meet


def test_circuits_truncated_and_re_extended(memo):
    testbed = LiveTorTestbed.build(seed=47, n_relays=22, service_queues=True)
    host = testbed.measurement
    relays = testbed.random_relays(5, testbed.streams.get("memo.relays"))
    measurer = TingMeasurer(
        host, policy=SamplePolicy.serial(12), reuse_circuits=True
    )
    report = AllPairsCampaign(measurer, relays, rng=np.random.default_rng(47)).run()
    assert report.pairs_measured == 10 and measurer.circuits_reused > 0
    _used(memo)


def test_relays_shut_down_and_restarted_mid_round(memo, monkeypatch):
    restarts = []
    restart = Relay.restart
    monkeypatch.setattr(
        Relay, "restart", lambda self: (restarts.append(self), restart(self))
    )
    testbed = LiveTorTestbed.build(seed=7, n_relays=22)
    relays = testbed.random_relays(5, testbed.streams.get("memo.relays"))
    measured = {descriptor.fingerprint for descriptor in relays}
    churn = ChurnProcess(
        testbed.sim,
        [relay for relay in testbed.relays if relay.fingerprint in measured],
        testbed.authority,
        np.random.default_rng(2),
        mean_uptime_ms=4_000.0,
        mean_downtime_ms=1_500.0,
    )
    churn.start()
    measurer = TingMeasurer(testbed.measurement, policy=SamplePolicy.serial(40))
    report = AllPairsCampaign(
        measurer, relays, retries=1, retry_delay_ms=1_000.0
    ).run()
    churn.stop()
    testbed.sim.run_until_idle()
    assert restarts and report.failures_total > 0
    _used(memo)


def test_connections_torn_down_between_isolated_tasks(memo):
    testbed = LiveTorTestbed.build(seed=47, n_relays=24)
    relays = testbed.random_relays(7, testbed.streams.get("memo.relays"))
    report = ParallelCampaign(
        testbed.measurement, relays, policy=ADAPTIVE,
        isolation=testbed.task_isolation(),
    ).run()
    assert report.pairs_measured == 21
    _used(memo)


def test_a_sharded_inline_run(memo):
    factory = functools.partial(LiveTorTestbed.build, seed=7, n_relays=30)
    fingerprints = [relay.fingerprint for relay in factory().relays][:12]
    pairs = CampaignPlanner(fingerprints, seed=7).plan(budget_pairs=20).pairs
    report = ShardedCampaign(
        factory, fingerprints, policy=ADAPTIVE, workers=2, pairs=pairs,
        steal_chunk_pairs=3, force_inline=True,
    ).run()
    assert report.pairs_measured == 20
    _used(memo)


# ----------------------------------------------------------------------
# One kind of write at a time, made between two probes of a round


def _round_with(testbed, stream, after_replies, write, samples=12):
    """A ping-pong round on ``stream`` that makes ``write()`` inside the
    landing of reply ``after_replies`` (before the next probe is sent);
    returns the round's result."""
    client, done = testbed.measurement.echo_client, []
    client.probe_async(
        stream, samples, done.append, done.append,
        interval_ms=None, timeout_ms=2_000.0,
    )
    deliver, replies = stream.on_data, []

    def on_data(payload):
        replies.append(payload)
        if len(replies) == after_replies:
            write()
        deliver(payload)

    stream.on_data = on_data
    testbed.sim.run_until_idle()
    return done[0]


def test_a_hop_dropping_its_connections(memo):
    """``Relay.disconnect_or_conns`` on the middle hop (what task
    isolation does between tasks) closes the hop's connection onward:
    nothing else on the path changes."""
    testbed = LiveTorTestbed.build(seed=47, n_relays=10)
    stream = flight._stream(testbed, hops=4)
    result = _round_with(
        testbed, stream, 5,
        _then_asked(testbed, stream, testbed.relays[0].disconnect_or_conns),
    )
    assert result.received == 5 and result.stop_reason == "deadline"
    _used(memo)


def _then_asked(testbed, stream, write):
    """``write``, then the memo asked at once for the round's payload
    length: the client has not heard of the write yet, so only the moved
    epoch keeps the memo from answering with the dead path."""

    def write_then_ask():
        payload = bytes(stream._chart_memo[0][3])
        write()
        probe = flight._probe(testbed.measurement.proxy, stream, payload)
        assert probe.charted() is None

    return write_then_ask


def test_a_hop_tearing_the_circuit_down(memo):
    """The middle hop drops the circuit, as it does on a protocol error:
    its entry is torn down and DESTROY sent both ways, no connection
    closed."""
    testbed = LiveTorTestbed.build(seed=47, n_relays=10)
    stream = flight._stream(testbed, hops=4)
    middle = testbed.relays[0]
    (entry,) = middle._circuits.values()
    result = _round_with(
        testbed, stream, 5,
        _then_asked(testbed, stream, lambda: middle._teardown(entry, reason="injected")),
    )
    assert result.received == 5 and result.stop_reason == "deadline"
    assert stream.circuit.state == "failed"
    _used(memo)


def test_payloads_of_two_lengths_on_one_stream(memo):
    """The payload's length is part of the key: the exit's and the echo
    server's segments are sized by it (64 bytes at least)."""

    def scenario(testbed, hops):
        stream = flight._stream(testbed, hops)
        got = []
        stream.on_data = lambda data: got.append((testbed.sim.now, data))
        for size in (12, 12, 400, 400, 12):
            stream.send(bytes(size))
            testbed.sim.run_until_idle()
        return got

    assert flight.differential(scenario, hops=4) == (5, 0)


def test_the_entry_connection_swapped_under_a_circuit(memo):
    """Raw, like the contract's ``del proxy.circuits[...]`` case: the
    proxy's entry connection for the circuit is another one now, so the
    next cell goes where that one leads (a relay that does not know the
    circuit) and the memo, started from the old one, must not be used."""
    testbed = LiveTorTestbed.build(seed=47, n_relays=10)
    host = testbed.measurement
    proxy, stream = host.proxy, flight._stream(testbed, hops=4)
    other = host.controller.build_circuit(
        [relay.fingerprint for relay in testbed.relays[2:4]]
    )
    circ_id = stream.circuit.circ_id

    def swap():
        elsewhere = proxy._conn_for_circuit[other.circ_id]
        assert elsewhere is not proxy._conn_for_circuit[circ_id]
        proxy._conn_for_circuit[circ_id] = elsewhere

    result = _round_with(testbed, stream, 5, swap)
    assert result.received == 5 and stream.circuit.state == "failed"
    _used(memo)


def test_a_circuit_extended_under_an_open_stream(memo):
    """The hop count is part of the memo's key: the stream stays on the
    circuit, whose new last hop carries no exit stream for it."""
    testbed = LiveTorTestbed.build(seed=47, n_relays=10)
    host = testbed.measurement
    stream = flight._stream(testbed, hops=3)
    first = host.echo_client.probe(stream, 6, interval_ms=None)
    assert first.received == 6
    host.controller.extend_circuit(stream.circuit, [testbed.relays[3].fingerprint])
    assert stream.state == "open" and len(stream.circuit.layers) == 4
    got = []
    stream.on_data = got.append
    stream.send(b"after extend")
    testbed.sim.run_until_idle()
    assert not got and stream.state == "closed"
    _used(memo)


def test_a_clock_reading_model_swapped_in_mid_round(memo):
    """A walked round reads every model once, at its launch. The paper's
    adaptive round is sure of its first 30 replies only, so its first walk
    lands those 30 at once; a hop's model swapped for one that reads the
    clock after reply 30 — in that landing's round handler, or after the
    30th reply as cells — is met by the next probe's ``charted``, and the
    rest of the round is cells."""
    adaptive = SamplePolicy.adaptive_1ms().adaptive

    def scenario(testbed, hops):
        stream = flight._stream(testbed, hops)
        done, replies = [], []
        testbed.measurement.echo_client.probe_async(
            stream, 64, done.append, done.append, interval_ms=None, adaptive=adaptive
        )
        deliver, deliver_round = stream.on_data, stream.on_round

        def after(count):
            replies.append(count)
            if sum(replies) == adaptive.patience:
                testbed.relays[0].forwarding = DiurnalForwardingDelayModel(
                    testbed.sim, phase_ms=6 * 3_600_000.0
                )

        stream.on_data = lambda payload: (after(1), deliver(payload))
        stream.on_round = lambda lands: (after(len(lands)), deliver_round(lands))
        testbed.sim.run_until_idle()
        return done[0].rtts_ms

    with flight._Walks() as walks:
        assert flight.differential(scenario, hops=4) == (adaptive.patience, 0)
    assert walks.held == [adaptive.patience]
