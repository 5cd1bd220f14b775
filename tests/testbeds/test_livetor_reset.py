"""``LiveTorTestbed.reset_connections`` visits only relays with state.

Relays add themselves to the testbed's registry when they accept or
open an OR connection; the reset drains that registry in testbed relay
order instead of scanning every relay. These tests pin that the world
it leaves behind is indistinguishable from one reset by the full scan
(transcribed below as it was before the registry existed), that
isolated tasks no longer pin their client connections in the fabric, and
that ``task_isolation()`` refuses a world a restarted clock would change.
"""

import gc
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.parallel import ParallelCampaign
from repro.core.sampling import SamplePolicy
from repro.netsim.transport import StreamConnection
from repro.obs import categorize_failure
from repro.testbeds.livetor import LiveTorTestbed
from repro.tor.relay import DiurnalForwardingDelayModel
from repro.util.errors import MeasurementError

N_RELAYS = 7
POLICY = SamplePolicy(samples=3, interval_ms=2.0)


def full_scan_reset(testbed: LiveTorTestbed) -> None:
    """The reset as it was: every relay, touched or not."""
    testbed.measurement.proxy.disconnect_or_conns()
    testbed.measurement.relay_w.disconnect_or_conns()
    testbed.measurement.relay_z.disconnect_or_conns()
    for relay in testbed.relays:
        relay.disconnect_or_conns()


def _describe(event) -> tuple[float, int, str, str]:
    owner = getattr(event.callback, "__self__", None)
    endpoint = repr(owner) if isinstance(owner, StreamConnection) else ""
    return (event.time, event.seq, event.callback.__qualname__, endpoint)


class _World:
    """A small live-Tor world reset either through the registry or by
    the full scan; every reset logs the drained clock it starts from
    and the close events it leaves on the heap."""

    def __init__(self, full_scan: bool) -> None:
        self.testbed = LiveTorTestbed.build(seed=9, n_relays=N_RELAYS)
        self.testbed.measurement.enable_observability()
        self.full_scan = full_scan
        self.drains: list[tuple[float, int]] = []
        self.closes: list[list[tuple[float, int, str, str]]] = []
        self.campaign = ParallelCampaign(
            self.testbed.measurement,
            self.testbed.descriptors(),
            policy=POLICY,
            pairs=[],
            legs=[],
            isolation=replace(self.testbed.task_isolation(), reset=self._reset),
        )
        self.outcomes: list = []

    def _reset(self) -> None:
        sim = self.testbed.sim
        self.drains.append((sim.now, sim.events_processed))
        if self.full_scan:
            full_scan_reset(self.testbed)
        else:
            self.testbed.reset_connections()
            host = self.testbed.measurement
            for relay in [host.relay_w, host.relay_z, *self.testbed.relays]:
                assert not relay._or_conns, relay
        # What the reset left on the heap: one peer-close per dropped
        # connection. Which endpoint got which sequence number and link
        # delay is where the visiting order shows.
        self.closes.append(sorted(_describe(event) for event in sim._heap))

    def apply(self, op) -> None:
        kind, arg = op
        if kind == "down":
            self.testbed.relays[arg].shutdown()
        elif kind == "up":
            self.testbed.relays[arg].restart()
        else:
            fps = [relay.fingerprint for relay in self.testbed.relays]
            chunk = self.campaign.run_pairs([(fps[a], fps[b]) for a, b in arg])
            self.outcomes.append(
                (
                    list(chunk.matrix.measured_pairs()),
                    list(chunk.failures),
                    chunk.legs_measured,
                    chunk.probes_sent,
                )
            )

    def observed(self):
        host = self.testbed.measurement
        sim = self.testbed.sim
        return {
            "drains": self.drains,
            "closes": self.closes,
            "now": sim.now,
            "events": sim.events_processed,
            "outcomes": self.outcomes,
            "legs": self.campaign.leg_estimates,
            "leg_failures": self.campaign.leg_failures,
            "pair_samples": host.provenance.records(),
            "leg_samples": host.provenance.legs(),
        }


_relay = st.integers(min_value=0, max_value=N_RELAYS - 1)
_pair = st.tuples(_relay, _relay).filter(lambda pair: pair[0] != pair[1])
_op = st.one_of(
    st.tuples(st.just("pairs"), st.lists(_pair, min_size=1, max_size=3, unique_by=frozenset)),
    st.tuples(st.sampled_from(["down", "up"]), _relay),
)


class TestRegistryResetEquivalence:
    @settings(max_examples=20, deadline=None)
    @given(ops=st.lists(_op, min_size=1, max_size=6))
    def test_indistinguishable_from_full_scan(self, ops):
        registry, scan = _World(full_scan=False), _World(full_scan=True)
        for op in ops:
            registry.apply(op)
            scan.apply(op)
        assert registry.observed() == scan.observed()

    def test_shutdown_and_restart_between_tasks(self):
        """The hand-picked path: a relay measured, taken down (its pairs
        fail), brought back and measured again."""
        ops = [
            ("pairs", [(0, 1), (2, 1)]),
            ("down", 1),
            ("pairs", [(1, 3), (0, 2)]),
            ("up", 1),
            ("pairs", [(3, 1)]),
        ]
        registry, scan = _World(full_scan=False), _World(full_scan=True)
        for op in ops:
            registry.apply(op)
            scan.apply(op)
        seen = registry.observed()
        assert seen == scan.observed()
        assert seen["outcomes"][1][1], "a pair through the downed relay fails"
        assert seen["outcomes"][2][0], "the restarted relay measures again"

    def test_reset_visits_only_touched_relays(self, monkeypatch):
        from repro.tor.relay import Relay

        testbed = LiveTorTestbed.build(seed=9, n_relays=N_RELAYS)
        visited = []
        real = Relay.disconnect_or_conns
        monkeypatch.setattr(
            Relay,
            "disconnect_or_conns",
            lambda relay: (visited.append(relay), real(relay))[1],
        )
        x, y = testbed.relays[4], testbed.relays[2]
        campaign = ParallelCampaign(
            testbed.measurement,
            testbed.descriptors(),
            policy=POLICY,
            pairs=[(x.fingerprint, y.fingerprint)],
            isolation=testbed.task_isolation(),
        )
        campaign.run()
        host = testbed.measurement
        # Every task ends with its own reset — w and z always, then the
        # task's relays in testbed order; the pair task ran last.
        assert visited[-4:] == [host.relay_w, host.relay_z, y, x]
        visited.clear()
        testbed.reset_connections()
        assert visited == [host.relay_w, host.relay_z]


class TestNoConnectionLeak:
    @staticmethod
    def _live_connections_after(n_tasks: int) -> int:
        testbed = LiveTorTestbed.build(seed=9, n_relays=N_RELAYS)
        fps = [relay.fingerprint for relay in testbed.relays]
        ParallelCampaign(
            testbed.measurement,
            testbed.descriptors(),
            policy=POLICY,
            pairs=[],
            legs=fps[:n_tasks],
            isolation=testbed.task_isolation(),
        ).run()
        testbed.reset_connections()
        testbed.sim.run_until_idle()
        gc.collect()
        return sum(
            isinstance(obj, StreamConnection) and obj.fabric is testbed.fabric
            for obj in gc.get_objects()
        )

    def test_live_stream_connections_do_not_grow_with_tasks(self):
        few = self._live_connections_after(2)
        many = self._live_connections_after(6)
        assert many == few


class TestIsolationRefusesWhatARestartedClockWouldChange:
    def test_a_world_holding_a_clock_reading_forwarding_model(self):
        testbed = LiveTorTestbed.build(seed=9, n_relays=N_RELAYS)
        testbed.task_isolation()  # fine as built
        testbed.relays[3].forwarding = DiurnalForwardingDelayModel(testbed.sim)
        with pytest.raises(MeasurementError, match="relay0003.*reads") as raised:
            testbed.task_isolation()
        # Where it surfaces: a shard worker asking for its isolation.
        assert categorize_failure(str(raised.value)) == "shard"
