"""A live-Tor-shaped network for the in-the-wild experiments.

Builds a population of volunteer relays matching the live network's
gross statistics: region mix concentrated in Europe and the U.S.
(Section 4.1), roughly 61% residential hosts among those with rDNS
names plus hosting-provider and institutional relays (Section 5.3),
heavy-tailed bandwidths, realistic exit-policy mix, and mostly-own-/24
address allocation (the network spans ~6000 unique /24s).

The default size is far below the real ~6500 relays so event-driven
experiments stay fast; every experiment that needs scale takes the relay
count as a parameter.
"""

from __future__ import annotations

from dataclasses import dataclass
import numpy as np

from repro.core.measurement_host import MeasurementHost
from repro.netsim.engine import Simulator
from repro.netsim.geo import TOR_REGION_WEIGHTS
from repro.netsim.latency import LatencyEngine
from repro.netsim.policies import PolicyModel
from repro.netsim.routing import Router
from repro.netsim.topology import Topology, TopologyBuilder
from repro.netsim.transport import NetworkFabric
from repro.testbeds.geolocation import GeolocationDB
from repro.testbeds.rdns import synthesize_rdns
from repro.tor.directory import (
    Consensus,
    DirectoryAuthority,
    ExitPolicy,
    ExitRule,
    RelayDescriptor,
)
from repro.tor.relay import ForwardingDelayModel, Relay, ServiceQueue
from repro.util.errors import ConfigurationError, MeasurementError
from repro.util.rng import RandomStreams
from repro.util.rng import categorical_cdf, draw_categorical, draw_item, draw_uniform

#: Host-type mix among relays (Section 5.3: ~61% of named relays are
#: residential; data centers and institutions share the rest).
HOST_TYPE_MIX: tuple[tuple[str, float], ...] = (
    ("residential", 0.58),
    ("hosting", 0.30),
    ("university", 0.12),
)

#: Fraction of relays whose exit policy accepts general destinations.
EXIT_FRACTION = 0.25


@dataclass
class LiveTorTestbed:
    """The assembled live-network world."""

    sim: Simulator
    streams: RandomStreams
    topology: Topology
    builder: TopologyBuilder
    router: Router
    latency: LatencyEngine
    fabric: NetworkFabric
    relays: list[Relay]
    authority: DirectoryAuthority
    consensus: Consensus
    measurement: MeasurementHost
    geolocation: GeolocationDB

    def __post_init__(self) -> None:
        # Relays holding OR-connection state since their last reset; each
        # relay adds itself (see ``Relay.conn_registry``).
        self._touched: set[Relay] = set()
        # Relays reset since their clock state was last cleared.
        self._unsettled: list[Relay] = []
        self._relay_rank = {relay: rank for rank, relay in enumerate(self.relays)}
        for relay in self.relays:
            relay.conn_registry = self._touched

    @classmethod
    def build(
        cls,
        seed: int = 2015,
        n_relays: int = 120,
        geolocation_error_fraction: float = 0.02,
        service_queues: bool = False,
    ) -> "LiveTorTestbed":
        """Construct a live-Tor-shaped world with ``n_relays`` relays.

        ``service_queues`` attaches a bandwidth-derived
        :class:`~repro.tor.relay.ServiceQueue` to every relay, making
        cross-circuit congestion physically real (needed by the
        Murdoch–Danezis probe experiments; off by default because the
        statistical load model is cheaper and sufficient elsewhere).
        """
        if n_relays < 3:
            raise ConfigurationError("live network needs at least three relays")
        streams = RandomStreams(seed)
        builder = TopologyBuilder(
            streams.get("livetor.topology"), policy_model=PolicyModel()
        )
        topology = builder.build()
        router = Router(topology.graph)
        sim = Simulator()
        latency = LatencyEngine(topology, router, streams)
        fabric = NetworkFabric(sim, latency)

        relay_rng = streams.get("livetor.relays")
        pops_by_region: dict[str, list[int]] = {}
        for pop in topology.pops.values():
            pops_by_region.setdefault(pop.city.region, []).append(pop.pop_id)
        regions = list(TOR_REGION_WEIGHTS)
        # Normalised before the CDF, as ``choice(p=...)`` required: the
        # CDFs, and so the draws, stay bit-identical to that call's.
        region_p = np.array([TOR_REGION_WEIGHTS[r] for r in regions])
        region_cdf = categorical_cdf(region_p / region_p.sum())
        type_names = [name for name, _ in HOST_TYPE_MIX]
        type_p = np.array([w for _, w in HOST_TYPE_MIX])
        type_cdf = categorical_cdf(type_p / type_p.sum())

        authority = DirectoryAuthority()
        relays: list[Relay] = []
        for index in range(n_relays):
            region = regions[draw_categorical(relay_rng, region_cdf)]
            pop_id = draw_item(relay_rng, pops_by_region[region])
            host_type = type_names[draw_categorical(relay_rng, type_cdf)]
            host = builder.attach_random_host(
                topology, f"tor{index:04d}", pop_id, host_type=host_type
            )
            host.rdns = synthesize_rdns(relay_rng, host.address, host_type)
            bandwidth = cls._sample_bandwidth(relay_rng, host_type)
            relay = Relay(
                sim,
                fabric,
                topology,
                host,
                nickname=f"relay{index:04d}",
                bandwidth_kbps=bandwidth,
                exit_policy=cls._sample_exit_policy(relay_rng),
                forwarding_model=cls._sample_forwarding(relay_rng, host_type),
                service_queue=(
                    ServiceQueue(bandwidth_kbytes_s=float(bandwidth))
                    if service_queues
                    else None
                ),
            )
            relays.append(relay)
            # Most relays have been up for a while; ~20% are young.
            age_days = 45.0 if relay_rng.random() > 0.2 else 2.0
            published_ms = -age_days * 24 * 3600 * 1000.0
            authority.publish(relay.descriptor(published_ms), now_ms=published_ms)

        consensus = authority.make_consensus(now_ms=0.0)
        measurement = MeasurementHost.deploy(
            sim,
            fabric,
            topology,
            builder,
            consensus,
            pop_id=cls._measurement_pop(topology),
            streams=streams,
        )
        geolocation = GeolocationDB.build(
            [r.host for r in relays],
            streams.get("livetor.geolocation"),
            error_fraction=geolocation_error_fraction,
        )
        return cls(
            sim=sim,
            streams=streams,
            topology=topology,
            builder=builder,
            router=router,
            latency=latency,
            fabric=fabric,
            relays=relays,
            authority=authority,
            consensus=consensus,
            measurement=measurement,
            geolocation=geolocation,
        )

    # ------------------------------------------------------------------

    @staticmethod
    def _sample_bandwidth(rng: np.random.Generator, host_type: str) -> int:
        """Heavy-tailed consensus bandwidth; data centers skew higher."""
        mu = {"residential": 5.5, "university": 7.0, "hosting": 8.0}[host_type]
        return max(32, int(rng.lognormal(mean=mu, sigma=1.0)))

    @staticmethod
    def _sample_exit_policy(rng: np.random.Generator) -> ExitPolicy:
        draw = rng.random()
        if draw < EXIT_FRACTION:
            # Typical exit: allow most ports, reject SMTP-style ranges.
            return ExitPolicy(
                rules=(
                    ExitRule(accept=False, port_low=25, port_high=25),
                    ExitRule(accept=False, port_low=119, port_high=119),
                    ExitRule(accept=True),
                )
            )
        return ExitPolicy.reject_all()

    @staticmethod
    def _sample_forwarding(
        rng: np.random.Generator, host_type: str
    ) -> ForwardingDelayModel:
        """Residential relays run hotter: slower CPUs, fuller queues."""
        if host_type == "hosting":
            load = draw_uniform(rng, 0.05, 0.45)
            floor = draw_uniform(rng, 0.05, 0.5)
        elif host_type == "university":
            load = draw_uniform(rng, 0.05, 0.5)
            floor = draw_uniform(rng, 0.1, 0.8)
        else:
            load = draw_uniform(rng, 0.15, 0.7)
            floor = draw_uniform(rng, 0.2, 1.5)
        return ForwardingDelayModel(
            crypto_floor_ms=floor,
            load=load,
            queue_scale_ms=draw_uniform(rng, 0.5, 3.0),
            burst_probability=draw_uniform(rng, 0.01, 0.05),
        )

    @staticmethod
    def _measurement_pop(topology: Topology) -> int:
        for pop in topology.pops.values():
            if pop.city.name == "College Park":
                return pop.pop_id
        return 0

    # ------------------------------------------------------------------

    def descriptors(self) -> list[RelayDescriptor]:
        """Every live relay's descriptor."""
        return [relay.descriptor() for relay in self.relays]

    def random_relays(
        self, n: int, rng: np.random.Generator
    ) -> list[RelayDescriptor]:
        """Sample ``n`` distinct relays uniformly at random."""
        if n > len(self.relays):
            raise ConfigurationError(
                f"asked for {n} relays but the network has {len(self.relays)}"
            )
        indices = rng.choice(len(self.relays), size=n, replace=False)
        return [self.relays[int(i)].descriptor() for i in indices]

    def random_pairs(
        self, n_pairs: int, rng: np.random.Generator
    ) -> list[tuple[RelayDescriptor, RelayDescriptor]]:
        """Sample ``n_pairs`` distinct unordered relay pairs."""
        total = len(self.relays)
        max_pairs = total * (total - 1) // 2
        if n_pairs > max_pairs:
            raise ConfigurationError(
                f"asked for {n_pairs} pairs but only {max_pairs} exist"
            )
        seen: set[tuple[int, int]] = set()
        out: list[tuple[RelayDescriptor, RelayDescriptor]] = []
        while len(out) < n_pairs:
            i = int(rng.integers(0, total))
            j = int(rng.integers(0, total))
            if i == j:
                continue
            key = (min(i, j), max(i, j))
            if key in seen:
                continue
            seen.add(key)
            out.append((self.relays[key[0]].descriptor(), self.relays[key[1]].descriptor()))
        return out

    def oracle_rtt(self, a: RelayDescriptor, b: RelayDescriptor) -> float:
        """The simulator's exact Tor-class RTT floor for a relay pair."""
        return self.latency.true_rtt_ms(
            self.topology.host_by_address(a.address),
            self.topology.host_by_address(b.address),
        )

    # ------------------------------------------------------------------

    def reset_connections(self) -> None:
        """Drop every cached OR connection in the world.

        Connection reuse couples measurement tasks: whichever task runs
        first pays the handshake (and its draws), later tasks do not.
        Each isolated task therefore ends by dropping what it opened, so
        that every task starts from the same cold-connection state. Only
        relays that accepted or opened a connection since their last
        reset hold any state, so only those are visited — in testbed
        relay order, because ``close()`` draws a link delay and schedules
        the peer's close event: the visiting order shows in event
        sequence numbers.
        """
        self.measurement.proxy.disconnect_or_conns()
        self.measurement.relay_w.disconnect_or_conns()
        self.measurement.relay_z.disconnect_or_conns()
        visited = sorted(self._touched, key=self._relay_rank.__getitem__)
        for relay in visited:
            relay.disconnect_or_conns()
        self._touched.clear()
        self._unsettled.extend(visited)

    def forget_clock(self) -> None:
        """Clear the absolute times held by every relay reset since the
        last call (and by w and z) — once the closes have drained, before
        the clock they were read on is restarted."""
        self.measurement.relay_w.forget_clock()
        self.measurement.relay_z.forget_clock()
        for relay in self._unsettled:
            relay.forget_clock()
        self._unsettled.clear()

    def task_isolation(self):
        """A :class:`~repro.core.parallel.TaskIsolation` for this world."""
        from repro.core.parallel import TaskIsolation

        host = self.measurement
        for relay in (host.relay_w, host.relay_z, *self.relays):
            if relay.forwarding.reads_clock:
                raise MeasurementError(
                    f"task isolation (sharded campaigns, worker chunks) restarts "
                    f"the clock for every task, but the forwarding model of "
                    f"{relay.nickname} ({type(relay.forwarding).__name__}) reads "
                    "it: every task would see the same instant of its cycle"
                )
        return TaskIsolation(
            sim=self.sim,
            draws=self.streams.draws,
            reset=self.reset_connections,
            forget_clock=self.forget_clock,
        )
