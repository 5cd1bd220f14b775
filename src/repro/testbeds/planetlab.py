"""The Section 4.1 ground-truth testbed.

31 Tor relays on PlanetLab-like university hosts chosen so that:

* they cover a wide geographic area (several European countries, many
  U.S. states, and at least one site each in Asia, South America,
  Oceania, and the Middle East);
* the distribution is U.S./Europe-heavy like the live Tor network;
* pairwise latencies range from ~0 ms (same metro) to near-antipodal.

Each relay runs an unmodified simulated Tor with the paper's restrictive
exit policy (exit only to the measurement host), and the testbed exposes
two ground truths: all-pairs ICMP ping (what the paper could measure)
and the latency engine's exact Tor-class floor (what only a simulator
can provide).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.measurement_host import MeasurementHost
from repro.netsim.engine import Simulator
from repro.netsim.latency import LatencyEngine
from repro.netsim.policies import PolicyModel, TrafficClass
from repro.netsim.routing import Router
from repro.netsim.topology import Host, Topology, TopologyBuilder
from repro.netsim.transport import IcmpPinger, NetworkFabric
from repro.tor.directory import (
    Consensus,
    DirectoryAuthority,
    ExitPolicy,
    RelayDescriptor,
)
from repro.tor.relay import ForwardingDelayModel, Relay
from repro.util.errors import ConfigurationError
from repro.util.rng import RandomStreams, draw_item, draw_uniform
from repro.util.units import Milliseconds

#: How many relays the paper's testbed ran.
PAPER_TESTBED_SIZE = 31

#: Region quotas mirroring Section 4.1's selection criteria. U.S. and
#: Europe dominate; the remainder guarantees global spread.
REGION_QUOTAS: dict[str, int] = {
    "us": 12,
    "europe": 13,
    "asia": 2,
    "south-america": 2,
    "oceania": 1,
    "middle-east": 1,
}


@dataclass
class PlanetLabTestbed:
    """The assembled ground-truth world."""

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

    # ------------------------------------------------------------------

    @classmethod
    def build(
        cls,
        seed: int = 2015,
        n_relays: int = PAPER_TESTBED_SIZE,
        differential_fraction: float = 0.35,
        relay_load_range: tuple[float, float] = (0.05, 0.5),
        policy_model: PolicyModel | None = None,
    ) -> "PlanetLabTestbed":
        """Construct the testbed deterministically from ``seed``.

        ``policy_model`` overrides the default per-network protocol-policy
        sampler (which uses ``differential_fraction``) — the Figure 5
        forwarding-delay study uses a harsher mix to surface several
        anomalous networks among a small relay draw.
        """
        if n_relays < 2:
            raise ConfigurationError("testbed needs at least two relays")
        streams = RandomStreams(seed)
        topo_rng = streams.get("planetlab.topology")
        builder = TopologyBuilder(
            topo_rng,
            policy_model=policy_model
            or PolicyModel(differential_fraction=differential_fraction),
        )
        topology = builder.build()
        router = Router(topology.graph)
        sim = Simulator()
        latency = LatencyEngine(topology, router, streams)
        fabric = NetworkFabric(sim, latency)

        site_rng = streams.get("planetlab.sites")
        sites = cls._choose_sites(site_rng, topology, n_relays)

        authority = DirectoryAuthority()
        relays: list[Relay] = []
        relay_rng = streams.get("planetlab.relays")
        load_lo, load_hi = relay_load_range
        for index, pop_id in enumerate(sites):
            host = builder.attach_random_host(
                topology, f"pl{index:02d}", pop_id, host_type="university"
            )
            relay = Relay(
                sim,
                fabric,
                topology,
                host,
                nickname=f"plrelay{index:02d}",
                bandwidth_kbps=int(relay_rng.integers(512, 8192)),
                # Restrictive policy: exit only to addresses we control
                # (filled in after the measurement host exists).
                exit_policy=ExitPolicy.reject_all(),
                forwarding_model=ForwardingDelayModel(
                    crypto_floor_ms=draw_uniform(relay_rng, 0.1, 1.2),
                    load=draw_uniform(relay_rng, load_lo, load_hi),
                    queue_scale_ms=draw_uniform(relay_rng, 0.5, 2.5),
                ),
            )
            relays.append(relay)

        # The relays were "maintained for over a month" before the
        # experiment: backdate their first-seen time so flags like Stable
        # vote correctly.
        for relay in relays:
            authority.publish(relay.descriptor(), now_ms=-31 * 24 * 3600 * 1000.0)
        consensus = authority.make_consensus(now_ms=0.0)

        measurement = MeasurementHost.deploy(
            sim,
            fabric,
            topology,
            builder,
            consensus,
            pop_id=cls._college_park_pop(topology),
            streams=streams,
        )

        # Now that the echo server address exists, install the paper's
        # restrictive exit policy on every testbed relay.
        restricted = ExitPolicy.accept_only(
            measurement.echo_address, measurement.echo_client_host.address
        )
        for relay in relays:
            relay.exit_policy = restricted
            authority.publish(
                relay.descriptor(), now_ms=-31 * 24 * 3600 * 1000.0
            )
        consensus = authority.make_consensus(now_ms=0.0)
        measurement.refresh_consensus(consensus)

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
        )

    @staticmethod
    def _choose_sites(
        rng: np.random.Generator, topology: Topology, n_relays: int
    ) -> list[int]:
        """Pick PoPs honouring the regional quotas, then round-robin."""
        pops_by_region: dict[str, list[int]] = {}
        for pop in topology.pops.values():
            pops_by_region.setdefault(pop.city.region, []).append(pop.pop_id)

        sites: list[int] = []
        for region, quota in REGION_QUOTAS.items():
            pool = pops_by_region.get(region, [])
            if not pool:
                continue
            # Prefer distinct cities — the paper's testbed latencies were
            # "unique, from very close to nearly antipodal", which needs
            # geographic spread rather than co-located piles.
            picks = rng.choice(pool, size=quota, replace=quota > len(pool))
            sites.extend(int(p) for p in picks)
        # Trim or pad to the requested size.
        if len(sites) > n_relays:
            order = rng.permutation(len(sites))[:n_relays]
            sites = [sites[i] for i in order]
        while len(sites) < n_relays:
            region = ("us", "europe")[len(sites) % 2]
            pool = pops_by_region.get(region, [])
            sites.append(draw_item(rng, pool))
        return sites

    @staticmethod
    def _college_park_pop(topology: Topology) -> int:
        """The measurement host lives at the authors' institution."""
        for pop in topology.pops.values():
            if pop.city.name == "College Park":
                return pop.pop_id
        return 0

    # ------------------------------------------------------------------
    # Ground truths

    def relay_pairs(self) -> list[tuple[RelayDescriptor, RelayDescriptor]]:
        """All unordered relay pairs (the paper's 930 ordered = 465 here)."""
        descriptors = [r.descriptor() for r in self.relays]
        return [
            (a, b)
            for i, a in enumerate(descriptors)
            for b in descriptors[i + 1 :]
        ]

    def ping_ground_truth(
        self, a: RelayDescriptor, b: RelayDescriptor, count: int = 100
    ) -> Milliseconds:
        """Min-of-``count`` ICMP ping between the two relay hosts — the
        ground truth the paper could actually collect."""
        src = self.topology.host_by_address(a.address)
        dst = self.topology.host_by_address(b.address)
        pinger = IcmpPinger(self.fabric, src)
        try:
            return pinger.measure_min_rtt(dst, count=count)
        finally:
            self.fabric.unbind_icmp_listener(src)

    def oracle_rtt(
        self,
        a: RelayDescriptor,
        b: RelayDescriptor,
        traffic_class: TrafficClass = TrafficClass.TOR,
    ) -> Milliseconds:
        """The simulator's exact latency floor for a pair and class."""
        return self.latency.true_rtt_ms(
            self.topology.host_by_address(a.address),
            self.topology.host_by_address(b.address),
            traffic_class,
        )

    def host_of(self, descriptor: RelayDescriptor) -> Host:
        """The simulated host behind a relay descriptor."""
        return self.topology.host_by_address(descriptor.address)
