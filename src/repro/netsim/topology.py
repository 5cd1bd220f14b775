"""Underlay topology: a PoP backbone plus access-attached hosts.

The backbone is a graph of points of presence (PoPs), one or more per
catalogue city, whose edge latencies are great-circle propagation delays
inflated by a sampled "route circuitousness" factor (real fiber does not
follow geodesics). Packets are routed over this graph by *hop count*, not
latency (see :mod:`repro.netsim.routing`) — this mirrors BGP's
policy-driven path choice and is what gives the overlay its
triangle-inequality violations.

Hosts attach to a PoP through an access link with a type-dependent delay:
residential cable/DSL tails are slower than hosting-center cross-connects.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from repro.netsim.addresses import AddressAllocator, ProviderRange, parse_ipv4
from repro.netsim.geo import CITY_CATALOG, City, GeoPoint, great_circle_km
from repro.netsim.policies import NEUTRAL_POLICY, PolicyModel, ProtocolPolicy
from repro.netsim.routing import BackboneGraph
from repro.util.errors import ConfigurationError
from repro.util.rng import draw_uniform
from repro.util.units import Milliseconds, propagation_delay_ms


@dataclass(frozen=True)
class PoP:
    """A backbone point of presence located in a city."""

    pop_id: int
    city: City

    @property
    def point(self) -> GeoPoint:
        """The PoP's city coordinates."""
        return self.city.point


#: Host access profiles: (min, max) one-way access delay in ms, plus
#: access bandwidth used for serialization delay.
ACCESS_PROFILES: dict[str, dict[str, float]] = {
    "residential": {"delay_lo": 2.0, "delay_hi": 9.0, "bandwidth_mbps": 40.0},
    "hosting": {"delay_lo": 0.05, "delay_hi": 0.5, "bandwidth_mbps": 1000.0},
    "university": {"delay_lo": 0.3, "delay_hi": 1.5, "bandwidth_mbps": 400.0},
}


@dataclass
class Host:
    """An end host attached to the underlay.

    ``address`` is validated and split into its prefixes once, here:
    the latency engine compares ``prefix24`` on every packet, so it is a
    plain attribute and the address must not be reassigned afterwards.
    """

    host_id: int
    name: str
    address: str
    point: GeoPoint
    pop_id: int
    access_delay_ms: Milliseconds
    bandwidth_mbps: float
    policy: ProtocolPolicy = NEUTRAL_POLICY
    host_type: str = "hosting"
    rdns: str | None = None
    #: The host's /24 prefix (network allocation granularity).
    prefix24: str = field(init=False, repr=False, compare=False)
    #: The host's /16 prefix (Tor's same-network circuit constraint).
    prefix16: str = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.access_delay_ms < 0:
            raise ConfigurationError("access delay must be non-negative")
        if self.bandwidth_mbps <= 0:
            raise ConfigurationError("bandwidth must be positive")
        if self.host_type not in ACCESS_PROFILES:
            raise ConfigurationError(
                f"unknown host type {self.host_type!r}; "
                f"expected one of {sorted(ACCESS_PROFILES)}"
            )
        try:
            a, b, c, _ = parse_ipv4(self.address)
        except ValueError as exc:
            raise ConfigurationError(
                f"host {self.name!r} has a malformed IPv4 address: {exc}"
            ) from None
        self.prefix16 = f"{a}.{b}"
        self.prefix24 = f"{a}.{b}.{c}"

    def serialization_delay_ms(self, size_bytes: int) -> Milliseconds:
        """Time to push ``size_bytes`` onto the host's access link."""
        bits = size_bytes * 8.0
        return bits / (self.bandwidth_mbps * 1e6) * 1000.0


class Topology:
    """The assembled underlay: PoP graph plus attached hosts."""

    def __init__(self, graph: BackboneGraph, pops: dict[int, PoP]) -> None:
        self.graph = graph
        self.pops = pops
        self.hosts: dict[int, Host] = {}
        self._by_address: dict[str, Host] = {}
        self._host_ids = itertools.count()

    def attach_host(
        self,
        name: str,
        address: str,
        pop_id: int,
        access_delay_ms: Milliseconds,
        bandwidth_mbps: float,
        policy: ProtocolPolicy = NEUTRAL_POLICY,
        host_type: str = "hosting",
        rdns: str | None = None,
        point: GeoPoint | None = None,
    ) -> Host:
        """Attach a host to PoP ``pop_id`` and register it.

        ``point`` defaults to the PoP's city coordinates; pass an explicit
        point to place the host away from the PoP (metro-area spread).
        """
        if pop_id not in self.pops:
            raise ConfigurationError(f"unknown PoP id {pop_id}")
        host = Host(
            host_id=next(self._host_ids),
            name=name,
            address=address,
            point=point if point is not None else self.pops[pop_id].point,
            pop_id=pop_id,
            access_delay_ms=access_delay_ms,
            bandwidth_mbps=bandwidth_mbps,
            policy=policy,
            host_type=host_type,
            rdns=rdns,
        )
        if address in self._by_address:
            raise ConfigurationError(f"duplicate host address {address}")
        self.hosts[host.host_id] = host
        self._by_address[address] = host
        return host

    def host_by_address(self, address: str) -> Host:
        """Find a host by its IPv4 address."""
        try:
            return self._by_address[address]
        except KeyError:
            raise KeyError(f"no host with address {address!r}") from None

    def host_by_name(self, name: str) -> Host:
        """Find a host by its unique name."""
        for host in self.hosts.values():
            if host.name == name:
                return host
        raise KeyError(f"no host named {name!r}")

    @property
    def num_pops(self) -> int:
        """Number of backbone PoPs."""
        return len(self.pops)

    @property
    def num_hosts(self) -> int:
        """Number of attached hosts."""
        return len(self.hosts)


class TopologyBuilder:
    """Constructs the PoP backbone and provides host-attachment helpers.

    Backbone construction:

    1. One PoP per catalogue city (optionally several for big hubs).
    2. Each PoP links to its ``k_nearest`` geographic neighbours, giving a
       connected regional mesh.
    3. A set of long-haul links joins major hubs across continents
       (transatlantic, transpacific, etc.).
    4. Every edge's latency is its great-circle propagation delay times an
       inflation factor drawn from ``inflation_range`` — route
       circuitousness — plus a fixed per-edge router transit cost.
    """

    def __init__(
        self,
        rng: np.random.Generator,
        cities: tuple[City, ...] = CITY_CATALOG,
        k_nearest: int = 4,
        inflation_range: tuple[float, float] = (1.05, 2.5),
        router_transit_ms: float = 0.15,
        policy_model: PolicyModel | None = None,
    ) -> None:
        if k_nearest < 1:
            raise ConfigurationError("k_nearest must be >= 1")
        lo, hi = inflation_range
        if lo < 1.0 or hi < lo:
            raise ConfigurationError(
                f"inflation_range must satisfy 1.0 <= lo <= hi, got {inflation_range}"
            )
        self._rng = rng
        self._cities = cities
        self._k_nearest = k_nearest
        self._inflation_range = inflation_range
        self._router_transit_ms = router_transit_ms
        self.policy_model = policy_model or PolicyModel()
        self.allocator = AddressAllocator(rng)

    # --- backbone -----------------------------------------------------

    #: City pairs that get dedicated long-haul links if both are present.
    LONG_HAUL_PAIRS: tuple[tuple[str, str], ...] = (
        ("New York", "London"),
        ("New York", "Paris"),
        ("Boston", "London"),
        ("Miami", "Sao Paulo"),
        ("Los Angeles", "Tokyo"),
        ("Seattle", "Tokyo"),
        ("San Francisco", "Sydney"),
        ("Singapore", "Sydney"),
        ("Tokyo", "Singapore"),
        ("Frankfurt", "Tel Aviv"),
        ("Frankfurt", "Dubai"),
        ("London", "Hong Kong"),
        ("Madrid", "Buenos Aires"),
        ("Amsterdam", "New York"),
        ("Singapore", "Dubai"),
        ("Hong Kong", "Seoul"),
    )

    def build(self) -> Topology:
        """Build and return the backbone topology (no hosts attached yet)."""
        pops = {i: PoP(pop_id=i, city=city) for i, city in enumerate(self._cities)}
        graph = BackboneGraph()
        graph.add_nodes_from(pops)

        # k-nearest regional mesh.
        for pop in pops.values():
            neighbours = sorted(
                (other for other in pops.values() if other.pop_id != pop.pop_id),
                key=lambda other: great_circle_km(pop.point, other.point),
            )[: self._k_nearest]
            for other in neighbours:
                self._add_edge(graph, pop, other)

        # Long-haul hub links.
        by_name = {pop.city.name: pop for pop in pops.values()}
        for name_a, name_b in self.LONG_HAUL_PAIRS:
            if name_a in by_name and name_b in by_name:
                self._add_edge(graph, by_name[name_a], by_name[name_b])

        # Guarantee connectivity: bridge any stray components to the
        # largest one via their geographically closest pair.
        components = sorted(graph.connected_components(), key=len, reverse=True)
        main = components[0]
        for component in components[1:]:
            best = min(
                (
                    (great_circle_km(pops[u].point, pops[v].point), u, v)
                    for u in component
                    for v in main
                ),
            )
            _, u, v = best
            self._add_edge(graph, pops[u], pops[v])

        return Topology(graph=graph, pops=pops)

    def _add_edge(self, graph: BackboneGraph, a: PoP, b: PoP) -> None:
        if graph.has_edge(a.pop_id, b.pop_id):
            return
        distance = great_circle_km(a.point, b.point)
        inflation = float(self._rng.uniform(*self._inflation_range))
        latency = propagation_delay_ms(distance) * inflation + self._router_transit_ms
        graph.add_edge(a.pop_id, b.pop_id, latency_ms=latency, distance_km=distance)

    # --- host attachment ----------------------------------------------

    def attach_random_host(
        self,
        topology: Topology,
        name: str,
        pop_id: int,
        host_type: str = "hosting",
        provider: ProviderRange | None = None,
        network: str | None = None,
        rdns: str | None = None,
    ) -> Host:
        """Attach a host of ``host_type`` to ``pop_id`` with sampled
        access delay, bandwidth, protocol policy, and a fresh address.

        Pass ``network`` to co-locate several hosts in one /24 (e.g. the
        Ting measurement host's four processes).
        """
        profile = ACCESS_PROFILES.get(host_type)
        if profile is None:
            raise ConfigurationError(f"unknown host type {host_type!r}")
        address = (
            self.allocator.address_in(network)
            if network is not None
            else self.allocator.new_host(provider)
        )
        return topology.attach_host(
            name=name,
            address=address,
            pop_id=pop_id,
            access_delay_ms=draw_uniform(
                self._rng, profile["delay_lo"], profile["delay_hi"]
            ),
            bandwidth_mbps=profile["bandwidth_mbps"],
            policy=self.policy_model.sample(self._rng),
            host_type=host_type,
            rdns=rdns,
        )
