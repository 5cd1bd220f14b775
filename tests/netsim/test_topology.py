"""Unit tests for topology construction and host attachment."""

import pytest

from repro.netsim.geo import GeoPoint
from repro.netsim.policies import NEUTRAL_POLICY
from repro.netsim.topology import ACCESS_PROFILES, Host, TopologyBuilder
from repro.util.errors import ConfigurationError
from repro.util.rng import RandomStreams


@pytest.fixture(scope="module")
def built():
    streams = RandomStreams(seed=2)
    builder = TopologyBuilder(streams.get("topo"))
    return builder, builder.build()


class TestBackbone:
    def test_one_pop_per_city(self, built):
        _, topo = built
        assert topo.num_pops == len({p.city.name for p in topo.pops.values()})

    def test_graph_connected(self, built):
        _, topo = built
        assert topo.graph.is_connected()

    def test_edges_have_positive_latency(self, built):
        _, topo = built
        for _, _, data in topo.graph.edges(data=True):
            assert data["latency_ms"] > 0

    def test_edge_latency_at_least_propagation(self, built):
        _, topo = built
        from repro.util.units import propagation_delay_ms

        for u, v, data in topo.graph.edges(data=True):
            floor = propagation_delay_ms(data["distance_km"])
            assert data["latency_ms"] >= floor

    def test_long_haul_links_present(self, built):
        _, topo = built
        by_name = {p.city.name: p.pop_id for p in topo.pops.values()}
        assert topo.graph.has_edge(by_name["New York"], by_name["London"])

    def test_bad_k_nearest_rejected(self):
        with pytest.raises(ConfigurationError):
            TopologyBuilder(RandomStreams(1).get("x"), k_nearest=0)

    def test_bad_inflation_range_rejected(self):
        with pytest.raises(ConfigurationError):
            TopologyBuilder(
                RandomStreams(1).get("x"), inflation_range=(0.9, 1.5)
            )


class TestHosts:
    def test_attach_assigns_unique_ids(self, built):
        builder, topo = built
        a = builder.attach_random_host(topo, "h-a", 0, "hosting")
        b = builder.attach_random_host(topo, "h-b", 0, "hosting")
        assert a.host_id != b.host_id

    def test_attach_unknown_pop_rejected(self, built):
        builder, topo = built
        with pytest.raises(ConfigurationError):
            topo.attach_host("x", "1.2.3.4", 10_000, 1.0, 100.0)

    def test_host_types_have_profiles(self):
        assert set(ACCESS_PROFILES) == {"residential", "hosting", "university"}

    def test_residential_slower_than_hosting(self, built):
        builder, topo = built
        res = builder.attach_random_host(topo, "res-1", 1, "residential")
        dc = builder.attach_random_host(topo, "dc-1", 1, "hosting")
        assert res.access_delay_ms > dc.access_delay_ms

    def test_unknown_host_type_rejected(self, built):
        builder, topo = built
        with pytest.raises(ConfigurationError):
            builder.attach_random_host(topo, "bad", 0, "mainframe")

    def test_network_colocation(self, built):
        builder, topo = built
        network = builder.allocator.new_network()
        a = builder.attach_random_host(topo, "co-a", 0, "university", network=network)
        b = builder.attach_random_host(topo, "co-b", 0, "university", network=network)
        assert a.prefix24 == b.prefix24

    def test_lookup_by_address_and_name(self, built):
        builder, topo = built
        host = builder.attach_random_host(topo, "find-me", 2, "hosting")
        assert topo.host_by_address(host.address) is host
        assert topo.host_by_name("find-me") is host

    def test_lookup_missing_raises(self, built):
        _, topo = built
        with pytest.raises(KeyError):
            topo.host_by_address("203.0.113.99")
        with pytest.raises(KeyError):
            topo.host_by_name("ghost")

    def test_duplicate_address_rejected(self, built):
        builder, topo = built
        host = builder.attach_random_host(topo, "dup-a", 0, "hosting")
        with pytest.raises(ConfigurationError):
            topo.attach_host("dup-b", host.address, 0, 1.0, 100.0)

    def test_serialization_delay_scales_with_size(self):
        host = Host(
            host_id=0,
            name="h",
            address="100.1.2.3",
            point=GeoPoint(0, 0),
            pop_id=0,
            access_delay_ms=1.0,
            bandwidth_mbps=100.0,
            policy=NEUTRAL_POLICY,
        )
        assert host.serialization_delay_ms(1024) == pytest.approx(
            2 * host.serialization_delay_ms(512)
        )

    def test_host_validation(self):
        with pytest.raises(ConfigurationError):
            Host(
                host_id=0,
                name="h",
                address="100.1.2.3",
                point=GeoPoint(0, 0),
                pop_id=0,
                access_delay_ms=-1.0,
                bandwidth_mbps=100.0,
            )

    def test_prefix_properties(self, built):
        builder, topo = built
        host = builder.attach_random_host(topo, "prefixed", 0, "hosting")
        assert host.address.startswith(host.prefix24)
        assert host.prefix24.startswith(host.prefix16)
