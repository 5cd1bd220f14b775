"""Unit tests for policy routing."""

import pytest

from repro.netsim.routing import BackboneGraph, Router
from repro.netsim.topology import TopologyBuilder
from repro.util.errors import SimulationError
from repro.util.rng import RandomStreams


@pytest.fixture(scope="module")
def router_and_graph():
    streams = RandomStreams(seed=3)
    topo = TopologyBuilder(streams.get("t")).build()
    return Router(topo.graph), topo.graph


def _line_graph(latencies):
    g = BackboneGraph()
    for i, latency in enumerate(latencies):
        g.add_edge(i, i + 1, latency_ms=latency)
    return g


class TestPaths:
    def test_self_path(self, router_and_graph):
        router, _ = router_and_graph
        assert router.path(3, 3) == (3,)

    def test_path_endpoints(self, router_and_graph):
        router, graph = router_and_graph
        nodes = sorted(graph.nodes)
        route = router.path(nodes[0], nodes[-1])
        assert route[0] == nodes[0] and route[-1] == nodes[-1]

    def test_path_uses_existing_edges(self, router_and_graph):
        router, graph = router_and_graph
        route = router.path(0, max(graph.nodes))
        for a, b in zip(route, route[1:]):
            assert graph.has_edge(a, b)

    def test_reverse_path_is_mirror(self, router_and_graph):
        router, graph = router_and_graph
        nodes = sorted(graph.nodes)
        assert router.path(nodes[0], nodes[5]) == router.path(nodes[5], nodes[0])[::-1]

    def test_latency_symmetric(self, router_and_graph):
        router, graph = router_and_graph
        nodes = sorted(graph.nodes)
        for a in nodes[:5]:
            for b in nodes[5:10]:
                assert router.path_latency_ms(a, b) == pytest.approx(
                    router.path_latency_ms(b, a)
                )

    def test_latency_zero_to_self(self, router_and_graph):
        router, _ = router_and_graph
        assert router.path_latency_ms(2, 2) == 0.0

    def test_hop_count_matches_path(self, router_and_graph):
        router, _ = router_and_graph
        assert router.hop_count(0, 1) == len(router.path(0, 1)) - 1


class TestPolicyWeighting:
    def test_hop_penalty_prefers_fewer_hops(self):
        # Direct edge 30 ms vs two-hop 10+10 ms: pure latency prefers the
        # detour; with a 25 ms hop penalty the direct link wins.
        g = BackboneGraph()
        g.add_edge(0, 1, latency_ms=30.0)
        g.add_edge(0, 2, latency_ms=10.0)
        g.add_edge(2, 1, latency_ms=10.0)
        latency_router = Router(g, hop_penalty_ms=0.0)
        policy_router = Router(g, hop_penalty_ms=25.0)
        assert latency_router.path(0, 1) == (0, 2, 1)
        assert policy_router.path(0, 1) == (0, 1)

    def test_zero_penalty_gives_latency_shortest_paths(self):
        g = _line_graph([5.0, 5.0, 5.0])
        g.add_edge(0, 3, latency_ms=100.0)
        router = Router(g, hop_penalty_ms=0.0)
        assert router.path_latency_ms(0, 3) == pytest.approx(15.0)

    def test_policy_routing_creates_overlay_tivs(self):
        # The routed 0->1 path costs 30 ms, but relaying in two routed
        # steps through PoP 2 costs 20 ms: a triangle inequality
        # violation at the overlay level.
        g = BackboneGraph()
        g.add_edge(0, 1, latency_ms=30.0)
        g.add_edge(0, 2, latency_ms=10.0)
        g.add_edge(2, 1, latency_ms=10.0)
        router = Router(g, hop_penalty_ms=25.0)
        direct = router.path_latency_ms(0, 1)
        via = router.path_latency_ms(0, 2) + router.path_latency_ms(2, 1)
        assert via < direct

    def test_negative_penalty_rejected(self):
        g = _line_graph([1.0])
        with pytest.raises(SimulationError):
            Router(g, hop_penalty_ms=-1.0)


class TestValidation:
    def test_empty_graph_rejected(self):
        with pytest.raises(SimulationError):
            Router(BackboneGraph())

    def test_disconnected_graph_rejected(self):
        g = BackboneGraph()
        g.add_edge(0, 1, latency_ms=1.0)
        g.add_node(2)
        with pytest.raises(SimulationError):
            Router(g)

    def test_cache_returns_consistent_results(self, router_and_graph):
        router, _ = router_and_graph
        first = router.path_latency_ms(0, 7)
        second = router.path_latency_ms(0, 7)
        assert first == second
