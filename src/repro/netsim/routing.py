"""Policy routing over the PoP backbone.

Real Internet routing picks paths by policy (AS relationships, hot-potato
exits), not purely by latency. We model that with Dijkstra over a *policy
weight*: each link costs its latency **plus a fixed per-hop penalty**
(transit/peering preference for fewer AS hops). Routed paths therefore
trade latency for hop count, and the latency of the routed path between
two PoPs frequently exceeds the latency of relaying through a third PoP
— the triangle inequality violations Section 5.2.1 exploits. The penalty
size controls TIV prevalence and magnitude: with ~15–25 ms per hop,
most node pairs see small detour savings and a minority see large ones,
matching the paper's Figure 14.

Routes are computed once per canonical (low, high) PoP pair — latency is
symmetric — then cached in both orientations, alongside a per-direction
path-latency cache, so repeat lookups are a single dict probe.

The backbone itself is a :class:`BackboneGraph`: ≈ 50 PoPs and a few
hundred links need a dict of dicts, not a graph library.
"""

from __future__ import annotations

import heapq
from typing import Any, Hashable, Iterable, Iterator

from repro.util.errors import SimulationError
from repro.util.units import Milliseconds


class _EdgeView:
    """``graph.edges``: ``edges[a, b]`` is the link's attribute dict (one
    dict, shared by both orientations); ``edges(data=True)`` yields each
    undirected link once, in insertion order of its first endpoint."""

    __slots__ = ("_adj",)

    def __init__(self, adj: dict[Hashable, dict[Hashable, dict[str, Any]]]) -> None:
        self._adj = adj

    def __getitem__(self, pair: tuple[Hashable, Hashable]) -> dict[str, Any]:
        a, b = pair
        return self._adj[a][b]

    def __call__(self, data: bool = False) -> Iterator[tuple]:
        seen: set[Hashable] = set()
        for a, neighbours in self._adj.items():
            for b, attrs in neighbours.items():
                if b not in seen:
                    yield (a, b, attrs) if data else (a, b)
            seen.add(a)


class BackboneGraph:
    """Undirected graph with per-link attributes: an insertion-ordered
    dict of dicts under the method names, and with the iteration orders,
    of the graph library it replaced (``tests/netsim/test_graph.py``
    compares the two) — :meth:`connected_components` decides which
    bridge links the topology builder draws first."""

    __slots__ = ("_adj", "nodes", "edges")

    def __init__(self) -> None:
        self._adj: dict[Hashable, dict[Hashable, dict[str, Any]]] = {}
        #: Live view of the nodes, in insertion order.
        self.nodes = self._adj.keys()
        self.edges = _EdgeView(self._adj)

    def add_node(self, node: Hashable) -> None:
        """Add ``node`` (a no-op if present)."""
        self._adj.setdefault(node, {})

    def add_nodes_from(self, nodes: Iterable[Hashable]) -> None:
        """Add every node of ``nodes``, in order."""
        for node in nodes:
            self.add_node(node)

    def add_edge(self, a: Hashable, b: Hashable, **attrs: Any) -> None:
        """Link ``a`` and ``b`` (adding either if missing); ``attrs``
        update the link's attribute dict."""
        adj = self._adj
        data = adj.setdefault(a, {}).get(b, {})
        data.update(attrs)
        adj[a][b] = data
        adj.setdefault(b, {})[a] = data

    def has_edge(self, a: Hashable, b: Hashable) -> bool:
        """Whether a link joins ``a`` and ``b``."""
        return b in self._adj.get(a, ())

    def neighbors(self, node: Hashable) -> Iterator[Hashable]:
        """The nodes linked to ``node``, in link-insertion order."""
        return iter(self._adj[node])

    def number_of_nodes(self) -> int:
        """How many nodes the graph holds."""
        return len(self._adj)

    def connected_components(self) -> Iterator[set]:
        """Each component as a node set, in insertion order of the
        component's first node."""
        seen: set[Hashable] = set()
        for start in self._adj:
            if start in seen:
                continue
            component = {start}
            frontier = [start]
            while frontier:
                for neighbour in self._adj[frontier.pop()]:
                    if neighbour not in component:
                        component.add(neighbour)
                        frontier.append(neighbour)
            seen |= component
            yield component

    def is_connected(self) -> bool:
        """Whether the graph is non-empty and in one piece."""
        return len(list(self.connected_components())) == 1


class Router:
    """Computes and caches policy-weighted shortest paths."""

    def __init__(self, graph: BackboneGraph, hop_penalty_ms: float = 25.0) -> None:
        if graph.number_of_nodes() == 0:
            raise SimulationError("cannot route over an empty graph")
        if not graph.is_connected():
            raise SimulationError("backbone graph must be connected")
        if hop_penalty_ms < 0:
            raise SimulationError("hop penalty must be non-negative")
        self._graph = graph
        self.hop_penalty_ms = hop_penalty_ms
        # Both orientations of every computed route are cached, so repeat
        # lookups never pay the ``[::-1]`` reversal copy; latencies are
        # cached per *directed* query so the summation order (and thus
        # the exact float) matches a cold computation bit-for-bit.
        self._path_cache: dict[tuple[int, int], tuple[int, ...]] = {}
        self._latency_cache: dict[tuple[int, int], Milliseconds] = {}
        self._trees: dict[int, dict[int, list[int]]] = {}

    def path(self, src_pop: int, dst_pop: int) -> tuple[int, ...]:
        """The routed PoP sequence from ``src_pop`` to ``dst_pop``.

        Paths are canonicalized so ``path(a, b)`` is the reverse of
        ``path(b, a)`` — routing in this model is symmetric.
        """
        if src_pop == dst_pop:
            return (src_pop,)
        route = self._path_cache.get((src_pop, dst_pop))
        if route is None:
            low, high = (
                (src_pop, dst_pop) if src_pop < dst_pop else (dst_pop, src_pop)
            )
            canonical = tuple(self._policy_path(low, high))
            self._path_cache[(low, high)] = canonical
            self._path_cache[(high, low)] = canonical[::-1]
            route = self._path_cache[(src_pop, dst_pop)]
        return route

    def _policy_path(self, src: int, dst: int) -> list[int]:
        if src not in self._trees:
            self._trees[src] = self._dijkstra(src)
        try:
            return self._trees[src][dst]
        except KeyError:
            raise SimulationError(f"no route from PoP {src} to PoP {dst}") from None

    def _dijkstra(self, src: int) -> dict[int, list[int]]:
        """Dijkstra over latency + per-hop penalty, deterministic ties."""
        dist: dict[int, float] = {src: 0.0}
        parent: dict[int, int | None] = {src: None}
        done: set[int] = set()
        heap: list[tuple[float, int]] = [(0.0, src)]
        while heap:
            d, node = heapq.heappop(heap)
            if node in done:
                continue
            done.add(node)
            for neighbour in sorted(self._graph.neighbors(node)):
                if neighbour in done:
                    continue
                weight = (
                    self._graph.edges[node, neighbour]["latency_ms"]
                    + self.hop_penalty_ms
                )
                candidate = d + weight
                if candidate < dist.get(neighbour, float("inf")) - 1e-12:
                    dist[neighbour] = candidate
                    parent[neighbour] = node
                    heapq.heappush(heap, (candidate, neighbour))
        paths: dict[int, list[int]] = {}
        for node in parent:
            seq = [node]
            cursor = parent[node]
            while cursor is not None:
                seq.append(cursor)
                cursor = parent[cursor]
            paths[node] = seq[::-1]
        return paths

    def path_latency_ms(self, src_pop: int, dst_pop: int) -> Milliseconds:
        """One-way latency of the routed path between two PoPs."""
        key = (src_pop, dst_pop)
        total = self._latency_cache.get(key)
        if total is None:
            route = self.path(src_pop, dst_pop)
            edges = self._graph.edges
            total = 0.0
            for a, b in zip(route, route[1:]):
                total += edges[a, b]["latency_ms"]
            self._latency_cache[key] = total
        return total

    def hop_count(self, src_pop: int, dst_pop: int) -> int:
        """Number of backbone links on the routed path."""
        return len(self.path(src_pop, dst_pop)) - 1
