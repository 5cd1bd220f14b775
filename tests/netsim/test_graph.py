"""``BackboneGraph`` against ``networkx.Graph``, the library it replaced.

The topology builder's draws depend on iteration *orders* the old graph
type happened to have (which component comes first decides which bridge
link draws its inflation factor first), so the replacement is compared
on generated edge lists, orders included. ``networkx`` is a dev extra:
without it this file is skipped, and ``tests/testbeds/test_build_identity.py``
still pins the worlds built on the graph.
"""

import os
import subprocess
import sys

import pytest
from hypothesis import given, strategies as st

import repro
from repro.netsim.routing import BackboneGraph

# At module scope: inside the ``@given`` body the first example paid the
# ≈ 170 ms import and tripped Hypothesis's 200 ms deadline on a busy box.
nx = pytest.importorskip("networkx")

_node = st.integers(min_value=0, max_value=12)
_graphs = st.tuples(
    st.lists(_node, max_size=6),
    st.lists(
        st.tuples(_node, _node, st.floats(min_value=0.1, max_value=99.0)),
        max_size=30,
    ),
)


class TestAgainstNetworkx:
    @given(_graphs)
    def test_same_nodes_links_attributes_and_component_order(self, spec):
        isolated, links = spec
        ours, theirs = BackboneGraph(), nx.Graph()
        for graph in (ours, theirs):
            graph.add_nodes_from(isolated)
            for index, (a, b, latency) in enumerate(links):
                # Re-adding a link updates its attributes in place;
                # adding a node that exists changes nothing.
                graph.add_edge(a, b, latency_ms=latency, index=index)
                graph.add_node(b)

        assert list(ours.nodes) == list(theirs.nodes)
        assert ours.number_of_nodes() == theirs.number_of_nodes()
        for node in theirs.nodes:
            assert list(ours.neighbors(node)) == list(theirs.neighbors(node))
            for other in theirs.nodes:
                assert ours.has_edge(node, other) == theirs.has_edge(node, other)
                if theirs.has_edge(node, other):
                    assert ours.edges[node, other] == theirs.edges[node, other]
                    assert ours.edges[node, other] is ours.edges[other, node]
        assert list(ours.edges(data=True)) == list(theirs.edges(data=True))
        assert list(ours.connected_components()) == list(nx.connected_components(theirs))
        if theirs.number_of_nodes():
            assert ours.is_connected() == nx.is_connected(theirs)


def test_unknown_node_is_a_key_error():
    graph = BackboneGraph()
    graph.add_edge(0, 1, latency_ms=1.0)
    assert not graph.has_edge(0, 7) and not graph.has_edge(7, 0)
    with pytest.raises(KeyError):
        graph.edges[0, 7]
    with pytest.raises(KeyError):
        graph.neighbors(7)


def test_program_does_not_import_networkx():
    # The library cost 20 MB of RSS and 170 ms of import for a 50-node
    # graph; nothing the program imports may bring it back.
    code = "import sys, repro.testbeds.livetor, repro.serve; print('networkx' in sys.modules)"
    src_dir = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    done = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=src_dir),
        capture_output=True, text=True, timeout=120, check=True,
    )
    assert done.stdout.strip() == "False"
