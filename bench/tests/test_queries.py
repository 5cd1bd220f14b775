"""The serve query generator only emits valid, non-degenerate queries."""

from collections import Counter

import numpy as np
import pytest

from bench.queries import (
    KNN_K,
    PATH_HOPS,
    QUERY_MIX,
    VIA_K,
    generate_queries,
    reference_mismatch,
    synthetic_matrix,
)


@pytest.mark.parametrize("seed", [0, 47, 2015])
@pytest.mark.parametrize("n_nodes", [4, 60])
def test_queries_are_valid(seed, n_nodes):
    rng = np.random.default_rng(seed)
    nodes, _ = synthetic_matrix(rng, n_nodes)
    known = set(nodes)
    queries = generate_queries(rng, nodes, 2_000)
    assert len(queries) == 2_000
    for q in queries:
        if q["op"] == "path":
            assert len(q["hops"]) == PATH_HOPS == len(set(q["hops"]))
            assert set(q["hops"]) <= known
        else:
            assert q["x"] in known
        if q["op"] in ("point", "via"):
            assert q["y"] in known and q["y"] != q["x"]
        if q["op"] == "percentile":
            assert 0.0 < q["q"] < 100.0
    assert {q["k"] for q in queries if q["op"] == "knn"} == {KNN_K}
    assert {q["k"] for q in queries if q["op"] == "via"} == {VIA_K}


def test_op_shares_are_exact_and_seeded():
    nodes, _ = synthetic_matrix(np.random.default_rng(1), 30)
    queries = generate_queries(np.random.default_rng(5), nodes, 10_000)
    counts = Counter(q["op"] for q in queries)
    assert counts == {op: int(10_000 * share) for op, share in QUERY_MIX}
    assert queries == generate_queries(np.random.default_rng(5), nodes, 10_000)
    assert queries != generate_queries(np.random.default_rng(6), nodes, 10_000)


def test_reference_flags_a_wrong_answer():
    from repro.core import RttMatrix
    from repro.serve import MatrixIndex, QueryServer

    rng = np.random.default_rng(3)
    nodes, values = synthetic_matrix(rng, 40)
    server = QueryServer(MatrixIndex.build(RttMatrix.from_array(nodes, values)))
    index_of = {node: i for i, node in enumerate(nodes)}
    for q in generate_queries(rng, nodes, 400):
        answer = server.query(q)
        assert reference_mismatch(q, answer, values, index_of, nodes) is None
    q = {"op": "point", "x": nodes[0], "y": nodes[1]}
    wrong = dict(server.query(q), rtt_ms=-1.0)
    assert reference_mismatch(q, wrong, values, index_of, nodes) is not None
