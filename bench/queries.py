"""The serve workload's inputs and their brute-force reference answers.

The matrix is the synthetic 1,000-node, 10%-holes generator
``repro.bench.bench_serve_qps`` uses; the queries are a fixed op mix in
a seeded order, every one valid (known nodes, distinct endpoints,
distinct path hops) so no operation fails.
"""

from __future__ import annotations

from typing import Any

import numpy as np

#: Share of each op in the mix; ``path`` queries carry ``PATH_HOPS`` distinct hops.
QUERY_MIX = (
    ("point", 0.60),
    ("knn", 0.25),
    ("via", 0.05),
    ("percentile", 0.05),
    ("path", 0.05),
)
KNN_K = 10
VIA_K = 3
PATH_HOPS = 4
HOLE_FRACTION = 0.10


def synthetic_matrix(rng: np.random.Generator, n: int) -> tuple[list[str], np.ndarray]:
    """Symmetric n×n RTTs in 2–400 ms, ~10% NaN holes, zero diagonal."""
    nodes = [f"relay{i:04d}" for i in range(n)]
    iu, ju = np.triu_indices(n, k=1)
    rtts = rng.uniform(2.0, 400.0, size=iu.size)
    rtts[rng.random(iu.size) < HOLE_FRACTION] = np.nan
    values = np.zeros((n, n))
    values[iu, ju] = rtts
    values[ju, iu] = rtts
    return nodes, values


def distinct_pairs(
    rng: np.random.Generator, n: int, count: int
) -> tuple[np.ndarray, np.ndarray]:
    """``count`` index pairs over ``n`` nodes, the two never equal."""
    first = rng.integers(0, n, size=count)
    # An offset in [1, n) keeps the second endpoint distinct from the first.
    return first, (first + rng.integers(1, n, size=count)) % n


def generate_queries(
    rng: np.random.Generator, nodes: list[str], count: int
) -> list[dict[str, Any]]:
    """``count`` queries: exact per-op shares of :data:`QUERY_MIX`, shuffled."""
    n = len(nodes)
    if n < PATH_HOPS:
        raise ValueError(f"need at least {PATH_HOPS} nodes for path queries")
    ops: list[str] = []
    for op, share in QUERY_MIX[1:]:
        ops.extend([op] * int(count * share))
    ops.extend(["point"] * (count - len(ops)))
    order = rng.permutation(count)
    first, second = distinct_pairs(rng, n, count)
    quantiles = rng.uniform(1.0, 99.0, size=count)
    queries: list[dict[str, Any]] = []
    for slot in range(count):
        op = ops[int(order[slot])]
        a, b = nodes[int(first[slot])], nodes[int(second[slot])]
        if op == "point":
            queries.append({"op": "point", "x": a, "y": b})
        elif op == "knn":
            queries.append({"op": "knn", "x": a, "k": KNN_K})
        elif op == "via":
            queries.append({"op": "via", "x": a, "y": b, "k": VIA_K})
        elif op == "percentile":
            queries.append({"op": "percentile", "x": a, "q": float(quantiles[slot])})
        else:
            hops = rng.choice(n, size=PATH_HOPS, replace=False)
            queries.append({"op": "path", "hops": [nodes[int(h)] for h in hops]})
    return queries


def reference_mismatch(
    query: dict[str, Any],
    answer: dict[str, Any],
    matrix: np.ndarray,
    index_of: dict[str, int],
    nodes: list[str],
) -> str | None:
    """Re-answer ``query`` with plain numpy on the raw matrix.

    Returns a description of the mismatch, or ``None`` when ``answer``
    agrees. Mirrors ``repro.serve.selftest``'s references, per wire
    answer instead of per index method.
    """
    if "error" in answer:
        return f"{query}: error answer {answer['error']!r}"
    op = query["op"]
    if op == "point":
        value = matrix[index_of[query["x"]], index_of[query["y"]]]
        expect = None if np.isnan(value) else float(value)
        if answer["rtt_ms"] != expect or answer["measured"] != (expect is not None):
            return f"{query}: {answer['rtt_ms']} != {expect}"
    elif op == "knn":
        i = index_of[query["x"]]
        row = matrix[i].copy()
        row[i] = np.nan
        finite = np.flatnonzero(~np.isnan(row))
        best = finite[np.argsort(row[finite], kind="stable")][: query["k"]]
        got = [(p["y"], p["rtt_ms"]) for p in answer["neighbors"]]
        if got != [(nodes[int(j)], float(row[j])) for j in best]:
            return f"{query}: neighbour ranking mismatch"
    elif op == "percentile":
        i = index_of[query["x"]]
        row = matrix[i].copy()
        row[i] = np.nan
        expect = float(np.percentile(row[~np.isnan(row)], query["q"]))
        if not np.isclose(answer["rtt_ms"], expect, rtol=0, atol=1e-9):
            return f"{query}: {answer['rtt_ms']} != {expect}"
    elif op == "via":
        i, j = index_of[query["x"]], index_of[query["y"]]
        detour = matrix[i, :] + matrix[:, j]
        detour[[i, j]] = np.nan
        expect = np.sort(detour[~np.isnan(detour)])[: query["k"]].tolist()
        if [d["via_rtt_ms"] for d in answer["detours"]] != expect:
            return f"{query}: detour costs mismatch"
    elif op == "path":
        ids = [index_of[h] for h in query["hops"]]
        legs = [matrix[a, b] for a, b in zip(ids, ids[1:])]
        expect = None if any(np.isnan(v) for v in legs) else float(sum(legs))
        if answer["rtt_ms"] != expect:
            return f"{query}: {answer['rtt_ms']} != {expect}"
    else:
        return f"{query}: op not in the benchmark mix"
    return None
