"""Serve smoke on a saved dataset: mmap-backed and forked answers equal
in-memory inline ones, for a mixed batch of every op. (Every answer is
held to plain numpy by ``tests/serve/test_index_differential.py``.)

    PYTHONPATH=src python scripts/serve_smoke.py DATASET.npz
"""

import sys

from repro.core.dataset import CampaignDataset
from repro.serve import MatrixIndex, QueryServer

path = sys.argv[1]
nodes = CampaignDataset.load(path).matrix.nodes
queries = [
    query
    for i, a in enumerate(nodes)
    for b in [nodes[(i * 7 + 1) % len(nodes)]]
    for query in (
        {"op": "point", "x": a, "y": b}, {"op": "knn", "x": a, "k": 1 + i % 8},
        {"op": "percentile", "x": a, "q": float(i % 101)}, {"op": "via", "x": a, "y": b},
        {"op": "path", "hops": [a, b, nodes[(i * 3 + 2) % len(nodes)]]},
    )
]
inline = QueryServer(MatrixIndex.build(CampaignDataset.load(path))).batch(queries)
mapped = QueryServer(MatrixIndex.build(CampaignDataset.load(path, mmap=True)))
assert mapped.batch(queries) == inline, "mmap-backed answers differ from in-memory ones"
assert mapped.batch(queries, workers=2) == inline, "forked answers differ from inline ones"
print(f"serve smoke: {len(queries)} queries, mmap and 2 forked workers == in-memory inline")
