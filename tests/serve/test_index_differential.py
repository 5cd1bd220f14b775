"""Differential suite: every MatrixIndex answer vs plain numpy on the raw array.

The index answers from tables ``build()`` precomputed (rankings,
sorted rows, the global sorted vector); the references here never touch
those tables — each one re-derives its answer from the raw ``n×n``
array. Matrices are small and drawn from a small value pool, so ties,
empty rows, single-neighbour rows and "no finite detour" pairs all
show up within a few dozen examples. Adopted (``copy=False``) arrays
need not be symmetric, so rows and columns are read as the index
documents them: ``row_a`` for row queries, ``row_a + col_b`` for via.
"""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.dataset import (
    CampaignDataset,
    PairProvenance,
    ProvenanceLog,
    RttMatrix,
)
from repro.serve import MatrixIndex, QueryServer
from repro.util.errors import MeasurementError

#: Few distinct RTTs, two of them a float apart, and sums that collide
#: (3.0 + 12.0 == 7.5 + 7.5): ties in rows and in detour costs are the rule.
VALUE_POOL = np.array([0.0, 3.0, 7.5, np.nextafter(7.5, 8.0), 12.0, 40.25, 181.0])


@st.composite
def worlds(draw):
    """(nodes, raw values, k, q) — the array is what the references read."""
    n = draw(st.integers(2, 40))
    holes = draw(st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 1.0)))
    symmetric = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = rng.choice(VALUE_POOL, size=(n, n))
    values[rng.random((n, n)) < holes] = np.nan
    if symmetric:
        upper = np.triu(values, k=1)
        values = upper + upper.T
    if draw(st.booleans()):
        # Force a single-neighbour row (and column): node 0 sees only node 1.
        values[0, :] = np.nan
        values[:, 0] = np.nan
        values[0, 1] = values[1, 0] = 7.5
    np.fill_diagonal(values, 0.0)
    k = draw(st.integers(1, n + 2))
    q = draw(st.one_of(st.just(0.0), st.just(100.0), st.floats(0.0, 100.0)))
    return [f"N{i:02d}" for i in range(n)], values, k, q


def adopt(nodes, values):
    return MatrixIndex.build(RttMatrix.from_array(nodes, values, copy=False))


def ranked_neighbors(values, i):
    """(neighbor ids, RTTs) of row ``i``, ascending, ties in node order."""
    row = values[i].copy()
    row[i] = np.nan
    ids = np.flatnonzero(~np.isnan(row))
    ids = ids[np.argsort(row[ids], kind="stable")]
    return ids, row[ids]


def ranked_detours(values, i, j):
    """Every finite ``(cost, via id)`` for the pair, in tuple order."""
    detour = values[i, :] + values[:, j]
    detour[[i, j]] = np.nan
    finite = np.flatnonzero(~np.isnan(detour))
    return sorted((float(detour[r]), int(r)) for r in finite), detour[finite]


def upper_values(values):
    upper = values[np.triu_indices(len(values), k=1)]
    return upper[~np.isnan(upper)]


def sampled_pairs(n, count=12):
    """A fixed spread of ordered pairs (i != j), the same for any world."""
    rng = np.random.default_rng(n)
    first = rng.integers(0, n, size=count)
    return [(int(i), int((i + d) % n)) for i, d in zip(first, rng.integers(1, n, size=count))]


def via_record(nodes, i, j, r, cost, direct):
    record = {
        "x": nodes[i], "y": nodes[j],
        "via": None if r is None else nodes[r],
        "via_rtt_ms": cost, "direct_rtt_ms": direct,
        "improved": cost is not None and (direct is None or cost < direct),
    }
    if cost is not None and direct is not None:
        record["savings_ms"] = round(direct - cost, 6)
    return record


def expected_detours(nodes, values, i, j, k):
    ranked, _ = ranked_detours(values, i, j)
    direct = None if np.isnan(values[i, j]) else float(values[i, j])
    if not ranked:
        return [via_record(nodes, i, j, None, None, direct)]
    return [via_record(nodes, i, j, r, cost, direct) for cost, r in ranked[:k]]


class TestRowQueries:
    @settings(max_examples=60, deadline=None)
    @given(world=worlds())
    def test_percentile_and_rank(self, world):
        nodes, values, _, q = world
        index = adopt(nodes, values)
        for i, a in enumerate(nodes):
            _, rtts = ranked_neighbors(values, i)
            assert index.degree(a) == rtts.size
            if rtts.size == 0:
                with pytest.raises(MeasurementError):
                    index.percentile(a, q)
                with pytest.raises(MeasurementError):
                    index.rank(a, 7.5)
                continue
            expect = float(np.percentile(rtts, q))
            got = index.percentile(a, q)
            assert got == pytest.approx(expect, rel=0, abs=1e-9)
            assert index.percentile(a, 0.0) == float(rtts.min())
            assert index.percentile(a, 100.0) == float(rtts.max())
            for probe in (7.5, float(rtts[0]), float(rtts[-1]) + 1.0, -1.0):
                assert index.rank(a, probe) == sum(
                    1 for v in rtts.tolist() if v <= probe
                ) / rtts.size

    @settings(max_examples=60, deadline=None)
    @given(world=worlds())
    def test_global_percentile(self, world):
        nodes, values, _, q = world
        index = adopt(nodes, values)
        pool = upper_values(values)
        if pool.size == 0:
            with pytest.raises(MeasurementError):
                index.global_percentile(q)
            return
        assert index.global_percentile(q) == pytest.approx(
            float(np.percentile(pool, q)), rel=0, abs=1e-9
        )
        assert index.global_percentile(0.0) == float(pool.min())
        assert index.global_percentile(100.0) == float(pool.max())

    @settings(max_examples=60, deadline=None)
    @given(world=worlds())
    def test_k_nearest(self, world):
        nodes, values, k, _ = world
        index = adopt(nodes, values)
        for i, a in enumerate(nodes):
            ids, rtts = ranked_neighbors(values, i)
            got = index.k_nearest(a, k)
            assert [p.y for p in got] == [nodes[r] for r in ids[:k]]
            assert [p.rtt_ms for p in got] == rtts[:k].tolist()
            assert all(p.x == a and p.measured for p in got)


class TestBestVia:
    @settings(max_examples=80, deadline=None)
    @given(world=worlds())
    def test_costs_order_and_endpoints(self, world):
        nodes, values, k, _ = world
        index = adopt(nodes, values)
        for i, j in sampled_pairs(len(nodes)):
            ranked, finite_costs = ranked_detours(values, i, j)
            got = index.best_via(nodes[i], nodes[j], k=k)
            if not ranked:
                assert [v.via for v in got] == [None]
                assert got[0].via_rtt_ms is None and not got[0].improved
                continue
            assert [v.via_rtt_ms for v in got] == np.sort(finite_costs)[:k].tolist()
            assert [(v.via_rtt_ms, v.via) for v in got] == [
                (cost, nodes[r]) for cost, r in ranked[:k]
            ]
            assert not {v.via for v in got} & {nodes[i], nodes[j]}

    def test_every_k_agrees_with_the_full_ranking(self):
        # One world, every k from 1 past n: each answer is a prefix of
        # the same (cost, node index) ranking — no path switches with k.
        rng = np.random.default_rng(5)
        n = 17
        values = rng.choice(VALUE_POOL, size=(n, n))
        values[rng.random((n, n)) < 0.2] = np.nan
        np.fill_diagonal(values, 0.0)
        nodes = [f"N{i:02d}" for i in range(n)]
        index = adopt(nodes, values)
        ranked, _ = ranked_detours(values, 2, 9)
        assert len(ranked) > 5
        for k in range(1, n + 3):
            got = index.best_via(nodes[2], nodes[9], k=k)
            assert [(v.via_rtt_ms, v.via) for v in got] == [
                (cost, nodes[r]) for cost, r in ranked[:k]
            ]


def dataset_with_partial_provenance(nodes, values):
    """A symmetric dataset whose log covers every other measured pair."""
    upper = np.triu(values, k=1)
    symmetric = upper + upper.T
    return logged_dataset(nodes, symmetric), symmetric


def logged_dataset(nodes, values):
    """``values`` as they are (symmetric or not), every other measured
    pair in the provenance log."""
    matrix = RttMatrix.from_array(nodes, values)
    log = ProvenanceLog()
    for slot, (a, b, rtt) in enumerate(matrix.measured_pairs()):
        if slot % 2 == 0:
            log.add(PairProvenance(
                x=a, y=b, status="measured", rtt_ms=rtt,
                samples_requested=6, samples_kept=3 + slot % 4,
            ))
    return CampaignDataset(matrix=matrix, provenance=log)


def expected_meta(scores, i, j):
    """The trust keys of a wire record, straight from ``dataset.quality()``."""
    quality = scores.scores[i, j]
    if np.isnan(quality):
        return {}
    meta = {"quality": round(float(quality), 4)}
    age = scores.age_rows[i, j]
    if not np.isnan(age):
        meta["age_rows"] = int(age)
        meta["stale"] = int(age) > int(scores.stale_after_rows)
    return meta


class TestQualityJoin:
    @settings(max_examples=25, deadline=None)
    @given(world=worlds())
    def test_same_answers_plus_metadata(self, world):
        nodes, values, k, _ = world
        dataset, symmetric = dataset_with_partial_provenance(nodes, values)
        joined = MatrixIndex.build(dataset)
        bare = MatrixIndex.build(dataset.matrix)
        scores = dataset.quality() if len(dataset.provenance) else None
        for i, a in enumerate(nodes):
            with_meta = joined.k_nearest(a, k)
            plain = bare.k_nearest(a, k)
            assert [(p.x, p.y, p.rtt_ms) for p in with_meta] == [
                (p.x, p.y, p.rtt_ms) for p in plain
            ]
            assert all(p.quality is None for p in plain)
            ids, _ = ranked_neighbors(symmetric, i)
            for p, r in zip(with_meta, ids):
                record = p.to_dict()
                trust = {
                    key: record[key]
                    for key in ("quality", "age_rows", "stale") if key in record
                }
                assert trust == ({} if scores is None else expected_meta(scores, i, int(r)))
        for i, j in sampled_pairs(len(nodes)):
            p, plain = joined.point(nodes[i], nodes[j]), bare.point(nodes[i], nodes[j])
            assert (p.x, p.y, p.rtt_ms, p.measured) == (
                plain.x, plain.y, plain.rtt_ms, plain.measured
            )


class TestWireDicts:
    """``QueryServer.query`` answers == dicts assembled from the references."""

    @settings(max_examples=40, deadline=None)
    @given(world=worlds(), join=st.booleans())
    def test_all_six_ops(self, world, join):
        nodes, values, k, q = world
        if join:
            dataset, values = dataset_with_partial_provenance(nodes, values)
            index = MatrixIndex.build(dataset)
            scores = dataset.quality() if len(dataset.provenance) else None
        else:
            index = adopt(nodes, values)
            scores = None
        server = QueryServer(index)
        tail = {"version": index.version}

        def meta(i, j):
            return {} if scores is None else expected_meta(scores, i, j)

        for i, j in sampled_pairs(len(nodes), count=8):
            a, b = nodes[i], nodes[j]
            value = values[i, j]
            measured = not np.isnan(value)
            assert server.query({"op": "point", "x": a, "y": b}) == {
                "x": a, "y": b, "rtt_ms": float(value) if measured else None,
                "measured": bool(measured), **meta(i, j), "op": "point", **tail,
            }

            ids, rtts = ranked_neighbors(values, i)
            assert server.query({"op": "knn", "x": a, "k": k}) == {
                "x": a, "k": k,
                "neighbors": [
                    {"x": a, "y": nodes[r], "rtt_ms": float(rtt), "measured": True,
                     **meta(i, int(r))}
                    for r, rtt in zip(ids[:k], rtts[:k])
                ],
                "op": "knn", **tail,
            }

            assert server.query({"op": "via", "x": a, "y": b, "k": k}) == {
                "detours": expected_detours(nodes, values, i, j, k),
                "op": "via", **tail,
            }

            got = server.query({"op": "percentile", "x": a, "q": q})
            rank = server.query({"op": "rank", "x": a, "rtt_ms": 7.5})
            if rtts.size == 0:
                assert got["category"] == rank["category"] == "internal"
            else:
                assert got.pop("rtt_ms") == pytest.approx(
                    float(np.percentile(rtts, q)), rel=0, abs=1e-9
                )
                assert got == {"x": a, "q": q, "op": "percentile", **tail}
                assert rank == {
                    "x": a, "rtt_ms": 7.5,
                    "rank": int((rtts <= 7.5).sum()) / rtts.size,
                    "op": "rank", **tail,
                }

            hops = [a, b, nodes[(j + 1) % len(nodes)]]
            legs = [values[i, j], values[j, (j + 1) % len(nodes)]]
            assert server.query({"op": "path", "hops": hops}) == {
                "hops": hops,
                "rtt_ms": None if np.isnan(legs).any() else float(legs[0] + legs[1]),
                "op": "path", **tail,
            }

        pool = upper_values(values)
        got = server.query({"op": "percentile", "q": q})
        if pool.size == 0:
            assert got["category"] == "internal"
        else:
            assert got.pop("rtt_ms") == pytest.approx(
                float(np.percentile(pool, q)), rel=0, abs=1e-9
            )
            assert got == {"q": q, "op": "percentile", **tail}


def dumps(answer):
    return json.dumps(answer)


class TestWireText:
    """The wire, as text: key order included, and the value API agrees.

    Quality-joined and bare indexes over symmetric and asymmetric
    matrices; the symmetric ones serve ``via`` from row ``b``, the
    others from column ``b``."""

    @settings(max_examples=40, deadline=None)
    @given(world=worlds(), join=st.booleans())
    def test_every_op_as_json_text(self, world, join):
        nodes, values, k, q = world
        if join:
            dataset = logged_dataset(nodes, values)
            index = MatrixIndex.build(dataset)
            scores = dataset.quality() if len(dataset.provenance) else None
        else:
            index = adopt(nodes, values)
            scores = None
        server = QueryServer(index)
        tail = {"version": index.version}

        def meta(i, j):
            return {} if scores is None else expected_meta(scores, i, j)

        for i, j in sampled_pairs(len(nodes), count=8):
            a, b = nodes[i], nodes[j]
            value = values[i, j]
            measured = not np.isnan(value)
            point = {"op": "point", "x": a, "y": b}
            assert dumps(server.query(point)) == dumps({
                "x": a, "y": b, "rtt_ms": float(value) if measured else None,
                "measured": bool(measured), **meta(i, j), "op": "point", **tail,
            })
            ids, rtts = ranked_neighbors(values, i)
            assert dumps(server.query({"op": "knn", "x": a, "k": k})) == dumps({
                "x": a, "k": k,
                "neighbors": [
                    {"x": a, "y": nodes[r], "rtt_ms": float(rtt), "measured": True,
                     **meta(i, int(r))}
                    for r, rtt in zip(ids[:k], rtts[:k])
                ],
                "op": "knn", **tail,
            })
            assert dumps(server.query({"op": "via", "x": a, "y": b, "k": k})) == dumps({
                "detours": expected_detours(nodes, values, i, j, k),
                "op": "via", **tail,
            })
            if rtts.size:
                got = server.query({"op": "percentile", "x": a, "q": q})
                assert got["rtt_ms"] == pytest.approx(
                    float(np.percentile(rtts, q)), rel=0, abs=1e-9
                )
                assert dumps(got) == dumps({
                    "x": a, "q": q, "rtt_ms": got["rtt_ms"], "op": "percentile", **tail,
                })
                assert dumps(server.query({"op": "rank", "x": a, "rtt_ms": 7.5})) == dumps({
                    "x": a, "rtt_ms": 7.5,
                    "rank": int((rtts <= 7.5).sum()) / rtts.size,
                    "op": "rank", **tail,
                })
            hops = [a, b, nodes[(j + 1) % len(nodes)]]
            legs = [values[i, j], values[j, (j + 1) % len(nodes)]]
            assert dumps(server.query({"op": "path", "hops": hops})) == dumps({
                "hops": hops,
                "rtt_ms": None if np.isnan(legs).any() else float(legs[0] + legs[1]),
                "op": "path", **tail,
            })

    @settings(max_examples=40, deadline=None)
    @given(world=worlds(), join=st.booleans())
    def test_value_api_agrees_with_the_wire(self, world, join):
        nodes, values, k, _ = world
        index = MatrixIndex.build(logged_dataset(nodes, values)) if join else adopt(
            nodes, values
        )
        server = QueryServer(index)

        def served(query, key=None):
            answer = server.query(query)
            assert (answer.pop("op"), answer.pop("version")) == (
                query["op"], index.version
            )
            return answer if key is None else answer[key]

        for i, j in sampled_pairs(len(nodes), count=8):
            a, b = nodes[i], nodes[j]
            for wire, value in (
                (served({"op": "point", "x": a, "y": b}), index.point(a, b).to_dict()),
                (
                    served({"op": "knn", "x": a, "k": k}, "neighbors"),
                    [p.to_dict() for p in index.k_nearest(a, k)],
                ),
                (
                    served({"op": "via", "x": a, "y": b, "k": k}, "detours"),
                    [v.to_dict() for v in index.best_via(a, b, k=k)],
                ),
            ):
                assert wire == value
                assert dumps(wire) == dumps(value)

    def test_via_reads_row_b_only_when_symmetric_to_the_bit(self):
        # Row 2 holds +0.0 where column 2 holds -0.0: == calls the two
        # equal, a row read would turn the detour 0 -> 1 -> 2 from -0.0
        # into +0.0 — build's symmetry test compares bits.
        nodes = ["a", "b", "c", "d"]
        values = np.full((4, 4), 9.0)
        np.fill_diagonal(values, 0.0)
        values[0, 1] = values[1, 0] = -0.0
        values[1, 2] = -0.0
        values[2, 1] = 0.0
        index = adopt(nodes, values)
        assert index._cols is not index._rtt
        assert dumps(index.best_via("a", "c")[0].to_dict()).count("-0.0") == 1
        answer = QueryServer(index).query({"op": "via", "x": "a", "y": "c"})
        assert answer["detours"][0]["via"] == "b"
        assert json.dumps(answer["detours"][0]["via_rtt_ms"]) == "-0.0"
        values[2, 1] = -0.0
        symmetric = adopt(nodes, values)
        assert symmetric._cols is symmetric._rtt


class TestBuildRefusesNonMeasurements:
    """Adopted arrays never went through ``RttMatrix.set``: build is the gate."""

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, -0.5])
    def test_infinite_or_negative_entry_rejected(self, bad):
        values = np.full((4, 4), 20.0)
        np.fill_diagonal(values, 0.0)
        values[1, 3] = values[3, 1] = bad
        nodes = ["a", "b", "c", "d"]
        for copy in (True, False):
            matrix = RttMatrix.from_array(nodes, values, copy=copy)
            with pytest.raises(MeasurementError, match="infinite or negative"):
                MatrixIndex.build(matrix)

    def test_wire_never_carries_a_non_finite_number(self):
        # What the guards are for: with them, no answer to any op can
        # serialize to a bare ``Infinity``/``NaN`` token.
        values = np.full((4, 4), np.nan)
        np.fill_diagonal(values, 0.0)
        values[0, 1] = values[1, 0] = 9.0
        nodes = ["a", "b", "c", "d"]
        server = QueryServer(adopt(nodes, values))

        def refuse(token):
            raise AssertionError(f"non-finite token {token} on the wire")

        for query in (
            {"op": "point", "x": "a", "y": "c"},
            {"op": "knn", "x": "c", "k": 3},
            {"op": "percentile", "x": "c", "q": 50},
            {"op": "percentile", "q": 50},
            {"op": "rank", "x": "a", "rtt_ms": 5.0},
            {"op": "via", "x": "a", "y": "b", "k": 2},
            {"op": "path", "hops": ["a", "b", "c"]},
        ):
            json.loads(json.dumps(server.query(query)), parse_constant=refuse)
