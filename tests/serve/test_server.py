"""QueryServer dispatch, fork invariance, and mmap bit-identity."""

import itertools
import os

import numpy as np
import pytest
from conftest import worker_fault

from repro.core.dataset import CampaignDataset, RttMatrix
from repro.obs import categorize_failure
from repro.serve import (
    QUERY_OPS,
    MatrixIndex,
    QueryServer,
    ServeTelemetry,
)
from repro.util.errors import ConfigurationError, MeasurementError


def random_matrix(n=20, density=1.0, seed=0):
    """A symmetric random RttMatrix with optional NaN holes."""
    rng = np.random.default_rng(seed)
    values = np.full((n, n), np.nan)
    iu, ju = np.triu_indices(n, k=1)
    keep = rng.random(iu.size) < density
    rtts = rng.uniform(5.0, 300.0, size=iu.size)
    values[iu[keep], ju[keep]] = rtts[keep]
    values[ju[keep], iu[keep]] = rtts[keep]
    np.fill_diagonal(values, 0.0)
    nodes = [f"N{i:03d}" for i in range(n)]
    return RttMatrix.from_array(nodes, values), values


@pytest.fixture(scope="module")
def server():
    matrix, _ = random_matrix(n=16, density=0.8, seed=21)
    return QueryServer(MatrixIndex.build(matrix))


def mixed_queries(nodes, count=40, seed=5):
    rng = np.random.default_rng(seed)
    queries = []
    for _ in range(count):
        i, j = (int(v) for v in rng.integers(0, len(nodes), size=2))
        if i == j:
            j = (j + 1) % len(nodes)
        kind = int(rng.integers(0, 5))
        if kind == 0:
            queries.append({"op": "point", "x": nodes[i], "y": nodes[j]})
        elif kind == 1:
            queries.append({"op": "knn", "x": nodes[i], "k": 4})
        elif kind == 2:
            queries.append({"op": "percentile", "x": nodes[i], "q": 75.0})
        elif kind == 3:
            k = (max(i, j) + 1) % len(nodes)
            queries.append({"op": "path", "hops": [nodes[i], nodes[j], nodes[k]]})
        else:
            queries.append({"op": "via", "x": nodes[i], "y": nodes[j], "k": 2})
    return queries


class TestDispatch:
    def test_every_op_answers(self, server):
        nodes = server.index.nodes
        for op in QUERY_OPS:
            query = {
                "point": {"op": "point", "x": nodes[0], "y": nodes[1]},
                "knn": {"op": "knn", "x": nodes[0], "k": 3},
                "percentile": {"op": "percentile", "x": nodes[0], "q": 50.0},
                "rank": {"op": "rank", "x": nodes[0], "rtt_ms": 100.0},
                "path": {"op": "path", "hops": [nodes[0], nodes[1], nodes[2]]},
                "via": {"op": "via", "x": nodes[0], "y": nodes[1]},
            }[op]
            answer = server.query(query)
            assert answer["op"] == op
            assert "error" not in answer
            assert answer["version"] == server.index.version

    def test_global_percentile_without_node(self, server):
        answer = server.query({"op": "percentile", "q": 50.0})
        assert answer["rtt_ms"] == pytest.approx(
            server.index.global_percentile(50.0)
        )

    def test_bad_queries_return_error_dicts(self, server):
        nodes = server.index.nodes
        for query in (
            {"op": "teleport"},
            {"op": "point", "x": "ghost", "y": nodes[0]},
            {"op": "knn", "x": nodes[0], "k": 0},
            {"op": "point"},
        ):
            answer = server.query(query)
            assert "error" in answer

    def test_bad_query_does_not_poison_batch(self, server):
        nodes = server.index.nodes
        answers = server.batch([
            {"op": "point", "x": nodes[0], "y": nodes[1]},
            {"op": "nonsense"},
            {"op": "knn", "x": nodes[2], "k": 2},
        ])
        assert "error" not in answers[0]
        assert "error" in answers[1]
        assert "error" not in answers[2]

    def test_worker_count_validated(self, server):
        with pytest.raises(ConfigurationError):
            QueryServer(server.index, workers=0)
        with pytest.raises(ConfigurationError):
            server.batch([], workers=0)


class TestErrorTaxonomy:
    """Every dispatch error path answers with its taxonomy category."""

    @pytest.mark.parametrize("query, category", [
        ({"op": "teleport"}, "unknown_op"),
        ({}, "unknown_op"),
        ({"op": "point", "x": "ghost", "y": "N000"}, "unknown_node"),
        ({"op": "knn", "x": "ghost", "k": 3}, "unknown_node"),
        ({"op": "knn", "x": "N000", "k": 0}, "bad_arg"),
        ({"op": "knn", "x": "N000", "k": "lots"}, "bad_arg"),
        ({"op": "percentile", "x": "N000", "q": 150.0}, "bad_arg"),
        ({"op": "point", "x": "N000"}, "bad_arg"),          # missing y
        ({"op": "path"}, "bad_arg"),                        # missing hops
        ({"op": "path", "hops": 12}, "bad_arg"),            # not iterable
        ({"op": "path", "hops": ["N000"]}, "bad_arg"),      # one hop
        ({"op": "rank", "x": "N000"}, "bad_arg"),           # missing rtt_ms
        ({"op": "rank", "x": "N000", "rtt_ms": float("nan")}, "bad_arg"),
        ({"op": "rank", "x": "N000", "rtt_ms": float("inf")}, "bad_arg"),
        ({"op": "rank", "x": "N000", "rtt_ms": "nan"}, "bad_arg"),
        ({"op": "via", "x": "N000", "y": "N000"}, "bad_arg"),
        # No silent coercion: a count is an integer, hops a list.
        ({"op": "knn", "x": "N000", "k": 2.9}, "bad_arg"),
        ({"op": "knn", "x": "N000", "k": True}, "bad_arg"),
        ({"op": "knn", "x": "N000", "k": "3"}, "bad_arg"),
        ({"op": "via", "x": "N000", "y": "N001", "k": 2.9}, "bad_arg"),
        ({"op": "via", "x": "N000", "y": "N001", "k": True}, "bad_arg"),
        ({"op": "path", "hops": "ab"}, "bad_arg"),
        ({"op": "path", "hops": {"N000": 0, "N001": 1}}, "bad_arg"),
        # ... and a quantile or an RTT is a number, not a bool or a string.
        ({"op": "percentile", "x": "N000", "q": True}, "bad_arg"),
        ({"op": "percentile", "x": "N000", "q": "50"}, "bad_arg"),
        ({"op": "percentile", "q": False}, "bad_arg"),
        ({"op": "percentile", "q": "50"}, "bad_arg"),
        ({"op": "rank", "x": "N000", "rtt_ms": True}, "bad_arg"),
        ({"op": "rank", "x": "N000", "rtt_ms": "50"}, "bad_arg"),
    ])
    def test_category(self, server, query, category):
        answer = server.query(query)
        assert answer["error"]
        assert answer["category"] == category

    def test_integral_k_of_any_integer_type_is_served(self, server):
        plain = server.query({"op": "knn", "x": "N000", "k": 3})
        assert server.query({"op": "knn", "x": "N000", "k": np.int64(3)}) == plain
        assert server.query({"op": "path", "hops": ("N000", "N001")}) == (
            server.query({"op": "path", "hops": ["N000", "N001"]})
        )

    def test_a_number_of_any_numeric_type_is_served(self, server):
        half = server.query({"op": "percentile", "x": "N000", "q": 50.0})
        assert "error" not in half
        for q in (50, np.float64(50.0), np.int64(50)):
            assert server.query({"op": "percentile", "x": "N000", "q": q}) == half
        rank = server.query({"op": "rank", "x": "N000", "rtt_ms": 40.0})
        assert "error" not in rank
        assert server.query({"op": "rank", "x": "N000", "rtt_ms": 40}) == rank

    @pytest.mark.parametrize("workers", [1, 2])
    def test_non_object_queries_answer_bad_arg(self, server, workers):
        nodes = server.index.nodes
        good = {"op": "point", "x": nodes[0], "y": nodes[1]}
        bad = [[1, 2], "abc", None, 42, 2.5, True]
        answers = server.batch([good, *bad, good], workers=workers)
        assert len(answers) == len(bad) + 2
        assert answers[0] == answers[-1] == server.query(good)
        for answer in answers[1:-1]:
            assert answer["op"] is None and answer["error"]
            assert answer["category"] == "bad_arg"

    def test_non_object_query_counts_under_bad_arg(self, server):
        telemetry = ServeTelemetry(slow_ms=1e9, sample_every=0)
        answer = QueryServer(server.index, telemetry=telemetry).query([1, 2])
        assert answer["category"] == "bad_arg"
        assert telemetry.summary()["errors_by_category"] == {"bad_arg": 1}

    def test_internal_for_data_states_the_client_did_not_cause(self):
        # An isolated node (all-NaN row) is valid input against bad
        # data: that is the bucket an operator should page on.
        matrix, values = random_matrix(n=8, density=1.0, seed=2)
        values[3, :] = np.nan
        values[:, 3] = np.nan
        isolated = RttMatrix.from_array([f"N{i:03d}" for i in range(8)], values)
        server = QueryServer(MatrixIndex.build(isolated))
        answer = server.query({"op": "percentile", "x": "N003", "q": 50.0})
        assert answer["category"] == "internal"

    def test_batch_error_records_stay_in_input_order(self, server):
        nodes = server.index.nodes
        queries = []
        expect = []
        for i in range(24):
            if i % 4 == 1:
                queries.append({"op": "teleport", "i": i})
                expect.append("unknown_op")
            elif i % 4 == 3:
                queries.append({"op": "knn", "x": nodes[i % len(nodes)], "k": 0})
                expect.append("bad_arg")
            else:
                queries.append({
                    "op": "point",
                    "x": nodes[i % len(nodes)],
                    "y": nodes[(i + 1) % len(nodes)],
                })
                expect.append(None)
        for workers in (1, 3):
            answers = server.batch(queries, workers=workers)
            assert [a.get("category") for a in answers] == expect


def _exit_with(code):
    """A serve worker that exits before shipping its slice, injected at
    the fork pool's seam."""

    def wrap(work):
        def dying(job, next_task, send):
            os._exit(code)

        return dying

    return wrap


class TestDeadWorker:
    def test_dead_worker_raises_categorized_error_not_hang(
        self, server, monkeypatch
    ):
        worker_fault(monkeypatch, "serve worker 0", _exit_with(17))
        queries = mixed_queries(server.index.nodes, count=12)
        with pytest.raises(
            MeasurementError,
            match=r"serve worker 0 died without a result \(exit code 17\)",
        ):
            server.batch(queries, workers=3)

    def test_death_categorizes_as_shard_failure(self, server, monkeypatch):
        for w in (0, 1):
            worker_fault(monkeypatch, f"serve worker {w}", _exit_with(9))
        queries = mixed_queries(server.index.nodes, count=8)
        with pytest.raises(MeasurementError) as err:
            server.batch(queries, workers=2)
        assert categorize_failure(str(err.value)) == "shard"


class TestTelemetryMergeInvariance:
    """The acceptance criterion: merged telemetry is bit-identical for
    any batch() fan-out."""

    def constant_delta_timer(self):
        # 0.0, 0.5, 1.0, ... — every query lasts exactly 500 ms, so
        # histogram sums are exact floats and snapshots compare with ==.
        counter = itertools.count()
        return lambda: next(counter) * 0.5

    def run_batch(self, server, queries, workers):
        telemetry = ServeTelemetry(
            slow_ms=1e9, sample_every=5, timer=self.constant_delta_timer()
        )
        instrumented = QueryServer(server.index, telemetry=telemetry)
        answers = instrumented.batch(queries, workers=workers)
        return answers, telemetry

    def test_snapshots_identical_across_worker_counts(self, server):
        nodes = server.index.nodes
        queries = mixed_queries(nodes, count=30)
        queries[7] = {"op": "teleport"}              # one taxonomy error
        queries[19] = {"op": "knn", "x": nodes[0], "k": 0}

        baseline_answers, baseline = self.run_batch(server, queries, workers=1)
        for workers in (2, 4):
            answers, telemetry = self.run_batch(server, queries, workers=workers)
            assert answers == baseline_answers
            # Counter-exact and histogram-bucket-exact, not approximate.
            assert telemetry.registry.snapshot() == baseline.registry.snapshot()
            assert telemetry.summary() == baseline.summary()
            assert (
                sorted(r["args"]["sample_index"] for r in telemetry.spans.records())
                == sorted(r["args"]["sample_index"] for r in baseline.spans.records())
            )

    @pytest.mark.parametrize("batches", [2, 3])
    def test_span_sample_is_the_inline_one_for_every_successive_batch(
        self, server, batches
    ):
        # The sampler counts from the recorder's position, not from the
        # start of each batch: 150-query batches with 1-in-100 sampling
        # sample 0, 100, 200, ... whatever the fan-out.
        queries = mixed_queries(server.index.nodes, count=150)

        def sampled(workers):
            telemetry = ServeTelemetry(
                slow_ms=1e9, sample_every=100, timer=self.constant_delta_timer()
            )
            instrumented = QueryServer(server.index, telemetry=telemetry)
            for _ in range(batches):
                instrumented.batch(queries, workers=workers)
            return sorted(
                r["args"]["sample_index"] for r in telemetry.spans.records()
            )

        inline = sampled(workers=1)
        assert inline == list(range(0, 150 * batches, 100))
        for workers in (2, 3):
            assert sampled(workers) == inline  # same set, hence same span count

    def test_access_log_merge_counts_match_inline(self, server):
        queries = [{"op": "teleport", "i": i} for i in range(12)]
        _, inline = self.run_batch(server, queries, workers=1)
        _, forked = self.run_batch(server, queries, workers=3)
        assert forked.bus.emitted == inline.bus.emitted == 12
        assert len(forked.access_log()) == len(inline.access_log())


class TestForkInvariance:
    def test_results_identical_across_worker_counts(self, server):
        queries = mixed_queries(server.index.nodes, count=60)
        inline = server.batch(queries, workers=1)
        assert len(inline) == len(queries)
        for workers in (2, 4):
            forked = server.batch(queries, workers=workers)
            assert forked == inline

    def test_more_workers_than_queries(self, server):
        nodes = server.index.nodes
        queries = [{"op": "point", "x": nodes[0], "y": nodes[1]}]
        assert server.batch(queries, workers=8) == server.batch(queries)

    def test_empty_batch(self, server):
        assert server.batch([], workers=4) == []


class TestMmapBitIdentity:
    def test_mmap_and_eager_answers_identical(self, tmp_path):
        matrix, _ = random_matrix(n=14, density=0.7, seed=33)
        path = tmp_path / "ds.npz"
        CampaignDataset(matrix=matrix).save(path)

        eager = CampaignDataset.load(path)
        mapped = CampaignDataset.load(path, mmap=True)
        assert isinstance(mapped.matrix.matrix.base, np.memmap) or isinstance(
            mapped.matrix.matrix, np.memmap
        )
        queries = mixed_queries(list(matrix.nodes), count=50)
        eager_answers = QueryServer(MatrixIndex.build(eager)).batch(queries)
        mapped_answers = QueryServer(MatrixIndex.build(mapped)).batch(queries)
        assert eager_answers == mapped_answers

    def test_mmap_index_forked_batch(self, tmp_path):
        matrix, _ = random_matrix(n=10, density=0.9, seed=8)
        path = tmp_path / "ds.npz"
        CampaignDataset(matrix=matrix).save(path)
        mapped = CampaignDataset.load(path, mmap=True)
        server = QueryServer(MatrixIndex.build(mapped))
        queries = mixed_queries(list(matrix.nodes), count=30)
        assert server.batch(queries, workers=3) == server.batch(queries)
