"""Serve-telemetry guards (``pytest benchmarks -m benchguard``).

Two overhead budgets, mirroring the null-observability discipline of
``test_obs_overhead.py``, each an absolute cost per query:

* **Disabled path < 0.4 µs** — an un-instrumented :class:`QueryServer`
  pays exactly one ``telemetry.enabled`` attribute check per query.
  Modeled: per-check cost from a tight loop, doubled for the branch the
  model misses.
* **Enabled path < 2.5 µs** — live telemetry (two timer reads, one
  µs-histogram observe, the sampling check). Also modeled: the full
  instrumented call sequence (``timer(); timer(); record(op, ...)``) is
  timed in a tight loop over the real op mix — sampling cadence,
  slow-path branch and per-op dict lookups included — then doubled for
  headroom. A direct wall diff cannot resolve either effect:
  plain-vs-plain control runs on shared CI hardware swing far more
  than the budget being enforced.

The budgets bound the telemetry's own cost, not its share of the batch
wall: a share tightens every time a query gets cheaper. As 2% / 10% of
a ~28 µs query they allowed 0.56 / 2.8 µs; the same telemetry
(~60 ns / ~0.6 µs) models as 1.6% / 16% of the ~7.5 µs query this mix
(a quarter percentile, a quarter via) costs since PR 14. The values sit
under what those shares allowed; the share is still reported.

A third guard holds the instrumented query path to its latency SLOs,
read off the telemetry's own histograms (see ``SERVE_CEILINGS_MS``).
"""

import time

import numpy as np
import pytest

from _config import scaled
from repro.core.dataset import RttMatrix
from repro.serve import MatrixIndex, QueryServer, ServeTelemetry
from repro.serve.telemetry import NULL_SERVE_TELEMETRY

#: Disabled-path ceiling: the modeled cost of one enabled-check per
#: query, in microseconds.
DISABLED_CEILING_US = 0.4
#: Enabled-path ceiling: the modeled cost of one timer-timer-record
#: sequence per query on the mixed workload, in microseconds.
ENABLED_CEILING_US = 2.5
#: Per-op latency ceilings (ms) through the full instrumented query path
#: (dict dispatch + telemetry recording), measured by the telemetry's
#: own µs-bucketed histograms — the SLOs a deployment would page on,
#: enforced offline. Calibration: on this machine class the path answers
#: point queries at p50 ~2 µs / p99 ~7 µs and k-NN (k=10) at p50 ~10 µs
#: / p99 ~43 µs; ceilings sit at ~15-30x so loaded-CI jitter passes
#: while an accidental per-query allocation storm (a 100x miss) cannot.
#: Row percentiles (p50 ~1.7 µs: two reads and a lerp off the presorted
#: row) and via detours (k=3, p50 ~19 µs: one O(n) pass) are held to the
#: same rule — a 44 µs ``np.percentile`` call per query sat unnoticed
#: because only point and k-NN were timed; its ceiling sits at the low
#: end of the range so that path can never pass again.
SERVE_CEILINGS_MS = {
    ("point", 0.5): 0.05,
    ("point", 0.99): 0.25,
    ("knn", 0.5): 0.15,
    ("knn", 0.99): 0.60,
    ("percentile", 0.5): 0.03,
    ("via", 0.5): 0.50,
}
#: Detours asked for per ``via`` query in the latency guard.
SERVE_VIA_K = 3


def _best_of(rounds: int, run) -> float:
    """Best-of-N wall time: the minimum is the least noisy estimator."""
    return min(run() for _ in range(rounds))


def _mixed_setup(n_relays: int, n_queries: int):
    """A fullnet-scale index plus a production-shaped query mix."""
    nodes = [f"R{i:04d}" for i in range(n_relays)]
    rng = np.random.default_rng(53)
    iu, ju = np.triu_indices(n_relays, k=1)
    rtts = rng.uniform(2.0, 400.0, size=iu.size)
    rtts[rng.random(iu.size) < 0.1] = np.nan
    values = np.zeros((n_relays, n_relays))
    values[iu, ju] = rtts
    values[ju, iu] = rtts
    index = MatrixIndex.build(RttMatrix.from_array(nodes, values, copy=False))
    queries = []
    pair_ids = rng.integers(0, n_relays, size=(n_queries, 2))
    for n, (i, j) in enumerate(pair_ids):
        a, b = nodes[int(i)], nodes[int(j)]
        kind = n % 4
        if kind == 0:
            queries.append({"op": "point", "x": a, "y": b})
        elif kind == 1:
            queries.append({"op": "knn", "x": a, "k": 10})
        elif kind == 2:
            queries.append({"op": "percentile", "x": a, "q": 90.0})
        elif a != b:
            queries.append({"op": "via", "x": a, "y": b})
        else:
            queries.append({"op": "point", "x": a, "y": b})
    return index, queries


def _time_queries(server: QueryServer, queries) -> float:
    query = server.query
    start = time.perf_counter()
    for q in queries:
        query(q)
    return time.perf_counter() - start


@pytest.mark.benchguard
def test_disabled_telemetry_overhead_guard(report):
    """The null-telemetry check must model under 0.4 µs per query."""
    n_relays = scaled(1000, minimum=400)
    n_queries = scaled(20_000, minimum=4_000)
    index, queries = _mixed_setup(n_relays, n_queries)
    server = QueryServer(index)

    wall_s = _best_of(3, lambda: _time_queries(server, queries))

    # The entire disabled-path cost: one attribute check per query.
    n = 200_000
    telemetry = NULL_SERVE_TELEMETRY

    def enabled_check():
        if telemetry.enabled:
            raise AssertionError

    def time_checks() -> float:
        start = time.perf_counter()
        for _ in range(n):
            enabled_check()
        return time.perf_counter() - start

    per_check_s = _best_of(3, time_checks) / n
    # Headroom x2 for the branch this model misses.
    per_query_us = 2 * per_check_s * 1e6
    null_s = per_query_us * 1e-6 * len(queries)
    report(
        f"disabled telemetry: {len(queries)} checks x "
        f"{per_check_s * 1e9:.0f} ns = {null_s * 1000:.2f} ms against a "
        f"{wall_s * 1000:.0f} ms batch ({null_s / wall_s:.2%} of wall); "
        f"modeled {per_query_us:.2f} µs per query, "
        f"ceiling {DISABLED_CEILING_US} µs"
    )
    assert per_query_us < DISABLED_CEILING_US


@pytest.mark.benchguard
def test_enabled_telemetry_overhead_guard(report):
    """Live telemetry must model under 2.5 µs per mixed-workload query."""
    n_relays = scaled(1000, minimum=400)
    n_queries = scaled(20_000, minimum=4_000)
    index, queries = _mixed_setup(n_relays, n_queries)
    plain = QueryServer(index)

    wall_s = _best_of(3, lambda: _time_queries(plain, queries))

    # The entire enabled-path addition per query: two timer reads plus
    # one record() — timed over the real op mix so the per-op histogram
    # lookups, the slow-path branch, and the 1-in-100 span sampling all
    # pay their true share. slow_ms is high enough that the access-log
    # ring stays cold (the hot path under test is record(), not event
    # emission — errors and slow queries are the rare path by design).
    telemetry = ServeTelemetry(slow_ms=1_000.0, sample_every=100)
    ops = [q["op"] for q in queries]
    timer = telemetry.timer
    record = telemetry.record

    def time_telemetry() -> float:
        start = time.perf_counter()
        for op in ops:
            t0 = timer()
            t1 = timer()
            record(op, t0, t1)
        return time.perf_counter() - start

    per_query_s = _best_of(5, time_telemetry) / len(queries)
    # Headroom x2 for the wrapper branches this model misses.
    per_query_us = 2 * per_query_s * 1e6
    live_s = per_query_us * 1e-6 * len(queries)
    report(
        f"enabled telemetry: {len(queries)} queries x "
        f"{per_query_s * 1e9:.0f} ns = {live_s * 1000:.1f} ms against a "
        f"{wall_s * 1000:.0f} ms batch ({live_s / wall_s:.2%} of wall); "
        f"modeled {per_query_us:.2f} µs per query, "
        f"ceiling {ENABLED_CEILING_US} µs"
    )
    assert per_query_us < ENABLED_CEILING_US


@pytest.mark.benchguard
def test_instrumented_query_latency_guard(report):
    """Per-op p50/p99 through ``QueryServer.query`` with live telemetry
    must sit under ``SERVE_CEILINGS_MS``: 5 point : 1 k-NN (k=10) :
    ½ row-percentile : ½ via (k=3) queries over a 1,000-relay index,
    the quantiles exactly the numbers a production scrape would alert on."""
    n_relays = scaled(1000, minimum=400)
    n_point = scaled(50_000, minimum=10_000)
    n_knn = n_point // 5
    index, _ = _mixed_setup(n_relays, 0)
    nodes = index.nodes
    rng = np.random.default_rng(47)
    queries = [
        {"op": "point", "x": nodes[int(i)], "y": nodes[int(j)]}
        for i, j in rng.integers(0, n_relays, size=(n_point, 2))
    ]
    queries += [
        {"op": "knn", "x": nodes[int(i)], "k": 10}
        for i in rng.integers(0, n_relays, size=n_knn)
    ]
    queries += [
        {"op": "percentile", "x": nodes[int(i)], "q": float(q)}
        for i, q in zip(
            rng.integers(0, n_relays, size=n_knn // 2),
            rng.uniform(1.0, 99.0, size=n_knn // 2),
        )
    ]
    via_first = rng.integers(0, n_relays, size=n_knn // 2)
    # An offset in [1, n_relays) keeps the two endpoints distinct.
    via_second = (via_first + rng.integers(1, n_relays, size=n_knn // 2)) % n_relays
    queries += [
        {"op": "via", "x": nodes[int(i)], "y": nodes[int(j)], "k": SERVE_VIA_K}
        for i, j in zip(via_first, via_second)
    ]
    telemetry = ServeTelemetry(slow_ms=1.0, sample_every=0)
    wall_s = _time_queries(QueryServer(index, telemetry=telemetry), queries)

    over = []
    for (op, q), ceiling_ms in SERVE_CEILINGS_MS.items():
        value_ms = telemetry.registry.histogram(f"serve.latency_ms.{op}").quantile(q)
        report(f"{op} p{q * 100:g}: {value_ms * 1000:.1f} µs (SLO {ceiling_ms * 1000:g} µs)")
        if value_ms > ceiling_ms:
            over.append((op, q, value_ms))
    report(f"{len(queries)} instrumented queries in {wall_s:.2f} s")
    assert not over, "the instrumented query path is missing its latency contract"
