"""Serve-telemetry overhead guards (``pytest benchmarks -m benchguard``).

Two budgets, mirroring the null-observability discipline of
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
