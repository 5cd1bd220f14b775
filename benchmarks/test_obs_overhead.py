"""Null-observability overhead guard (``pytest benchmarks -m benchguard``).

Campaigns always run through the observability call sites — span
context managers, counter increments, bus emits — wired to null
sinks unless :meth:`enable_observability` swapped in live ones. The
sinks are ``__slots__`` singletons designed to cost a method dispatch
and nothing else, so the *sum* of every null call a campaign makes must
stay lost in the noise of the campaign itself.

The guard measures that sum directly instead of diffing two campaign
wall times (which would drown a 2% effect in scheduler noise): it
counts the call sites an instrumented run actually hits, times the
null ops in a tight loop, and asserts the product stays under 2% of
the real campaign's wall time.
"""

import time

import pytest

from _config import scaled
from repro.core.parallel import ParallelCampaign
from repro.core.sampling import SamplePolicy
from repro.obs import NULL_EVENTS, NULL_METRICS, NULL_SPANS
from repro.testbeds.livetor import LiveTorTestbed

#: Null observability must cost less than this fraction of campaign wall.
OVERHEAD_CEILING = 0.02


def _best_of(rounds: int, run) -> float:
    """Best-of-N wall time: the minimum is the least noisy estimator."""
    return min(run() for _ in range(rounds))


def _null_costs_s() -> tuple[float, float]:
    """Seconds per (unguarded null call, ``enabled``-flag check)."""
    n = 200_000

    def time_loop(op) -> float:
        start = time.perf_counter()
        for _ in range(n):
            op()
        return time.perf_counter() - start

    def null_span():
        with NULL_SPANS.span("pair", x="A", y="B"):
            pass

    call_costs = [
        _best_of(3, lambda: time_loop(null_span)),
        _best_of(3, lambda: time_loop(lambda: NULL_METRICS.inc("c"))),
        _best_of(3, lambda: time_loop(lambda: NULL_EVENTS.info("c", "e", x=1))),
    ]

    def enabled_check():
        if NULL_METRICS.enabled:
            raise AssertionError

    check_cost = _best_of(3, lambda: time_loop(enabled_check))
    return max(call_costs) / n, check_cost / n


@pytest.mark.benchguard
def test_null_observability_overhead_guard(report):
    """Every null observability call a campaign makes must sum to <2%."""
    n_relays = scaled(8, minimum=6)
    policy = SamplePolicy(samples=scaled(30, minimum=10), interval_ms=3.0)

    def build():
        testbed = LiveTorTestbed.build(
            seed=7, n_relays=scaled(60, minimum=20)
        )
        rng = testbed.streams.get("bench.obs")
        relays = testbed.random_relays(n_relays, rng)
        return testbed, relays

    # Count the call sites one real campaign hits, from a live run.
    # Hot-path metric and bus sites sit behind ``enabled`` checks, so
    # with null sinks they cost one attribute read each (counter values
    # and the bus's emit count approximate those check counts: each site
    # bumps by 1 / emits once). Span sites and a handful of cold metric
    # sites call the null singleton unguarded: a begin and an end per
    # span plus the unguarded counters.
    testbed, relays = build()
    registry = testbed.measurement.enable_observability()
    ParallelCampaign(
        testbed.measurement,
        relays,
        policy=policy,
        isolation=testbed.task_isolation(),
    ).run()
    host = testbed.measurement
    counters = registry.snapshot()["counters"]
    unguarded_calls = 2 * len(host.spans) + sum(
        counters.get(name, 0)
        for name in (
            "tor.circuits_failed",
            "tor.streams_attached",
            "tor.stream_failures",
        )
    )
    guarded_checks = sum(counters.values()) + host.events.emitted
    # Headroom for sites this model misses (gauges, histograms).
    unguarded_calls *= 2
    guarded_checks *= 2

    def time_campaign() -> float:
        testbed, relays = build()
        start = time.perf_counter()
        ParallelCampaign(
            testbed.measurement,
            relays,
            policy=policy,
            isolation=testbed.task_isolation(),
        ).run()
        return time.perf_counter() - start

    campaign_s = _best_of(2, time_campaign)
    per_call_s, per_check_s = _null_costs_s()
    null_s = per_call_s * unguarded_calls + per_check_s * guarded_checks
    fraction = null_s / campaign_s
    report(
        f"null observability: {unguarded_calls} calls x "
        f"{per_call_s * 1e9:.0f} ns + {guarded_checks} checks x "
        f"{per_check_s * 1e9:.0f} ns = {null_s * 1000:.2f} ms "
        f"against a {campaign_s * 1000:.0f} ms campaign "
        f"({fraction:.2%} of wall)"
    )
    assert fraction < OVERHEAD_CEILING


@pytest.mark.benchguard
def test_null_event_bus_overhead_guard(report):
    """Every ``NULL_EVENTS`` call a campaign makes must sum to <2%.

    The live-telemetry emit points (engine batch ticks, relay
    saturation, probe rounds, pair lifecycle) default to the
    :data:`NULL_EVENTS` singleton. Same methodology as the registry
    guard: count the emits one live run actually produces, time the
    null ops in a tight loop, assert the product stays lost in the
    campaign's own wall time.
    """
    n_relays = scaled(8, minimum=6)
    policy = SamplePolicy(samples=scaled(30, minimum=10), interval_ms=3.0)

    def build():
        testbed = LiveTorTestbed.build(
            seed=7, n_relays=scaled(60, minimum=20)
        )
        rng = testbed.streams.get("bench.obs")
        relays = testbed.random_relays(n_relays, rng)
        return testbed, relays

    # Count the emit sites one real campaign hits, from a live run.
    testbed, relays = build()
    bus = testbed.measurement.enable_events()
    ParallelCampaign(
        testbed.measurement,
        relays,
        policy=policy,
        isolation=testbed.task_isolation(),
    ).run()
    emitted = bus.emitted
    # Guarded sites (``events.enabled`` branches in the engine, relay,
    # and budget hot paths) fire far more often than emits — the batch
    # tick checks once per 4096 simulator events, saturation once per
    # cell backlog check. Bound them generously by the emit count plus
    # the batch ticks one run performs.
    batch_ticks = testbed.sim.events_processed // testbed.sim.BATCH_EVENTS + 1

    n = 200_000

    def time_loop(op) -> float:
        start = time.perf_counter()
        for _ in range(n):
            op()
        return time.perf_counter() - start

    per_emit_s = _best_of(
        3, lambda: time_loop(lambda: NULL_EVENTS.info("campaign", "pair", x=1))
    ) / n

    def enabled_check():
        if NULL_EVENTS.enabled:
            raise AssertionError

    per_check_s = _best_of(3, lambda: time_loop(enabled_check)) / n

    def time_campaign() -> float:
        testbed, relays = build()
        start = time.perf_counter()
        ParallelCampaign(
            testbed.measurement,
            relays,
            policy=policy,
            isolation=testbed.task_isolation(),
        ).run()
        return time.perf_counter() - start

    campaign_s = _best_of(2, time_campaign)
    # Headroom x2 for emit sites this model misses.
    null_s = 2 * (per_emit_s * emitted + per_check_s * (emitted + batch_ticks))
    fraction = null_s / campaign_s
    report(
        f"null events: {emitted} emits x {per_emit_s * 1e9:.0f} ns + "
        f"{emitted + batch_ticks} checks x {per_check_s * 1e9:.0f} ns = "
        f"{null_s * 1000:.2f} ms against a {campaign_s * 1000:.0f} ms "
        f"campaign ({fraction:.2%} of wall)"
    )
    assert fraction < OVERHEAD_CEILING
