"""Contract: every measured pair is Eq. 4 of its own three circuits.

Ting's estimator (PAPER.md step 5, DESIGN §2) is
``R(x, y) = R_Cxy − ½·R_Cx − ½·R_Cy``, each ``R`` a circuit's
min-filtered RTT, the result clamped at zero. The other contract files
compare two runs that share the estimator (flown against cells, forked
against inline), so a wrong estimator passes them all. This file states
it: over small generated campaigns, every measured provenance row's
``rtt_ms`` is the clamped Eq. 4 of the row's own ``cxy_ms``,
``leg_x_ms`` and ``leg_y_ms`` — the same float operations ``PairTask``
makes, compared with ``==`` —, each leg is the one measured for that
relay, and the matrix entry is the row's ``rtt_ms``. And the filter is a
minimum: on isolated tasks, where a larger sample cap only adds samples
after the ones a smaller cap took, no circuit's estimate rises with it.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.core.campaign import AllPairsCampaign
from repro.core.parallel import ParallelCampaign
from repro.core.sampling import SamplePolicy
from repro.core.ting import TingMeasurer
from repro.testbeds.livetor import LiveTorTestbed
from repro.tor.flight import ROUND_WALK_MIN


def _campaign(seed, n_relays, measured, samples, pingpong, engine, service_queues=False):
    """Run one small campaign; return its report and provenance log."""
    testbed = LiveTorTestbed.build(seed=seed, n_relays=n_relays, service_queues=service_queues)
    host = testbed.measurement
    host.enable_observability()
    relays = testbed.random_relays(measured, testbed.streams.get("contract.eq4"))
    policy = SamplePolicy(samples=samples, interval_ms=None if pingpong else 2.0)
    if engine in ("windowed", "isolated"):
        isolation = testbed.task_isolation() if engine == "isolated" else None
        report = ParallelCampaign(host, relays, policy=policy, isolation=isolation).run()
    else:
        measurer = TingMeasurer(host, policy=policy, reuse_circuits=engine == "reuse")
        report = AllPairsCampaign(measurer, relays).run()
    return report, host.provenance


@settings(max_examples=15, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    n_relays=st.integers(min_value=6, max_value=14),
    measured=st.integers(min_value=3, max_value=5),
    samples=st.integers(min_value=1, max_value=6),
    pingpong=st.booleans(),
    engine=st.sampled_from(["sequential", "reuse", "windowed"]),
)
def test_every_measured_row_is_eq4_of_its_own_circuits(
    seed, n_relays, measured, samples, pingpong, engine
):
    report, provenance = _campaign(seed, n_relays, measured, samples, pingpong, engine)
    rows = provenance.by_status("measured")
    assert rows and len(rows) == report.pairs_measured
    legs = {}
    for leg in provenance.legs():
        legs.setdefault(leg.relay, set()).add(leg.rtt_ms)
    for row in rows:
        eq4 = row.cxy_ms - row.leg_x_ms / 2.0 - row.leg_y_ms / 2.0
        assert row.rtt_ms == max(0.0, eq4)
        assert row.leg_x_ms in legs[row.x] and row.leg_y_ms in legs[row.y]
        assert report.matrix.get(row.x, row.y) == row.rtt_ms
        assert report.matrix.get(row.y, row.x) == row.rtt_ms


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    n_relays=st.integers(min_value=6, max_value=12),
    service_queues=st.booleans(),
    cap=st.integers(min_value=1, max_value=2 * ROUND_WALK_MIN),
    more=st.integers(min_value=1, max_value=40),
)
def test_the_min_filter_never_rises_with_the_sample_cap(
    seed, n_relays, service_queues, cap, more
):
    """Ping-pong campaigns of isolated tasks at ``cap`` and ``cap + more``
    samples a circuit: every estimate of the larger is at most the smaller's."""
    runs = []
    for samples in (cap, cap + more):
        _, provenance = _campaign(
            seed, n_relays, 4, samples, True, "isolated", service_queues
        )
        rows = provenance.by_status("measured")
        runs.append({(r.x, r.y): (r.cxy_ms, r.leg_x_ms, r.leg_y_ms) for r in rows})
    fewer, larger = runs
    assert fewer and fewer.keys() == larger.keys()
    for pair, estimates in larger.items():
        assert all(a <= b for a, b in zip(estimates, fewer[pair])), pair
