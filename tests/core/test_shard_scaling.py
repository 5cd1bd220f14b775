"""The sharded engine's bookkeeping is sized by the task, not the network.

What an isolated task and a stolen chunk cost beyond the measurement
itself must depend on the relays they touch, never on how many relays
the testbed or the campaign holds. The guard counts work exactly (no
wall clock): the same pair plan at 40 and at 400 relays resets the same
relays per task and ships chunk containers of the same size. The
equivalence test pins that the chunk-sized container still lists its
entries in the order the campaign-wide matrix it replaced would have.
"""

import functools

from hypothesis import given, settings, strategies as st

from repro.core import parallel
from repro.core.dataset import RttMatrix
from repro.core.parallel import CampaignReport, ParallelCampaign
from repro.core.sampling import SamplePolicy
from repro.core.shard import ShardedCampaign
from repro.testbeds.livetor import LiveTorTestbed
from repro.tor.client import OnionProxy
from repro.tor.relay import Relay

POLICY = SamplePolicy(samples=3, interval_ms=2.0)
STEAL_CHUNK_PAIRS = 4
#: 30 distinct pairs by relay index, all inside the first 40 relays.
PLAN = [(i, (i + 11) % 40) for i in range(30)]


def _bookkeeping(n_relays: int, monkeypatch) -> dict[str, list[int]]:
    """Run PLAN over an ``n_relays`` network; count the per-task resets
    and the size of every result container the campaign allocates."""
    factory = functools.partial(LiveTorTestbed.build, seed=21, n_relays=n_relays)
    fps = [relay.fingerprint for relay in factory().relays]
    seen: dict[str, list[int]] = {"disconnects": [], "containers": []}
    calls = [0]

    def counted(real):
        def wrapper(self):
            calls[0] += 1
            real(self)

        return wrapper

    real_reset = LiveTorTestbed.reset_connections

    def reset(testbed):
        before = calls[0]
        real_reset(testbed)
        seen["disconnects"].append(calls[0] - before)

    class SizedMatrix(RttMatrix):
        def __init__(self, nodes):
            seen["containers"].append(len(nodes))
            super().__init__(nodes)

    with monkeypatch.context() as patch:
        for cls in (Relay, OnionProxy):
            patch.setattr(
                cls, "disconnect_or_conns", counted(cls.disconnect_or_conns)
            )
        patch.setattr(LiveTorTestbed, "reset_connections", reset)
        patch.setattr(parallel, "RttMatrix", SizedMatrix)
        report = ShardedCampaign(
            factory,
            fps,
            policy=POLICY,
            workers=2,
            pairs=[(fps[a], fps[b]) for a, b in PLAN],
            steal_chunk_pairs=STEAL_CHUNK_PAIRS,
            force_inline=True,
        ).run()
    assert report.pairs_measured == len(PLAN) and not report.failures
    # One reset per task, at its tail, plus one (of nothing) as each of
    # the two workers of the two rounds takes the world over.
    assert len(seen["disconnects"]) == report.legs_measured + len(PLAN) + 4
    return seen


class TestScalingGuard:
    def test_per_task_and_per_chunk_work_is_flat_in_network_size(
        self, monkeypatch
    ):
        small = _bookkeeping(40, monkeypatch)
        large = _bookkeeping(400, monkeypatch)
        assert small == large
        # Proxy, w and z, plus the relays one circuit can touch.
        assert max(large["disconnects"]) <= 3 + 4
        # The leg phase writes no entry; a chunk names at most two
        # relays per pair.
        assert large["containers"][0] == 0
        assert max(large["containers"]) <= 2 * STEAL_CHUNK_PAIRS


N_RELAYS = 9
_relay = st.integers(min_value=0, max_value=N_RELAYS - 1)
_pair = st.tuples(_relay, _relay).filter(lambda pair: pair[0] != pair[1])


def _campaign() -> tuple[ParallelCampaign, list[str]]:
    """An isolated campaign whose node order is not the testbed's."""
    testbed = LiveTorTestbed.build(seed=4, n_relays=N_RELAYS)
    descriptors = testbed.descriptors()[::-2] + testbed.descriptors()[1::2]
    campaign = ParallelCampaign(
        testbed.measurement,
        descriptors,
        policy=POLICY,
        pairs=[],
        legs=[],
        isolation=testbed.task_isolation(),
    )
    return campaign, [relay.fingerprint for relay in testbed.relays]


def _campaign_wide_chunk(campaign: ParallelCampaign, pairs) -> CampaignReport:
    """``run_pairs`` as it was: the chunk written into a matrix over
    every campaign relay — what ``run()`` does for an explicit pair
    scope, with the legs the campaign already knows carried over."""
    campaign.pairs, campaign.legs = list(pairs), None
    return campaign.run()


class TestChunkContainerEquivalence:
    @settings(max_examples=15, deadline=None)
    @given(chunks=st.lists(st.lists(_pair, min_size=1, max_size=5, unique_by=frozenset), min_size=1, max_size=3))
    def test_entries_match_campaign_wide_matrix_in_order(self, chunks):
        sized, fps = _campaign()
        wide, _ = _campaign()
        for chunk in chunks:
            pairs = [(fps[a], fps[b]) for a, b in chunk]
            got = sized.run_pairs(pairs)
            want = _campaign_wide_chunk(wide, pairs)
            entries = list(got.matrix.measured_pairs())
            assert entries == list(want.matrix.measured_pairs())
            assert entries, "the chunk measured something"
            assert got.failures == want.failures
            assert got.legs_measured == want.legs_measured
            assert got.matrix.num_measured == want.matrix.num_measured
            assert len(got.matrix.nodes) == len({fp for p in pairs for fp in p})
        assert sized.leg_estimates == wide.leg_estimates


class TestBuildAttribution:
    def test_build_s_is_the_factory_share_of_wall_s(self):
        factory = functools.partial(LiveTorTestbed.build, seed=21, n_relays=40)
        fps = [relay.fingerprint for relay in factory().relays][:4]
        report = ShardedCampaign(
            factory, fps, policy=POLICY, workers=1, force_inline=True
        ).run()
        assert 0.0 < report.build_s < report.wall_s
