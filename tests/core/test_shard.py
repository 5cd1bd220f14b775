"""Sharded campaigns: shard-count invariance and merge semantics.

The whole point of :class:`~repro.core.shard.ShardedCampaign` is that
splitting the pair list across worker processes is *invisible* in the
data: the merged matrix must be bit-for-bit identical whatever the
worker count, and identical to an unsharded isolated campaign with the
same seed. These tests run every worker layout inline
(``force_inline=True`` emulates the work-stealing loop with a
deterministic chunk deal) so the comparison is exact and CI-stable; the
forked work-stealing path itself is exercised by
``tests/core/test_shard_steal.py``, ``bench/``'s ``pipeline_fullnet``
workload, and the benchmarks.
"""

import functools

import numpy as np
import pytest

from repro.core.parallel import ParallelCampaign
from repro.core.sampling import SamplePolicy
from repro.core.shard import LEG_PHASE, ShardedCampaign, ShardResult
from repro.testbeds.livetor import LiveTorTestbed
from repro.util.errors import MeasurementError

SEED = 3
N_RELAYS = 14
POLICY = SamplePolicy(samples=3, interval_ms=2.0)
FACTORY = functools.partial(LiveTorTestbed.build, seed=SEED, n_relays=N_RELAYS)


@pytest.fixture(scope="module")
def fingerprints():
    testbed = FACTORY()
    descriptors = testbed.random_relays(5, testbed.streams.get("shard.sel"))
    return [d.fingerprint for d in descriptors]


def _run_sharded(fingerprints, workers, **kwargs):
    # ``force_inline`` emulates the stealing worker loop in-process
    # regardless of ``workers``, so the invariance comparison is free of
    # fork/platform effects: the dispatch is what is under test, not the
    # process pool.
    campaign = ShardedCampaign(
        FACTORY,
        fingerprints,
        policy=POLICY,
        workers=workers,
        force_inline=True,
        steal_chunk_pairs=kwargs.pop("steal_chunk_pairs", 3),
        **kwargs,
    )
    return campaign.run()


class TestShardInvariance:
    def test_matrix_invariant_to_worker_count(self, fingerprints):
        arrays = {}
        for workers in (1, 2, 4):
            report = _run_sharded(fingerprints, workers)
            assert report.matrix.is_complete
            assert report.failures == []
            arrays[workers] = report.matrix.as_array()
        assert np.array_equal(arrays[1], arrays[2])
        assert np.array_equal(arrays[1], arrays[4])

    def test_matches_unsharded_isolated_campaign(self, fingerprints):
        sharded = _run_sharded(fingerprints, 4)

        testbed = FACTORY()
        by_fp = {r.fingerprint: r for r in testbed.relays}
        descriptors = [by_fp[fp].descriptor() for fp in fingerprints]
        unsharded = ParallelCampaign(
            testbed.measurement,
            descriptors,
            policy=POLICY,
            isolation=testbed.task_isolation(),
        ).run()
        assert np.array_equal(
            sharded.matrix.as_array(), unsharded.matrix.as_array()
        )

    def test_matrix_invariant_to_chunk_size(self, fingerprints):
        baseline = _run_sharded(fingerprints, 2).matrix.as_array()
        for chunk in (1, 5, 100):
            report = _run_sharded(
                fingerprints, 2, steal_chunk_pairs=chunk
            )
            assert np.array_equal(report.matrix.as_array(), baseline)

    def test_isolated_task_results_ignore_task_order(self, fingerprints):
        # The property the invariance rests on: a pair measured alone
        # equals the same pair measured after the full campaign ran.
        testbed = FACTORY()
        by_fp = {r.fingerprint: r for r in testbed.relays}
        descriptors = [by_fp[fp].descriptor() for fp in fingerprints]
        full = ParallelCampaign(
            testbed.measurement,
            descriptors,
            policy=POLICY,
            isolation=testbed.task_isolation(),
        ).run()

        alone_testbed = FACTORY()
        by_fp = {r.fingerprint: r for r in alone_testbed.relays}
        pair = (fingerprints[0], fingerprints[-1])
        alone = ParallelCampaign(
            alone_testbed.measurement,
            [by_fp[fp].descriptor() for fp in fingerprints],
            policy=POLICY,
            pairs=[pair],
            isolation=alone_testbed.task_isolation(),
        ).run()
        assert alone.matrix.get(*pair) == full.matrix.get(*pair)


class TestLegPhase:
    def test_leg_builds_equal_n_for_every_worker_count(self, fingerprints):
        # The duplicated-work regression: v1 rebuilt legs per worker, so
        # total leg builds scaled with W. The leg phase pins it at n.
        n = len(fingerprints)
        for workers in (1, 2, 4):
            report = _run_sharded(fingerprints, workers)
            assert report.legs_measured == n
            assert report.leg_phase is not None
            assert report.leg_phase.shard_index == LEG_PHASE
            assert report.leg_phase.legs_measured == n
            assert all(s.legs_measured == 0 for s in report.shards)


class TestChunkPartitioning:
    def test_chunks_cover_all_pairs_exactly_once(self, fingerprints):
        campaign = ShardedCampaign(
            FACTORY, fingerprints, policy=POLICY, workers=3,
            steal_chunk_pairs=4,
        )
        chunks = campaign.pair_chunks()
        flattened = [pair for _, chunk in chunks for pair in chunk]
        assert flattened == campaign.pairs
        assert [cid for cid, _ in chunks] == list(range(len(chunks)))
        assert all(len(chunk) <= 4 for _, chunk in chunks)

    def test_more_workers_than_chunks(self, fingerprints):
        pairs = [(fingerprints[0], fingerprints[1])]
        campaign = ShardedCampaign(
            FACTORY, fingerprints, policy=POLICY, workers=8, pairs=pairs
        )
        assert campaign.pair_chunks() == [(0, pairs)]
        report = campaign.run()
        # One chunk cannot feed eight workers: the run collapses inline.
        assert len(report.shards) == 1
        assert report.pairs_measured == 1

    def test_duplicate_entries_across_shards_rejected(self, fingerprints):
        campaign = ShardedCampaign(
            FACTORY, fingerprints, policy=POLICY, workers=2
        )
        entry = (fingerprints[0], fingerprints[1], 50.0)
        clashing = [
            ShardResult(
                shard_index=i,
                entries=[entry],
                failures=[],
                pairs_attempted=1,
                events_processed=0,
                cells_processed=0,
                makespan_ms=0.0,
                wall_s=0.0,
            )
            for i in range(2)
        ]
        with pytest.raises(MeasurementError):
            campaign._merge(clashing)

    def test_clamp_to_cpus_collapses_to_inline_on_one_core(
        self, fingerprints, monkeypatch
    ):
        import repro.core.shard as shard_mod

        monkeypatch.setattr(shard_mod, "_schedulable_cpus", lambda: 1)
        real_pool = shard_mod.run_pool

        def inline_only(*args, inline=False, **kwargs):
            assert inline, "clamped run must not fork"
            return real_pool(*args, inline=inline, **kwargs)

        monkeypatch.setattr(shard_mod, "run_pool", inline_only)
        campaign = ShardedCampaign(
            FACTORY, fingerprints, policy=POLICY, workers=4,
            clamp_to_cpus=True, steal_chunk_pairs=1,
        )
        report = campaign.run()
        # Inline emulation keeps the full logical worker fleet.
        assert len(report.shards) == 4
        assert report.matrix.is_complete

    def test_clamp_to_cpus_caps_forked_worker_count(
        self, fingerprints, monkeypatch
    ):
        import repro.core.shard as shard_mod

        monkeypatch.setattr(shard_mod, "_schedulable_cpus", lambda: 2)
        campaign = ShardedCampaign(
            FACTORY, fingerprints, policy=POLICY, workers=4,
            clamp_to_cpus=True, steal_chunk_pairs=1,
        )
        forked = []
        real_pool = shard_mod.run_pool

        def spy(jobs, *args, inline=False, **kwargs):
            if not inline:
                forked.append(len(jobs))
            return real_pool(jobs, *args, inline=inline, **kwargs)

        monkeypatch.setattr(shard_mod, "run_pool", spy)
        report = campaign.run()
        assert forked == [2, 2]  # the leg round, then the pair round
        assert len(report.shards) == 2
        assert report.matrix.is_complete

    def test_validates_inputs(self, fingerprints):
        with pytest.raises(MeasurementError):
            ShardedCampaign(FACTORY, fingerprints[:1])
        with pytest.raises(MeasurementError):
            ShardedCampaign(FACTORY, fingerprints + fingerprints[:1])
        with pytest.raises(MeasurementError):
            ShardedCampaign(FACTORY, fingerprints, workers=-1)
        with pytest.raises(MeasurementError):
            ShardedCampaign(FACTORY, fingerprints, steal_chunk_pairs=0)
        with pytest.raises(MeasurementError):
            ShardedCampaign(
                FACTORY, fingerprints, pairs=[(fingerprints[0], "unknown")]
            )

    def test_rejects_unknown_fingerprint_before_dispatch(self, fingerprints):
        campaign = ShardedCampaign(
            FACTORY, ["missing-fp"] + fingerprints, policy=POLICY, workers=1
        )
        with pytest.raises(MeasurementError, match="lacks relays"):
            campaign.run()
