"""Sharded campaigns: the chunk deal, the CPU clamp and what a run refuses.

That splitting the pair list across workers cannot show in the data —
matrix, counters, rows, bus counts, progress and leg caches equal for
forked, inline and one-worker runs and for an unsharded isolated
campaign — is the contract's generated differential
(``tests/contract/test_task_purity.py``); this file holds the pieces
around it.
"""

import pytest
from conftest import SHARD_FACTORY as FACTORY, shard_campaign

from repro.core.shard import ShardedCampaign, ShardResult
from repro.util.errors import MeasurementError


class TestChunkPartitioning:
    def test_chunks_cover_all_pairs_exactly_once(self, fingerprints):
        campaign = shard_campaign(fingerprints, 3, steal_chunk_pairs=4)
        chunks = campaign.pair_chunks()
        flattened = [pair for _, chunk in chunks for pair in chunk]
        assert flattened == campaign.pairs
        assert [cid for cid, _ in chunks] == list(range(len(chunks)))
        assert all(len(chunk) <= 4 for _, chunk in chunks)

    def test_more_workers_than_chunks(self, fingerprints):
        pairs = [(fingerprints[0], fingerprints[1])]
        campaign = shard_campaign(fingerprints, 8, pairs=pairs)
        assert campaign.pair_chunks() == [(0, pairs)]
        report = campaign.run()
        # One chunk cannot feed eight workers: the run collapses inline.
        assert len(report.shards) == 1
        assert report.pairs_measured == 1

    def test_duplicate_entries_across_shards_rejected(self, fingerprints):
        campaign = shard_campaign(fingerprints)
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
        campaign = shard_campaign(fingerprints, 4, clamp_to_cpus=True, steal_chunk_pairs=1)
        report = campaign.run()
        # Inline emulation keeps the full logical worker fleet.
        assert len(report.shards) == 4
        assert report.matrix.is_complete

    def test_clamp_to_cpus_caps_forked_worker_count(
        self, fingerprints, monkeypatch
    ):
        import repro.core.shard as shard_mod

        monkeypatch.setattr(shard_mod, "_schedulable_cpus", lambda: 2)
        campaign = shard_campaign(fingerprints, 4, clamp_to_cpus=True, steal_chunk_pairs=1)
        forked = []
        real_pool = shard_mod.run_pool

        def spy(jobs, *args, inline=False, then=None, **kwargs):
            if not inline:
                forked.append(max(len(jobs), len(then.jobs)))
            return real_pool(jobs, *args, inline=inline, then=then, **kwargs)

        monkeypatch.setattr(shard_mod, "run_pool", spy)
        report = campaign.run()
        assert forked == [2]  # one pool of 2 for the leg round and the pair round
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

    @pytest.mark.parametrize("again", ["same", "reversed"])
    def test_a_pair_given_twice_is_rejected_up_front(self, fingerprints, again):
        """The merge counts one row per attempted pair, so a repeated pair
        (either order) must fail as bad input, not as a lost chunk."""
        a, b = fingerprints[:2]
        twice = [(a, b), (a, b) if again == "same" else (b, a)]
        with pytest.raises(MeasurementError, match="invalid campaign pair"):
            ShardedCampaign(FACTORY, fingerprints, pairs=twice)

    def test_rejects_unknown_fingerprint_before_dispatch(self, fingerprints):
        campaign = shard_campaign(["missing-fp"] + fingerprints, 1)
        with pytest.raises(MeasurementError, match="lacks relays"):
            campaign.run()
