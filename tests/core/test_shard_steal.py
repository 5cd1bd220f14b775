"""Work-stealing dispatch: chaos, balance, and the duplicated-work guard.

These tests exercise the *forked* stealing path that the invariance
suites emulate inline: a deliberately slowed worker must not change one
bit of the merged matrix (only who measured what), the fast worker must
actually steal the slow worker's share, stolen pairs must stay
attributed to whoever measured them, and the campaign-wide leg-build
count must stay pinned at n no matter how the chunks land.
"""

import functools

import numpy as np
import pytest

from repro.core.sampling import SamplePolicy
from repro.core.shard import (
    LEG_PHASE,
    CampaignTelemetry,
    ShardedCampaign,
)
from repro.testbeds.livetor import LiveTorTestbed

SEED = 11
N_RELAYS = 14
POLICY = SamplePolicy(samples=3, interval_ms=2.0)
FACTORY = functools.partial(LiveTorTestbed.build, seed=SEED, n_relays=N_RELAYS)


@pytest.fixture(scope="module")
def fingerprints():
    testbed = FACTORY()
    descriptors = testbed.random_relays(5, testbed.streams.get("steal.sel"))
    return [d.fingerprint for d in descriptors]


@pytest.fixture(scope="module")
def uniform(fingerprints):
    """The reference run: forked, two healthy workers."""
    return ShardedCampaign(
        FACTORY,
        fingerprints,
        policy=POLICY,
        workers=2,
        observe=True,
        steal_chunk_pairs=1,
    ).run()


class TestChaosSlowWorker:
    """One straggler, injected with ``drill_slow_ms``."""

    @pytest.fixture(scope="class")
    def chaotic(self, fingerprints):
        telemetry = CampaignTelemetry(
            heartbeat_s=0.05,
            stall_timeout_s=20.0,
            drill_slow_ms={0: 150.0},
        )
        return ShardedCampaign(
            FACTORY,
            fingerprints,
            policy=POLICY,
            workers=2,
            observe=True,
            telemetry=telemetry,
            steal_chunk_pairs=1,
        ).run()

    def test_matrix_identical_to_uniform_run(self, chaotic, uniform):
        # The straggler changes the steal layout, never the data.
        assert chaotic.matrix.is_complete
        assert np.array_equal(
            chaotic.matrix.as_array(), uniform.matrix.as_array()
        )

    def test_no_watchdog_false_positive(self, chaotic):
        # run() completing is most of the assertion (a tripped watchdog
        # raises); the stream must carry no watchdog event either.
        assert chaotic.stream is not None
        assert chaotic.stream.events(kind="watchdog_tripped") == []

    def test_fast_worker_steals_more_chunks(self, chaotic):
        by_shard = {s.shard_index: s for s in chaotic.shards}
        assert set(by_shard) == {0, 1}
        assert by_shard[1].chunks > by_shard[0].chunks
        assert by_shard[0].chunks + by_shard[1].chunks == 10

    def test_stolen_pairs_attributed_to_their_worker(self, chaotic):
        # Provenance must say who actually measured each pair — the
        # steal layout, not a static partition.
        by_shard = {s.shard_index: s for s in chaotic.shards}
        prov_counts = {0: 0, 1: 0}
        for record in chaotic.provenance:
            assert record.shard in prov_counts
            prov_counts[record.shard] += 1
        assert prov_counts[0] == by_shard[0].pairs_attempted
        assert prov_counts[1] == by_shard[1].pairs_attempted
        assert prov_counts[1] > prov_counts[0]

    def test_leg_builds_still_n_under_chaos(self, chaotic, fingerprints):
        assert chaotic.legs_measured == len(fingerprints)
        assert all(s.legs_measured == 0 for s in chaotic.shards)
        legs = chaotic.provenance.legs()
        assert len(legs) == len(fingerprints)
        assert {record.shard for record in legs} == {None}


class TestStealAccounting:
    def test_leg_builds_equal_n_across_forked_worker_counts(
        self, fingerprints
    ):
        n = len(fingerprints)
        for workers in (2, 3):
            report = ShardedCampaign(
                FACTORY,
                fingerprints,
                policy=POLICY,
                workers=workers,
                steal_chunk_pairs=2,
            ).run()
            assert report.legs_measured == n
            assert report.leg_phase is not None
            assert report.leg_phase.shard_index == LEG_PHASE
            assert report.leg_phase.legs_measured == n

    def test_chunks_ship_incrementally_and_cover_all_pairs(self, uniform):
        # Batched result shipping: every chunk crossed the fork
        # boundary as its own message, and the absorbed entries
        # reassemble the full pair set with no duplicates.
        assert sum(s.chunks for s in uniform.shards) == 10
        seen = [
            (a, b) for s in uniform.shards for a, b, _ in s.entries
        ]
        assert len(seen) == len(set(seen)) == 10
        assert uniform.pairs_measured == 10

    def test_every_worker_reports_even_if_starved(self, fingerprints):
        # More workers than chunks a worker could plausibly starve:
        # a starved worker still returns a (zero-chunk) result.
        report = ShardedCampaign(
            FACTORY,
            fingerprints,
            policy=POLICY,
            workers=3,
            steal_chunk_pairs=4,  # 10 pairs -> 3 chunks
        ).run()
        assert len(report.shards) == 3
        assert sum(s.chunks for s in report.shards) == 3
        assert report.matrix.is_complete


class TestForkedEqualsInline:
    def test_forked_two_worker_matrix_equals_force_inline(
        self, uniform, fingerprints
    ):
        """Two forked workers measure what the in-process emulation does.

        The layer ciphers are OpenSSL contexts, and every one is created
        inside a task — circuits are built per task, after the fork —
        so a child never continues a keystream its parent (or its
        sibling) started: a circuit's two ends always live in one
        process.
        """
        inline = ShardedCampaign(
            FACTORY,
            fingerprints,
            policy=POLICY,
            workers=2,
            force_inline=True,
            steal_chunk_pairs=1,
        ).run()
        assert uniform.failures == [] and inline.failures == []
        assert np.array_equal(
            uniform.matrix.as_array(), inline.matrix.as_array()
        )
