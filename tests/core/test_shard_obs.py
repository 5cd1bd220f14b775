"""Cross-shard observability: merged spans, provenance and events.

Every adopted bus event, span and provenance record must say which
shard produced it (``-1`` = the campaign-wide leg phase). That the
merged registry's deterministic counters, bus counts and rows do not
depend on the worker count is the contract's generated differential
(``tests/contract/test_task_purity.py``).
"""

import pytest
from conftest import SHARD_POLICY as POLICY, shard_campaign

from repro.core.shard import LEG_PHASE


@pytest.fixture(scope="module")
def merged_by_workers(fingerprints):
    """The stealing worker loop run inline with observability on."""
    return {workers: shard_campaign(
        fingerprints, workers, observe=True, force_inline=True, steal_chunk_pairs=2,
    ).run() for workers in (1, 2, 4)}


class TestMergedArtifacts:
    def test_bus_events_are_shard_tagged(self, merged_by_workers):
        report = merged_by_workers[2]
        assert {event["shard"] for event in report.events.events()} == {
            LEG_PHASE, 0, 1,
        }
        assert report.events.recorder.dropped == 0
        assert report.events.emitted == len(report.events)

    def test_spans_are_shard_tagged_and_cover_hierarchy(self, merged_by_workers):
        report = merged_by_workers[2]
        assert {r["shard"] for r in report.spans.records()} == {LEG_PHASE, 0, 1}
        # Exactly one campaign span — the leg phase's. Workers run pair
        # chunks, not campaigns, so the count no longer scales with W.
        assert report.spans.count("campaign") == 1
        assert report.spans.count("pair") == 10
        assert report.spans.count("leg") == 5
        assert report.spans.count("circuit_build") > 0
        assert report.spans.count("probe_round") > 0
        leg_shards = {
            r["shard"] for r in report.spans.records() if r["name"] == "leg"
        }
        assert leg_shards == {LEG_PHASE}

    def test_provenance_merges_with_shard_attribution(self, merged_by_workers):
        for workers, report in merged_by_workers.items():
            assert len(report.provenance) == 10
            assert {r.shard for r in report.provenance} == set(range(workers))
            for record in report.provenance:
                assert record.status == "measured"
                assert record.leg_cache_hits == 2
                assert record.samples_kept == POLICY.samples
                assert record.residual_ms == pytest.approx(
                    (record.leg_x_ms + record.leg_y_ms) / 2.0
                )

    def test_leg_provenance_belongs_to_the_campaign(self, merged_by_workers):
        for report in merged_by_workers.values():
            legs = report.provenance.legs()
            assert len(legs) == 5
            # The leg phase is campaign-wide: no shard owns a leg.
            assert {record.shard for record in legs} == {None}
            assert all(record.rtt_ms is not None for record in legs)
            assert all(
                record.samples_kept == POLICY.samples for record in legs
            )
            by_relay = {record.relay: record for record in legs}
            assert set(by_relay) == set(
                record.x for record in report.provenance
            ) | set(record.y for record in report.provenance)

    def test_leg_provenance_consistent_with_pair_records(self, merged_by_workers):
        report = merged_by_workers[2]
        by_relay = {record.relay: record for record in report.provenance.legs()}
        for record in report.provenance:
            assert record.leg_x_ms == pytest.approx(
                by_relay[record.x].rtt_ms, abs=1e-6
            )
            assert record.leg_y_ms == pytest.approx(
                by_relay[record.y].rtt_ms, abs=1e-6
            )

    def test_provenance_rtts_match_matrix(self, merged_by_workers):
        report = merged_by_workers[4]
        for record in report.provenance:
            # Serialized provenance rounds floats to 6 decimals.
            assert record.rtt_ms == pytest.approx(
                report.matrix.get(record.x, record.y), abs=1e-6
            )
