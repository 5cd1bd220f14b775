"""Cross-shard observability: merged metrics/spans/provenance/events.

PR 2 made the *matrix* invariant to the shard count; these tests pin
the same property for the observability layer. Deterministic counters
in the merged registry must be identical for workers in {1, 2, 4} and
identical to an unsharded instrumented run, and every adopted bus
event, span, and provenance record must say which shard produced it
(``-1`` = the campaign-wide leg phase).

With the shared leg phase, ``ting.leg_cache_misses`` joined the
invariant set: exactly one miss per relay, campaign-wide, no matter how
many workers steal pairs — the observable form of the duplicated-work
fix.
"""

import functools
from dataclasses import asdict

import numpy as np
import pytest

from repro.core.parallel import ParallelCampaign
from repro.core.sampling import SamplePolicy
from repro.core.shard import LEG_PHASE, ShardedCampaign
from repro.testbeds.livetor import LiveTorTestbed

SEED = 3
N_RELAYS = 14
POLICY = SamplePolicy(samples=3, interval_ms=2.0)
FACTORY = functools.partial(LiveTorTestbed.build, seed=SEED, n_relays=N_RELAYS)

#: Counters that must not depend on how the pair list was partitioned,
#: which worker stole which chunk, or how many workers ran. The leg
#: phase made the whole cache-accounting triple invariant (v1 measured
#: legs per worker, so misses scaled with the worker count).
DETERMINISTIC_COUNTERS = (
    "campaign.pairs_attempted",
    "campaign.pairs_measured",
    "campaign.task_isolations",
    "ting.leg_cache_lookups",
    "ting.leg_cache_hits",
    "ting.leg_cache_misses",
    "echo.probes_sent",
)


@pytest.fixture(scope="module")
def fingerprints():
    testbed = FACTORY()
    descriptors = testbed.random_relays(5, testbed.streams.get("shard.sel"))
    return [d.fingerprint for d in descriptors]


def _observed_merge(fingerprints, workers):
    """Run the stealing worker loop inline with observability on."""
    campaign = ShardedCampaign(
        FACTORY,
        fingerprints,
        policy=POLICY,
        workers=workers,
        observe=True,
        force_inline=True,
        steal_chunk_pairs=2,
    )
    return campaign.run()


@pytest.fixture(scope="module")
def merged_by_workers(fingerprints):
    return {workers: _observed_merge(fingerprints, workers) for workers in (1, 2, 4)}


class TestMergedCounterInvariance:
    def test_deterministic_counters_invariant_to_worker_count(
        self, merged_by_workers
    ):
        values = {
            workers: {
                name: report.metrics.counter(name)
                for name in DETERMINISTIC_COUNTERS
            }
            for workers, report in merged_by_workers.items()
        }
        assert values[1] == values[2] == values[4]
        assert values[1]["campaign.pairs_attempted"] == 10
        assert values[1]["campaign.pairs_measured"] == 10
        # Every measured pair reuses both shared legs; every relay
        # misses exactly once — in the leg phase, nowhere else.
        assert values[1]["ting.leg_cache_hits"] == 20
        assert values[1]["ting.leg_cache_misses"] == 5
        assert values[1]["ting.leg_cache_lookups"] == 25
        # One isolation context per task: 5 legs + 10 pairs.
        assert values[1]["campaign.task_isolations"] == 15

    def test_cache_accounting_identity(self, merged_by_workers):
        # hits + misses == lookups, with no third bucket to hide in.
        for report in merged_by_workers.values():
            assert report.metrics.counter(
                "ting.leg_cache_lookups"
            ) == report.metrics.counter(
                "ting.leg_cache_hits"
            ) + report.metrics.counter("ting.leg_cache_misses")

    def test_matches_unsharded_instrumented_run(
        self, fingerprints, merged_by_workers
    ):
        testbed = FACTORY()
        registry = testbed.measurement.enable_observability()
        by_fp = {r.fingerprint: r for r in testbed.relays}
        descriptors = [by_fp[fp].descriptor() for fp in fingerprints]
        unsharded = ParallelCampaign(
            testbed.measurement,
            descriptors,
            policy=POLICY,
            isolation=testbed.task_isolation(),
        ).run()
        for workers, report in merged_by_workers.items():
            assert np.array_equal(
                report.matrix.as_array(), unsharded.matrix.as_array()
            )
            for name in DETERMINISTIC_COUNTERS:
                assert report.metrics.counter(name) == registry.counter(name), (
                    f"{name} differs at workers={workers}"
                )

    def test_matrix_still_bit_identical_when_observed(
        self, fingerprints, merged_by_workers
    ):
        # Observability must not perturb the measurement itself.
        unobserved = ShardedCampaign(
            FACTORY,
            fingerprints,
            policy=POLICY,
            workers=2,
            force_inline=True,
            steal_chunk_pairs=2,
        ).run()
        assert unobserved.metrics is None
        for report in merged_by_workers.values():
            assert np.array_equal(
                report.matrix.as_array(), unobserved.matrix.as_array()
            )


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

    def test_forked_pool_merges_same_counters(self, fingerprints):
        # The real multiprocess path (fork + work stealing) must agree
        # with the deterministic inline emulation.
        report = ShardedCampaign(
            FACTORY,
            fingerprints,
            policy=POLICY,
            workers=2,
            observe=True,
            steal_chunk_pairs=2,
        ).run()
        inline = _observed_merge(fingerprints, 2)
        assert np.array_equal(
            report.matrix.as_array(), inline.matrix.as_array()
        )
        for name in DETERMINISTIC_COUNTERS:
            assert report.metrics.counter(name) == inline.metrics.counter(name)
        assert report.legs_measured == inline.legs_measured == 5


def _factory_with_down_relay(down_fp):
    """FACTORY, with one campaign relay shut down before any round."""
    testbed = FACTORY()
    {r.fingerprint: r for r in testbed.relays}[down_fp].shutdown()
    return testbed


def _leg_round_view(fingerprints, workers, chunk, forked):
    """Everything the leg round hands on, in a comparable form."""
    campaign = ShardedCampaign(
        functools.partial(_factory_with_down_relay, fingerprints[2]),
        fingerprints,
        policy=POLICY,
        workers=workers,
        observe=True,
        force_inline=not forked,
        steal_chunk_pairs=chunk,
    )
    caches = {}
    fold = campaign._fold_leg_round

    def spy(*args):
        folded, caches["estimates"], caches["failures"] = fold(*args)
        return folded, caches["estimates"], caches["failures"]

    campaign._fold_leg_round = spy
    report = campaign.run()
    leg_rows = sorted(
        (
            {k: v for k, v in asdict(record).items() if k != "duration_ms"}
            for record in report.provenance.legs()
        ),
        key=lambda row: row["relay"],
    )
    return {
        # Dict order is part of the contract: campaign order, whoever
        # measured what.
        "estimates": list(caches["estimates"].items()),
        "failures": list(caches["failures"].items()),
        "leg_rows": leg_rows,
        "leg_shards": {record.shard for record in report.provenance.legs()},
        "pair_failures": sorted(report.failures),
        "matrix": report.matrix.as_array().tobytes(),  # NaN holes compare
        "counters": {
            name: report.metrics.counter(name) for name in DETERMINISTIC_COUNTERS
        },
        "legs_measured": (report.legs_measured, report.leg_phase.legs_measured),
        "leg_chunks": report.leg_phase.chunks,
        "campaign_spans": report.spans.count("campaign"),
    }


class TestLegRoundInvariance:
    """The leg round is stolen like the pair round — and like the pair
    round it must be invisible in the data: one inline worker *is* the
    serial leg phase of earlier versions, and every other layout (more
    workers, other chunk sizes, real forks) must hand the pair round
    the same caches and the report the same rows and counters. One
    relay is down, so the failure path is compared too: its leg fails
    in whichever worker draws it, and every pair touching it fails for
    the same reason."""

    @pytest.fixture(scope="class")
    def serial(self, fingerprints):
        view = _leg_round_view(fingerprints, workers=1, chunk=8, forked=False)
        assert [fp for fp, _ in view["failures"]] == [fingerprints[2]]
        assert [fp for fp, _ in view["estimates"]] == [
            fp for fp in fingerprints if fp != fingerprints[2]
        ]
        assert len(view["leg_rows"]) == 4 and view["leg_shards"] == {None}
        assert len(view["pair_failures"]) == 4
        assert view["legs_measured"] == (5, 5)
        return view

    @pytest.mark.parametrize("forked", (False, True), ids=("inline", "forked"))
    @pytest.mark.parametrize("chunk", (1, 3, 8))
    @pytest.mark.parametrize("workers", (1, 2, 4))
    def test_same_as_the_serial_phase(
        self, fingerprints, serial, workers, chunk, forked
    ):
        view = _leg_round_view(fingerprints, workers, chunk, forked)
        assert view.pop("leg_chunks") == -(-5 // chunk)
        serial = {k: v for k, v in serial.items() if k != "leg_chunks"}
        assert view == serial
