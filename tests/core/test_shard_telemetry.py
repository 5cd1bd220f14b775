"""Live telemetry across the fork boundary: streaming, watchdog, deadlines.

The acceptance bar for the telemetry layer: instrumented campaigns
produce the same matrix, the same streamed campaign-event counts, and
the same final progress totals whatever the worker count; a wedged
worker trips the stall watchdog within its deadline and leaves a
flight-recorder post-mortem naming the stuck shard and in-flight pair;
an OS-killed worker or a blown per-worker deadline fails ``run()``
with the shard index instead of hanging it forever.

The fork-context workers inherit the parent's memory, so
monkeypatching ``_run_worker`` in this process changes what the *forked
children* execute — that is how the dead-worker and runaway-worker
faults are injected without any cooperation from the worker code.

The leg phase reports as shard ``-1``: it heartbeats, streams, and gets
its own flight-recorder ring like any worker.
"""

import functools
import json
import os
import signal
import time

import numpy as np
import pytest

import repro.core.shard as shard_mod
from repro.core.sampling import SamplePolicy
from repro.core.shard import LEG_PHASE, CampaignTelemetry, ShardedCampaign
from repro.obs import INFO, EventBus, categorize_failure
from repro.testbeds.livetor import LiveTorTestbed
from repro.util.errors import MeasurementError

SEED = 3
N_RELAYS = 14
POLICY = SamplePolicy(samples=3, interval_ms=2.0)
FACTORY = functools.partial(LiveTorTestbed.build, seed=SEED, n_relays=N_RELAYS)

#: Generous CI bound: every fault below must fail well under this.
FAIL_FAST_S = 30.0


@pytest.fixture(scope="module")
def fingerprints():
    testbed = FACTORY()
    descriptors = testbed.random_relays(5, testbed.streams.get("shard.sel"))
    return [d.fingerprint for d in descriptors]


def _campaign(fingerprints, workers, **kwargs):
    return ShardedCampaign(
        FACTORY, fingerprints, policy=POLICY, workers=workers, **kwargs
    )


def _run_instrumented(fingerprints, workers):
    telemetry = CampaignTelemetry(heartbeat_s=0.05, stall_timeout_s=30.0)
    report = _campaign(fingerprints, workers, telemetry=telemetry).run()
    assert report.stream is telemetry.bus or telemetry.bus is None
    return report


class TestWorkerCountInvariance:
    """Event counts and progress must not depend on the worker layout."""

    @pytest.fixture(scope="class")
    def reports(self, fingerprints):
        return {w: _run_instrumented(fingerprints, w) for w in (1, 2, 4)}

    def test_matrix_identical(self, reports):
        base = reports[1].matrix.as_array()
        for workers in (2, 4):
            assert np.array_equal(base, reports[workers].matrix.as_array())

    def test_campaign_event_counts_identical(self, reports):
        def campaign_counts(report):
            return sorted(
                (key, count)
                for key, count in report.stream.counts().items()
                if key[0] == "campaign"
            )

        base = campaign_counts(reports[1])
        assert base, "instrumented run streamed no campaign events"
        for workers in (2, 4):
            assert campaign_counts(reports[workers]) == base

    def test_progress_totals_identical(self, reports):
        base = (reports[1].progress.pairs_done, reports[1].progress.pairs_failed)
        assert base[0] == reports[1].matrix.num_measured
        for workers in (2, 4):
            progress = reports[workers].progress
            assert (progress.pairs_done, progress.pairs_failed) == base

    def test_probe_totals_invariant_and_match_merged_report(self, reports):
        # With the campaign-wide leg phase, probe totals joined the
        # invariant set (v1 re-measured legs per shard, so they scaled
        # with the worker count) — and for any layout the streamed
        # totals must agree with what the merged results report.
        base = reports[1].progress.probes_sent
        assert base > 0
        for report in reports.values():
            assert report.progress.probes_sent == base
            assert report.progress.probes_sent == report.probes_sent
            assert report.progress.probes_saved == report.probes_saved

    def test_progress_reaches_completion(self, reports):
        for report in reports.values():
            assert report.progress.pairs_done == report.progress.pairs_total
            assert report.progress.in_flight() == {}

    def test_stolen_pair_claims_sum_to_total(self, reports):
        # Heartbeats carry absolute claimed totals per shard; under
        # stealing the per-shard splits differ by layout, but the
        # claimed sum always covers the whole pair list. The leg phase
        # (shard -1) claims no pairs.
        for report in reports.values():
            claims = report.progress.shard_progress()
            pair_shards = {s: c for s, c in claims.items() if s != LEG_PHASE}
            assert sum(total for _, total in pair_shards.values()) == 10
            assert sum(done for done, _ in pair_shards.values()) == 10
            if LEG_PHASE in claims:
                assert claims[LEG_PHASE] == (0, 0)


class TestStallWatchdog:
    def test_hung_worker_trips_watchdog_with_postmortem(
        self, fingerprints, tmp_path
    ):
        dump = tmp_path / "postmortem.json"
        telemetry = CampaignTelemetry(
            heartbeat_s=0.1,
            stall_timeout_s=2.0,
            postmortem_path=dump,
            drill_hang_after={0: 1},
        )
        # Worker 0 wedges at its first stolen pair; small chunks keep
        # plenty of work queued so worker 1 just keeps stealing.
        campaign = _campaign(
            fingerprints, 2, telemetry=telemetry, steal_chunk_pairs=1
        )
        started = time.monotonic()
        with pytest.raises(MeasurementError) as excinfo:
            campaign.run()
        elapsed = time.monotonic() - started
        assert elapsed < FAIL_FAST_S

        message = str(excinfo.value)
        assert "shard 0 stalled" in message
        assert "flight recorder dumped to" in message
        assert categorize_failure(message) == "stall"

        doc = json.loads(dump.read_text())
        assert doc["category"] == "stall"
        assert doc["stuck_shard"] == 0
        # The drill's forced heartbeat named the wedged pair before the
        # silence began; the post-mortem must surface it.
        assert doc["in_flight"].startswith("pair ")
        # The leg phase has a ring of its own, as shard -1.
        assert set(doc["rings"]) == {"-1", "0", "1"}
        assert doc["rings"]["0"]["events"], "stuck shard streamed nothing"
        assert "heartbeats" in doc and "0" in doc["heartbeats"]

    def test_watchdog_event_lands_on_stream(self, fingerprints, tmp_path):
        bus = EventBus(capacity=1024)
        telemetry = CampaignTelemetry(
            bus=bus,
            heartbeat_s=0.1,
            stall_timeout_s=2.0,
            postmortem_path=tmp_path / "pm.json",
            drill_hang_after={0: 1},
        )
        campaign = _campaign(
            fingerprints, 2, telemetry=telemetry, steal_chunk_pairs=1
        )
        with pytest.raises(MeasurementError):
            campaign.run()
        tripped = bus.events(kind="watchdog_tripped")
        assert len(tripped) == 1
        assert tripped[0]["stalled_shard"] == 0

    def test_inline_drill_refuses_to_wedge_parent(self, fingerprints):
        telemetry = CampaignTelemetry(drill_hang_after={0: 1})
        campaign = _campaign(fingerprints, 1, telemetry=telemetry)
        with pytest.raises(MeasurementError, match="forked workers"):
            campaign.run()


class TestWorkerFaults:
    """Dead and runaway workers: no telemetry required to fail fast."""

    def test_dead_worker_fails_campaign(self, fingerprints, monkeypatch):
        real = shard_mod._run_worker

        def killer(*args, **kwargs):
            if args[0].shard_index == 1:
                os._exit(9)  # simulate the OOM killer: no cleanup, no message
            return real(*args, **kwargs)

        monkeypatch.setattr(shard_mod, "_run_worker", killer)
        campaign = _campaign(fingerprints, 2)
        started = time.monotonic()
        with pytest.raises(MeasurementError) as excinfo:
            campaign.run()
        assert time.monotonic() - started < FAIL_FAST_S
        message = str(excinfo.value)
        assert "shard 1 worker died without a result" in message
        assert "exit code 9" in message
        assert categorize_failure(message) == "shard"

    def test_worker_timeout_fails_campaign(self, fingerprints, monkeypatch):
        real = shard_mod._run_worker

        def sleeper(*args, **kwargs):
            if args[0].shard_index == 1:
                time.sleep(600.0)
            return real(*args, **kwargs)

        monkeypatch.setattr(shard_mod, "_run_worker", sleeper)
        campaign = _campaign(fingerprints, 2, worker_timeout_s=2.0)
        started = time.monotonic()
        with pytest.raises(MeasurementError) as excinfo:
            campaign.run()
        assert time.monotonic() - started < FAIL_FAST_S
        message = str(excinfo.value)
        assert "shard 1 worker exceeded the 2.0s deadline" in message
        assert categorize_failure(message) == "shard"

    def test_worker_prewarm_assertion_fails_campaign(
        self, fingerprints, monkeypatch
    ):
        # Sabotage the leg cache a worker receives: the zero-miss
        # assertion must catch the duplicated work and fail the run.
        real = shard_mod._run_worker

        def saboteur(*args, **kwargs):
            job = args[0]
            if job.shard_index == 1:
                job.leg_estimates = {}
            return real(*args, **kwargs)

        monkeypatch.setattr(shard_mod, "_run_worker", saboteur)
        campaign = _campaign(fingerprints, 2, steal_chunk_pairs=1)
        with pytest.raises(MeasurementError) as excinfo:
            campaign.run()
        assert "leg phase should have pre-warmed" in str(excinfo.value)

    @pytest.mark.parametrize("fault", ("sigkill", "raise"))
    def test_leg_round_worker_fault_fails_campaign(
        self, fingerprints, monkeypatch, fault
    ):
        # The leg round runs on the same fork → steal → ship → liveness
        # loop: a leg worker the OS kills while it holds a claimed
        # chunk, or one that raises, must fail the campaign naming the
        # round — within the death grace, never a hang.
        real = shard_mod._run_worker

        def faulty(job, next_task, **kwargs):
            if job.round != shard_mod.LEG_ROUND or job.worker != 1:
                return real(job, next_task=next_task, **kwargs)

            def claim_then_fail():
                next_task()
                if fault == "sigkill":
                    os.kill(os.getpid(), signal.SIGKILL)
                raise RuntimeError("leg chunk exploded")

            return real(job, next_task=claim_then_fail, **kwargs)

        monkeypatch.setattr(shard_mod, "_run_worker", faulty)
        campaign = _campaign(fingerprints, 2, steal_chunk_pairs=1)
        started = time.monotonic()
        with pytest.raises(MeasurementError) as excinfo:
            campaign.run()
        assert time.monotonic() - started < FAIL_FAST_S
        message = str(excinfo.value)
        if fault == "sigkill":
            assert "leg round worker 1 died without a result" in message
            assert f"exit code {-signal.SIGKILL}" in message
        else:
            assert "leg round worker 1 failed" in message
            assert "RuntimeError: leg chunk exploded" in message
        assert categorize_failure(message) == "shard"

    def test_leg_round_honours_the_worker_timeout(
        self, fingerprints, monkeypatch
    ):
        real = shard_mod._run_worker

        def sleeper(job, **kwargs):
            if job.round == shard_mod.LEG_ROUND and job.worker == 0:
                time.sleep(600.0)
            return real(job, **kwargs)

        monkeypatch.setattr(shard_mod, "_run_worker", sleeper)
        campaign = _campaign(
            fingerprints, 2, steal_chunk_pairs=1, worker_timeout_s=2.0
        )
        started = time.monotonic()
        with pytest.raises(MeasurementError) as excinfo:
            campaign.run()
        assert time.monotonic() - started < FAIL_FAST_S
        assert "leg round worker 0 exceeded the 2.0s deadline" in str(
            excinfo.value
        )

    def test_worker_timeout_must_be_positive(self, fingerprints):
        with pytest.raises(MeasurementError):
            _campaign(fingerprints, 2, worker_timeout_s=0.0)

    def test_generous_timeout_does_not_fire(self, fingerprints):
        report = _campaign(fingerprints, 2, worker_timeout_s=300.0).run()
        assert report.matrix.is_complete


class TestStreamingDetail:
    def test_stream_events_carry_shard_tags(self, fingerprints):
        report = _run_instrumented(fingerprints, 2)
        shards = {record["shard"] for record in report.stream.events()}
        assert LEG_PHASE in shards
        assert {0, 1} <= shards

    def test_forked_leg_round_reports_as_one_shard(self, fingerprints):
        # Single-leg chunks: the leg round forks two workers, and both
        # stream as shard -1. Their heartbeats are absolute totals of
        # one process each, so the tracker must show their sum — the
        # streamed probe totals still equal the merged report's.
        telemetry = CampaignTelemetry(heartbeat_s=0.05, stall_timeout_s=30.0)
        report = _campaign(
            fingerprints, 2, telemetry=telemetry, steal_chunk_pairs=1
        ).run()
        assert report.leg_phase.chunks == 5
        assert report.progress.probes_sent == report.probes_sent
        assert report.progress.probes_saved == report.probes_saved
        claims = report.progress.shard_progress()
        assert set(claims) == {LEG_PHASE, 0, 1}
        assert claims[LEG_PHASE] == (0, 0)
        assert report.progress.in_flight() == {}
        leg_events = [
            record for record in report.stream.events()
            if record["shard"] == LEG_PHASE
        ]
        assert sum(r["kind"] == "worker_finished" for r in leg_events) == 2

    def test_min_severity_filters_stream(self, fingerprints):
        telemetry = CampaignTelemetry(
            heartbeat_s=0.05, stream_min_severity=INFO
        )
        report = _campaign(fingerprints, 2, telemetry=telemetry).run()
        assert all(
            record["severity"] >= INFO for record in report.stream.events()
        )

    def test_on_progress_callback_fires(self, fingerprints):
        snapshots = []
        telemetry = CampaignTelemetry(
            heartbeat_s=0.05,
            on_progress=lambda tracker: snapshots.append(tracker.pairs_done),
        )
        _campaign(fingerprints, 2, telemetry=telemetry).run()
        assert snapshots, "no heartbeat ever reached the progress callback"
        assert snapshots[-1] == len(fingerprints) * (len(fingerprints) - 1) // 2

    def test_telemetry_composes_with_observe(self, fingerprints):
        telemetry = CampaignTelemetry(heartbeat_s=0.05)
        report = _campaign(
            fingerprints, 2, observe=True, telemetry=telemetry
        ).run()
        # Both planes populated: merged worker snapshots and the live
        # stream, with matching campaign-pair counts.
        assert report.events is not None and report.events.emitted > 0
        assert report.stream is not None
        merged = {
            key: count
            for key, count in report.events.counts().items()
            if key[0] == "campaign"
        }
        streamed = {
            key: count
            for key, count in report.stream.counts().items()
            if key[0] == "campaign"
        }
        assert merged == streamed
