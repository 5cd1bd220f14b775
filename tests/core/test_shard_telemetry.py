"""Live telemetry across the fork boundary: streaming and progress.

A worker wedged inside a pair trips the stall watchdog within its
deadline and leaves a flight-recorder post-mortem naming the stuck shard
and in-flight pair. That the streamed campaign-event counts and the
final progress totals do not depend on the worker count is the
contract's generated differential
(``tests/contract/test_task_purity.py``). What a killed, raising, hung
or slow worker, or one whose leg cache is lost, does to each forked
round is the worker-fault matrix's (``tests/contract/test_worker_faults.py``).

The leg phase reports as shard ``-1``: it heartbeats, streams, and gets
its own flight-recorder ring like any worker.
"""

import json
import time

import pytest
from conftest import shard_campaign, slow, wedge_in_pair, worker_fault

from repro.core.shard import LEG_PHASE, CampaignTelemetry
from repro.obs import INFO, EventBus, categorize_failure
from repro.util.cpus import WorkerSilence
from repro.util.errors import MeasurementError


#: Generous CI bound: a wedged worker must trip the watchdog well under this.
FAIL_FAST_S = 30.0


class TestStallWatchdog:
    """Pair worker 0 wedges inside its first pair, injected at the fork
    pool's seam; small chunks keep plenty of work queued so worker 1
    just keeps stealing. Every event beats (``heartbeat_s=0``), so the
    heartbeat naming the pair leaves before the silence."""

    def _wedged_run(self, fingerprints, monkeypatch, **telemetry_kwargs):
        worker_fault(monkeypatch, "shard 0 worker", wedge_in_pair)
        telemetry = CampaignTelemetry(
            heartbeat_s=0.0, stall_timeout_s=2.0, **telemetry_kwargs
        )
        campaign = shard_campaign(fingerprints, telemetry=telemetry, steal_chunk_pairs=1)
        started = time.monotonic()
        with pytest.raises(MeasurementError) as excinfo:
            campaign.run()
        assert time.monotonic() - started < FAIL_FAST_S
        return str(excinfo.value)

    def test_hung_worker_trips_watchdog_with_postmortem(
        self, fingerprints, monkeypatch, tmp_path
    ):
        dump = tmp_path / "postmortem.json"
        message = self._wedged_run(
            fingerprints, monkeypatch, postmortem_path=dump
        )
        assert "shard 0 stalled" in message
        assert "flight recorder dumped to" in message
        assert categorize_failure(message) == "stall"

        doc = json.loads(dump.read_text())
        assert doc["category"] == "stall"
        assert doc["stuck_shard"] == 0
        # The heartbeat named the wedged pair before the silence began;
        # the post-mortem must surface it.
        assert doc["in_flight"].startswith("pair ")
        # The leg phase has a ring of its own, as shard -1.
        assert set(doc["rings"]) == {"-1", "0", "1"}
        assert doc["rings"]["0"]["events"], "stuck shard streamed nothing"
        assert "heartbeats" in doc and "0" in doc["heartbeats"]

    def test_watchdog_event_lands_on_stream(
        self, fingerprints, monkeypatch, tmp_path
    ):
        bus = EventBus(capacity=1024)
        self._wedged_run(
            fingerprints, monkeypatch, bus=bus,
            postmortem_path=tmp_path / "pm.json",
        )
        tripped = bus.events(kind="watchdog_tripped")
        assert len(tripped) == 1
        assert tripped[0]["stalled_shard"] == 0


def wedge_in_leg(work):
    """Forward what the worker sends until a heartbeat names a leg in
    flight, then go silent for good — inside the leg, not between."""

    def wedged(job, next_task, send):
        def send_then_wedge(msg):
            send(msg)
            if msg[0] == "hb" and str(msg[2]["in_flight"]).startswith("leg "):
                while True:
                    time.sleep(3600)

        return work(job, next_task, send_then_wedge)

    return wedged


class TestPerWorkerSilence:
    """Every leg-round worker streams as shard -1, but silence is each
    worker's own: a sibling that keeps talking must not keep a wedged
    worker's clock fresh."""

    STALL_S = 1.0

    def test_chatty_sibling_cannot_hide_a_wedged_leg_worker(
        self, fingerprints, monkeypatch, tmp_path
    ):
        # Worker 1 sleeps before its birth heartbeat and every claim, so
        # worker 0 claims the first leg chunk, fingerprints[0], and
        # wedges in it; worker 1 then speaks every 0.6 s, inside the
        # deadline, for the four chunks left.
        worker_fault(monkeypatch, "leg round worker 0", wedge_in_leg)
        worker_fault(monkeypatch, "leg round worker 1", slow(0.6))
        dump = tmp_path / "postmortem.json"
        telemetry = CampaignTelemetry(
            heartbeat_s=0.0, stall_timeout_s=self.STALL_S, postmortem_path=dump
        )
        campaign = shard_campaign(fingerprints, telemetry=telemetry, steal_chunk_pairs=1)
        started = time.monotonic()
        with pytest.raises(MeasurementError) as excinfo:
            campaign.run()
        # The silence itself trips just past the deadline; the wall-time
        # bound leaves room for building the testbed and forking, yet
        # still catches a chatty sibling's ≈ 4.7 s of hiding.
        silence = excinfo.value.__cause__
        assert isinstance(silence, WorkerSilence) and silence.slot == 0
        assert silence.age_s < self.STALL_S + 0.5
        assert time.monotonic() - started < self.STALL_S + 2.5
        message = str(excinfo.value)
        assert "shard -1 stalled" in message
        assert categorize_failure(message) == "stall"
        doc = json.loads(dump.read_text())
        assert doc["stuck_shard"] == LEG_PHASE
        assert doc["in_flight"] == f"leg {fingerprints[0]}"


class TestWorkerFaults:
    """What the worker-fault matrix (``tests/contract/test_worker_faults.py``)
    does not inject at the pool's seam: the deadline's own validation."""

    def test_worker_timeout_must_be_positive(self, fingerprints):
        with pytest.raises(MeasurementError):
            shard_campaign(fingerprints, worker_timeout_s=0.0)

    def test_generous_timeout_does_not_fire(self, fingerprints):
        report = shard_campaign(fingerprints, worker_timeout_s=300.0).run()
        assert report.matrix.is_complete


class TestStreamingDetail:
    def test_stream_events_carry_shard_tags(self, fingerprints):
        telemetry = CampaignTelemetry(heartbeat_s=0.05, stall_timeout_s=30.0)
        report = shard_campaign(fingerprints, telemetry=telemetry).run()
        assert report.stream is telemetry.bus or telemetry.bus is None
        shards = {record["shard"] for record in report.stream.events()}
        assert LEG_PHASE in shards
        assert {0, 1} <= shards

    def test_forked_leg_round_reports_as_one_shard(self, fingerprints):
        # Single-leg chunks: the leg round forks two workers, and both
        # stream as shard -1. Their heartbeats are absolute totals of
        # one process each, so the tracker must show their sum — the
        # streamed probe totals still equal the merged report's.
        telemetry = CampaignTelemetry(heartbeat_s=0.05, stall_timeout_s=30.0)
        report = shard_campaign(fingerprints, telemetry=telemetry, steal_chunk_pairs=1).run()
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
            heartbeat_s=0.05
        )
        report = shard_campaign(fingerprints, telemetry=telemetry).run()
        assert all(
            record["severity"] >= INFO for record in report.stream.events()
        )

    def test_on_progress_callback_fires(self, fingerprints):
        snapshots = []
        telemetry = CampaignTelemetry(
            heartbeat_s=0.05,
            on_progress=lambda tracker: snapshots.append(tracker.pairs_done),
        )
        shard_campaign(fingerprints, telemetry=telemetry).run()
        assert snapshots, "no heartbeat ever reached the progress callback"
        assert snapshots[-1] == len(fingerprints) * (len(fingerprints) - 1) // 2

    def test_telemetry_composes_with_observe(self, fingerprints):
        telemetry = CampaignTelemetry(heartbeat_s=0.05)
        report = shard_campaign(fingerprints, observe=True, telemetry=telemetry).run()
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
