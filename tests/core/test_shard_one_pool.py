"""One pool per sharded run: both rounds on the same forked children.

A forked ``ShardedCampaign.run`` forks its workers once. They steal the
leg chunks, park at the pool's barrier while the parent folds the leg
round, take the two leg caches it ships them, and steal the pair chunks.
This file holds that shape to what a pool per round gave:

* a run starts ``max`` (leg workers, pair workers) children, not their
  sum;
* a child parked at the barrier behind a leg-round straggler, longer
  than the stall watchdog's deadline, is not silent;
* ``worker_timeout_s`` bounds each round, not the two together, and a
  pair-round hang still fails by the pair worker's name;
* the report — shard count, leg-round result, per-shard rows and
  provenance — equals the inline emulation's, which keeps each round's
  deterministic deal, when the two rounds fork the same number of
  workers and when either forks fewer.
"""

from __future__ import annotations

import multiprocessing
import time
from multiprocessing.process import BaseProcess

import numpy as np
import pytest
from conftest import WORKER_FAULTS, shard_campaign, slow, worker_fault

from repro.core import shard
from repro.core.shard import CampaignTelemetry, ShardedCampaign
from repro.util.errors import MeasurementError


@pytest.fixture(scope="module")
def healthy(fingerprints):
    return _campaign(fingerprints, force_inline=True).run().matrix.as_array()


def _campaign(fingerprints, **kwargs) -> ShardedCampaign:
    kwargs.setdefault("steal_chunk_pairs", 1)
    return shard_campaign(fingerprints, **kwargs)


@pytest.fixture
def started(monkeypatch):
    """Every child process this process starts, counted at ``start``."""
    count = []
    real = BaseProcess.start

    def start(self):
        count.append(self)
        return real(self)

    monkeypatch.setattr(BaseProcess, "start", start)
    return count


def _late(delay_s: float):
    """A worker that waits ``delay_s`` once, before its work, sending nothing."""

    def wrap(work):
        def late(job, next_task, send):
            time.sleep(delay_s)
            return work(job, next_task, send)

        return late

    return wrap


def _stamped(stamps, key: str, at_end: bool):
    """Put ``(key, time.monotonic())`` on ``stamps`` as the work starts or ends."""

    def wrap(work):
        def stamping(job, next_task, send):
            if not at_end:
                stamps.put((key, time.monotonic()))
            result = work(job, next_task, send)
            if at_end:
                stamps.put((key, time.monotonic()))
            return result

        return stamping

    return wrap


# ----------------------------------------------------------------------
# One fork per worker


def test_a_forked_run_starts_each_worker_once(fingerprints, started):
    # 5 leg chunks and 10 pair chunks: both rounds on 2 workers.
    report = _campaign(fingerprints).run()
    assert len(started) == 2
    assert len(report.shards) == 2 and report.matrix.is_complete


def test_a_run_forks_as_many_children_as_its_widest_round(fingerprints, started):
    # 4 leg chunks on 4 workers, then 2 pair chunks on 2 of them.
    a, b, c, d = fingerprints[:4]
    report = _campaign(fingerprints, workers=4, pairs=[(a, b), (c, d)]).run()
    assert len(started) == 4
    assert len(report.shards) == 2 and report.pairs_measured == 2


def test_a_serve_batch_is_still_one_child_per_worker(started):
    from repro.core.dataset import RttMatrix
    from repro.serve import MatrixIndex, QueryServer

    nodes = [f"N{i}" for i in range(8)]
    values = np.add.outer(np.arange(8.0), np.arange(8.0))
    np.fill_diagonal(values, 0.0)
    server = QueryServer(MatrixIndex.build(RttMatrix.from_array(nodes, values)))
    queries = [{"op": "knn", "x": node, "k": 3} for node in nodes]
    assert server.batch(queries, workers=2) == server.batch(queries)
    assert len(started) == 2


# ----------------------------------------------------------------------
# Liveness is per round


STALL_S = 1.9
STRAGGLE_S = 1.5


def test_a_child_parked_behind_a_leg_straggler_is_not_silent(
    fingerprints, healthy, monkeypatch, tmp_path
):
    # Worker 1 waits 1.5 s before its birth heartbeat and before every
    # claim, inside the 1.9 s stall deadline each time, so worker 0
    # steals the leg chunks and then waits ≈ 3 s at the barrier without
    # a word: longer than the deadline, and not a stall.
    stamps = multiprocessing.get_context("fork").Queue()
    worker_fault(monkeypatch, "leg round worker 1", slow(STRAGGLE_S))
    worker_fault(monkeypatch, "leg round worker 0", _stamped(stamps, "parked", True))
    worker_fault(monkeypatch, "shard 0 worker", _stamped(stamps, "released", False))
    telemetry = CampaignTelemetry(
        heartbeat_s=0.0, stall_timeout_s=STALL_S,
        postmortem_path=tmp_path / "postmortem.json",
    )
    report = _campaign(fingerprints, telemetry=telemetry).run()
    assert np.array_equal(report.matrix.as_array(), healthy)
    seen = dict(stamps.get(timeout=10.0) for _ in range(2))
    assert seen["released"] - seen["parked"] > STALL_S
    assert not (tmp_path / "postmortem.json").exists()


DEADLINE_S = 2.5
LATE_S = 1.5


def test_the_deadline_bounds_each_round_not_their_sum(
    fingerprints, healthy, monkeypatch
):
    # Each round waits 1.5 s before it works: each is under the 2.5 s
    # deadline, the two together are over it.
    for name in ("leg round worker {}", "shard {} worker"):
        for worker in (0, 1):
            worker_fault(monkeypatch, name.format(worker), _late(LATE_S))
    report = _campaign(fingerprints, worker_timeout_s=DEADLINE_S).run()
    assert np.array_equal(report.matrix.as_array(), healthy)
    assert report.leg_phase.wall_s > LATE_S
    assert report.wall_s - report.build_s > 2 * LATE_S > DEADLINE_S


def test_a_pair_round_hang_fails_by_its_name(fingerprints, monkeypatch):
    worker_fault(monkeypatch, "leg round worker 0", _late(LATE_S))
    worker_fault(monkeypatch, "shard 0 worker", WORKER_FAULTS["hang"])
    started = time.monotonic()
    with pytest.raises(MeasurementError) as excinfo:
        _campaign(fingerprints, worker_timeout_s=DEADLINE_S).run()
    assert str(excinfo.value).startswith(
        f"shard 0 worker exceeded the {DEADLINE_S:.1f}s deadline"
    )
    # The hang is timed from the barrier, not from the fork.
    assert time.monotonic() - started > LATE_S + DEADLINE_S


# ----------------------------------------------------------------------
# The report a pool per round gave


@pytest.fixture
def dealt(monkeypatch):
    """Forked workers of an armed campaign take the inline deal of their
    round's chunks, so that its report compares to the inline one row
    for row."""
    real = shard._run_worker
    deals: dict[str, tuple[list, int]] = {}

    def work(job, next_task, send):
        chunks, workers = deals[job.round]
        return real(job, iter([*chunks[job.worker :: workers], None]).__next__, send)

    def arm(campaign: ShardedCampaign) -> ShardedCampaign:
        for kind, chunks in ((shard.LEG_ROUND, campaign.leg_chunks()),
                             (shard.PAIR_ROUND, campaign.pair_chunks())):
            deals[kind] = (chunks, campaign._forked_workers(len(chunks)))
        monkeypatch.setattr(shard, "_run_worker", work)
        return campaign

    return arm


def _rows(report) -> dict:
    def worker(result):
        return (
            result.shard_index, result.entries, result.failures,
            result.pairs_attempted, result.events_processed,
            result.cells_processed, result.makespan_ms, result.probes_sent,
            result.probes_saved, result.early_stops, result.legs_measured,
            result.chunks,
        )

    return {
        "shards": len(report.shards),
        "leg_phase": worker(report.leg_phase),
        "per_shard": [worker(result) for result in report.shards],
        "matrix": report.matrix.as_array().tobytes(),
        "failures": report.failures,
        "pair_rows": [repr(row) for row in report.provenance],
        "leg_rows": [repr(leg) for leg in report.provenance.legs()],
        # One worker_started / worker_finished pair per worker of each round.
        "bus_counts": report.events.snapshot()["counts"],
    }


#: (pair indices or all pairs, steal_chunk_pairs, workers, (leg workers,
#: pair workers) forked).
SHAPES = {
    "same": (None, 1, 2, (2, 2)),
    "fewer_leg_workers": (None, 4, 3, (2, 3)),
    "fewer_pair_workers": ([(0, 1), (2, 3)], 2, 3, (2, 1)),
}


@pytest.mark.parametrize("shape", SHAPES)
def test_the_report_equals_the_inline_deal(shape, fingerprints, dealt, started):
    indices, chunk, workers, forks = SHAPES[shape]
    pairs = None
    if indices is not None:
        pairs = [(fingerprints[i], fingerprints[j]) for i, j in indices]

    def campaign(**kwargs):
        return _campaign(
            fingerprints, pairs=pairs, steal_chunk_pairs=chunk, workers=workers,
            observe=True, **kwargs,
        )

    inline = campaign(force_inline=True).run()
    forked = dealt(campaign())
    assert [forked._forked_workers(len(c)) for c in
            (forked.leg_chunks(), forked.pair_chunks())] == list(forks)
    report = forked.run()
    assert len(started) == max(forks)
    assert _rows(report) == _rows(inline)
