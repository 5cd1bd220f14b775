"""Contract: a worker fault fails its run fast, by name, and categorized.

The leg round, the pair round and ``QueryServer.batch`` fork through one
pool (``repro.util.cpus.run_pool``). Each fault below is injected at the
pool's one seam, the forked child's entry, where it replaces what the
worker runs and nothing else:

* **kill** — SIGKILL after claiming a task: ``died without a result
  (exit code -9)`` within the pool's death grace;
* **raise** — ``failed: RuntimeError: …`` at once;
* **hang** — ``exceeded the 2.0s deadline`` (the campaigns' is passed
  here; a serve worker's is ``QueryServer.batch``'s 2 s without
  shipping answers);
* **slow** — a straggler: the result ``==`` a healthy run's;
* **unpicklable** result — ``failed: PicklingError: …`` at once, not a
  clean exit read as a death;
* **unpicklable_send** — a message sent home that does not pickle (a
  chunk's rows, a batch's answers): ``failed: PicklingError: …`` too,
  where the queue's feeder thread used to drop it and the campaign came
  back short of pairs with no failure.
* **lost leg cache** — a pair worker whose leg estimates did not
  arrive at the barrier: the duplicated-work guard fails the run with
  ``rebuilt … leg circuit(s) the leg phase should have pre-warmed``
  instead of letting it quietly measure the legs again.

Every failure is a ``MeasurementError`` naming its round and worker that
``categorize_failure`` files under ``shard``, raised well inside
``FAIL_FAST_S``. A worker wedged inside a pair trips the stall watchdog
instead (``stall``, with its post-mortem), and one failing serve worker
fails the batch at once however many siblings are wedged. A healthy
serve batch whose workers each run well past that deadline completes:
the deadline is on progress, not on the batch.
"""

from __future__ import annotations

import json
import signal
import time

import numpy as np
import pytest
from conftest import WORKER_FAULTS, WORKER_NAMES, shard_campaign, wedge_in_pair, worker_fault

from repro.core.dataset import RttMatrix
from repro.core.shard import CampaignTelemetry
from repro.obs import EventBus, categorize_failure
from repro.serve import MatrixIndex, QueryServer
from repro.serve import server as server_mod
from repro.util.errors import MeasurementError


#: Generous CI bound: every fault below must fail well under this.
FAIL_FAST_S = 30.0
DEADLINE_S = 2.0


@pytest.fixture(scope="module")
def server():
    rng = np.random.default_rng(21)
    values = rng.uniform(5.0, 300.0, size=(16, 16))
    values = (values + values.T) / 2.0
    np.fill_diagonal(values, 0.0)
    nodes = [f"N{i:03d}" for i in range(16)]
    return QueryServer(MatrixIndex.build(RttMatrix.from_array(nodes, values)))


def _queries(server):
    nodes = server.index.nodes
    return [
        {"op": "point", "x": nodes[i % 16], "y": nodes[(i + 1) % 16]}
        if i % 2 else {"op": "knn", "x": nodes[i % 16], "k": 3}
        for i in range(40)
    ]


def _run(site, fingerprints, server, **kwargs):
    """One run of ``site`` with two workers: its matrix, or its answers."""
    if site == "serve":
        return server.batch(_queries(server), workers=2)
    return shard_campaign(fingerprints, steal_chunk_pairs=1, **kwargs).run().matrix.as_array()


@pytest.fixture(scope="module")
def healthy(fingerprints, server):
    return {
        "serve": server.batch(_queries(server), workers=1),
        "campaign": _run("pair round", fingerprints, server),
    }


EXPECTED = {
    "kill": f"died without a result (exit code {-signal.SIGKILL})",
    "raise": "failed: RuntimeError: injected fault",
    "hang": f"exceeded the {DEADLINE_S:.1f}s deadline",
    "unpicklable": "failed: PicklingError: ",
    "unpicklable_send": "failed: PicklingError: ",
}

CASES = [(site, fault) for site in WORKER_NAMES for fault in WORKER_FAULTS]


@pytest.mark.parametrize(
    "site, fault",
    CASES,
    ids=[f"{site.replace(' ', '_')}-{fault}" for site, fault in CASES],
)
def test_worker_fault(site, fault, fingerprints, server, healthy, monkeypatch):
    name = WORKER_NAMES[site].format(0)
    worker_fault(monkeypatch, name, WORKER_FAULTS[fault])
    kwargs = {"worker_timeout_s": DEADLINE_S} if fault == "hang" else {}
    started = time.monotonic()
    if fault == "slow":
        result = _run(site, fingerprints, server)
        if site == "serve":
            assert result == healthy["serve"]
        else:
            assert np.array_equal(result, healthy["campaign"])
        return
    with pytest.raises(MeasurementError) as excinfo:
        _run(site, fingerprints, server, **kwargs)
    assert time.monotonic() - started < FAIL_FAST_S
    message = str(excinfo.value)
    assert message.startswith(f"{name} {EXPECTED[fault]}"), message
    assert categorize_failure(message) == "shard"


def test_failing_serve_worker_does_not_wait_for_wedged_siblings(
    server, monkeypatch
):
    worker_fault(monkeypatch, "serve worker 0", WORKER_FAULTS["raise"])
    for w in (1, 2, 3):
        worker_fault(monkeypatch, f"serve worker {w}", WORKER_FAULTS["hang"])
    started = time.monotonic()
    with pytest.raises(MeasurementError, match="serve worker 0 failed"):
        server.batch(_queries(server), workers=4)
    assert time.monotonic() - started < 2.0


def test_a_long_healthy_serve_batch_outlives_the_progress_deadline(
    server, monkeypatch
):
    # Every neighbor and every detour, 10 ms a query: each of the two
    # workers answers for ≈ 2.5 s, past PROGRESS_DEADLINE_S, and ships
    # as it goes.
    nodes = server.index.nodes
    queries = [
        {"op": "knn", "x": nodes[i % 16], "k": 16}
        if i % 2 else {"op": "via", "x": nodes[i % 16], "y": nodes[(i + 5) % 16], "k": 16}
        for i in range(500)
    ]
    inline = server.batch(queries, workers=1)
    dispatch = QueryServer._dispatch

    def slow_dispatch(self, query):
        time.sleep(0.01)
        return dispatch(self, query)

    monkeypatch.setattr(QueryServer, "_dispatch", slow_dispatch)
    started = time.monotonic()
    assert server.batch(queries, workers=2) == inline
    assert time.monotonic() - started > server_mod.PROGRESS_DEADLINE_S


def test_worker_wedged_in_a_pair_trips_the_watchdog(
    fingerprints, monkeypatch, tmp_path
):
    # Shard 0 with single-pair chunks: worker 0 always claims a chunk
    # (worker 1 would have to drain the whole queue before worker 0's
    # first get returns). Every event beats, so the heartbeat that
    # names the pair leaves before the silence.
    worker_fault(monkeypatch, "shard 0 worker", wedge_in_pair)
    dump = tmp_path / "postmortem.json"
    bus = EventBus(capacity=1024)
    telemetry = CampaignTelemetry(
        bus=bus, heartbeat_s=0.0, stall_timeout_s=2.0, postmortem_path=dump
    )
    started = time.monotonic()
    with pytest.raises(MeasurementError) as excinfo:
        _run("pair round", fingerprints, None, telemetry=telemetry)
    assert time.monotonic() - started < FAIL_FAST_S

    message = str(excinfo.value)
    assert "shard 0 stalled" in message
    assert "flight recorder dumped to" in message
    assert categorize_failure(message) == "stall"
    tripped = bus.events(kind="watchdog_tripped")
    assert len(tripped) == 1
    assert tripped[0]["stalled_shard"] == 0

    doc = json.loads(dump.read_text())
    assert doc["category"] == "stall"
    assert doc["stuck_shard"] == 0
    assert doc["in_flight"].startswith("pair ")
    # The leg round has a ring of its own, as shard -1.
    assert set(doc["rings"]) == {"-1", "0", "1"}
    assert doc["rings"]["0"]["events"], "stuck shard streamed nothing"
    assert "heartbeats" in doc and "0" in doc["heartbeats"]


def test_a_chunk_that_never_arrives_fails_the_merge(fingerprints, monkeypatch):
    """However a chunk's rows go missing, a shard whose rows fall short
    of the pairs it attempted fails the run instead of truncating it."""

    def drop_first_chunk(work):
        def dropping(job, next_task, send):
            dropped = []

            def lossy(msg):
                if msg[0] == "chunk" and not dropped:
                    dropped.append(msg)
                    return
                send(msg)

            return work(job, next_task, lossy)

        return dropping

    worker_fault(monkeypatch, "shard 0 worker", drop_first_chunk)
    lost = r"shard 0 shipped \d+ rows for \d+ pairs attempted"
    with pytest.raises(MeasurementError, match=lost):
        _run("pair round", fingerprints, None)


def test_pair_workers_without_their_leg_cache_fail_the_run(fingerprints, monkeypatch):
    """Both pair workers' leg estimates are lost after the barrier, so
    whichever claims a chunk would rebuild its legs: the guard fails
    the run."""

    def lose_leg_cache(work):
        def sabotaged(job, next_task, send):
            job.leg_estimates = {}
            return work(job, next_task, send)

        return sabotaged

    for worker in (0, 1):
        worker_fault(monkeypatch, f"shard {worker} worker", lose_leg_cache)
    with pytest.raises(MeasurementError, match="leg phase should have pre-warmed"):
        _run("pair round", fingerprints, None)


def test_chunks_that_arrive_out_of_order_merge_in_pair_order(fingerprints, monkeypatch):
    """Whatever order a worker's chunks reach home in, its rows merge in
    pair-list order: both workers here hold every chunk back and send
    them last first."""

    def last_first(work):
        def reordering(job, next_task, send):
            held = []

            def hold(msg):
                if msg[0] == "chunk":
                    held.insert(0, msg)
                else:
                    send(msg)

            result = work(job, next_task, hold)
            for msg in held:
                send(msg)
            return result

        return reordering

    for worker in (0, 1):
        worker_fault(monkeypatch, f"shard {worker} worker", last_first)
    campaign = shard_campaign(fingerprints, steal_chunk_pairs=1)
    report = campaign.run()
    assert report.pairs_measured == 10
    order = {pair: i for i, pair in enumerate(campaign.pairs)}
    for shard in report.shards:
        positions = [order[a, b] for a, b, _ in shard.entries]
        assert positions == sorted(positions)
