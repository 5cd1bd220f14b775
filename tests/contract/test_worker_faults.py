"""Contract: a worker fault fails its run fast, by name, and categorized.

The leg round, the pair round and ``QueryServer.batch`` fork through one
pool (``repro.util.cpus.run_pool``). Each fault below is injected at the
pool's one seam, the forked child's entry, where it replaces what the
worker runs and nothing else:

* **kill** — SIGKILL after claiming a task: ``died without a result
  (exit code -9)`` within the pool's death grace;
* **raise** — ``failed: RuntimeError: …`` at once;
* **hang** — ``exceeded the 2.0s deadline`` (campaigns only: ``batch``
  has no deadline, so a wedged serve worker blocks it);
* **slow** — a straggler: the result ``==`` a healthy run's;
* **unpicklable** result — ``failed: PicklingError: …`` at once, not a
  clean exit read as a death.

Every failure is a ``MeasurementError`` naming its round and worker that
``categorize_failure`` files under ``shard``, raised well inside
``FAIL_FAST_S``. A worker wedged inside a pair trips the stall watchdog
instead (``stall``, with its post-mortem), and one failing serve worker
fails the batch at once however many siblings are wedged.
"""

from __future__ import annotations

import functools
import json
import signal
import time

import numpy as np
import pytest
from conftest import WORKER_FAULTS, WORKER_NAMES, wedge_in_pair, worker_fault

from repro.core.dataset import RttMatrix
from repro.core.sampling import SamplePolicy
from repro.core.shard import CampaignTelemetry, ShardedCampaign
from repro.obs import EventBus, categorize_failure
from repro.serve import MatrixIndex, QueryServer
from repro.testbeds.livetor import LiveTorTestbed
from repro.util.errors import MeasurementError

SEED = 3
N_RELAYS = 14
POLICY = SamplePolicy(samples=3, interval_ms=2.0)
FACTORY = functools.partial(LiveTorTestbed.build, seed=SEED, n_relays=N_RELAYS)

#: Generous CI bound: every fault below must fail well under this.
FAIL_FAST_S = 30.0
DEADLINE_S = 2.0


@pytest.fixture(scope="module")
def fingerprints():
    testbed = FACTORY()
    descriptors = testbed.random_relays(5, testbed.streams.get("shard.sel"))
    return [d.fingerprint for d in descriptors]


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
    report = ShardedCampaign(
        FACTORY, fingerprints, policy=POLICY, workers=2, steal_chunk_pairs=1,
        **kwargs,
    ).run()
    return report.matrix.as_array()


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
}

CASES = [
    (site, fault)
    for site in WORKER_NAMES
    for fault in WORKER_FAULTS
    if (site, fault) != ("serve", "hang")
]


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
