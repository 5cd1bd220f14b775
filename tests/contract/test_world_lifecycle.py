"""Contract: a world a forked run kept is the world a fresh build makes.

A forked ``ShardedCampaign.run`` never runs a task on the parent's
world, so the process keeps that world in a one-slot keeper under the
factory's recipe (a hashable ``functools.partial``), and the next run
to fork with an equal recipe takes it instead of building. This file
holds the keeper to that with ``==``:

* the second run, on the kept world, equals the first, on a fresh
  build: matrix bytes, failures, provenance rows, event and cell
  counts, the merged registry, spans and bus, with ``observe=True`` and
  with a :class:`CampaignTelemetry`; and it reads ``build_s == 0.0``;
* the kept world's digest equals a fresh build's
  (``tests/testbeds/test_build_identity.world_digest``);
* nothing is kept after a run whose worker ran in this process — inline,
  one worker, a one-CPU clamp, a platform without fork (told by what the
  pool did, even with the counts blinded), a round with no chunks —
  after a worker that raises, or after a world whose events or cells
  moved;
* a factory with no recipe (a lambda, an unhashable partial) builds on
  every run, and a second recipe evicts the first.

Forked workers here take their chunks by the inline deal (worker *i*
runs ``chunks[i::W]``) rather than by stealing, so that the merged
snapshots of two runs are comparable row for row; that stealing cannot
show in the data is ``test_task_purity.py``'s contract.
"""

from __future__ import annotations

import functools
import multiprocessing
import sys
from pathlib import Path

import pytest
from conftest import WORKER_FAULTS, worker_fault

from repro.core import shard
from repro.core.sampling import AdaptiveSpec, SamplePolicy
from repro.core.shard import CampaignTelemetry, ShardedCampaign
from repro.testbeds.livetor import LiveTorTestbed
from repro.util.errors import MeasurementError

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "testbeds"))
from test_build_identity import world_digest  # noqa: E402

SEED = 9
N_RELAYS = 30
POLICY = SamplePolicy(
    samples=5,
    interval_ms=None,
    adaptive=AdaptiveSpec(absolute_ms=1.0, min_samples=2, patience=2, confirm_k=2),
)

#: Keyword arguments of every build :func:`_counted_build` made.
BUILDS: list[dict] = []


def _counted_build(**kwargs):
    BUILDS.append(kwargs)
    return LiveTorTestbed.build(**kwargs)


def _factory(seed: int = SEED):
    return functools.partial(_counted_build, seed=seed, n_relays=N_RELAYS)


@pytest.fixture(autouse=True)
def no_builds_yet():
    """``tests/conftest.py`` empties the slot around each test."""
    BUILDS.clear()


@pytest.fixture(scope="module")
def fingerprints():
    return _fps(SEED)


def _campaign(factory, fingerprints, **kwargs) -> ShardedCampaign:
    kwargs.setdefault("workers", 2)
    return ShardedCampaign(
        factory, fingerprints, policy=POLICY, steal_chunk_pairs=4, **kwargs
    )


@pytest.fixture
def dealt(monkeypatch):
    """Forked workers take the inline deal of their round's chunks."""
    real = shard._run_worker
    deals: dict[str, tuple[list, int]] = {}

    def work(job, next_task, send):
        chunks, workers = deals[job.round]
        return real(job, iter([*chunks[job.worker :: workers], None]).__next__, send)

    def arm(campaign: ShardedCampaign) -> ShardedCampaign:
        for kind, chunks in ((shard.LEG_ROUND, campaign.leg_chunks()),
                             (shard.PAIR_ROUND, campaign.pair_chunks())):
            deals[kind] = (chunks, campaign._forked_workers(len(chunks)))
        return campaign

    monkeypatch.setattr(shard, "_run_worker", work)
    return arm


def _ring(snapshot: dict) -> dict:
    """A bus snapshot without the wall-clock stamp of each event."""
    events = [
        {k: v for k, v in event.items() if k != "wall_s"}
        for event in snapshot["ring"]["events"]
    ]
    return {**snapshot, "ring": {**snapshot["ring"], "events": events}}


def _outcome(report) -> dict:
    """Everything of a run that must not tell a kept world from a fresh one."""
    outcome = {
        "matrix": report.matrix.as_array().tobytes(),
        "failures": report.failures,
        "events": report.events_processed,
        "cells": report.cells_processed,
        "probes": (
            report.probes_sent, report.probes_saved, report.early_stops,
            report.legs_measured, report.pairs_attempted, report.pairs_measured,
        ),
        "per_worker": [
            (r.shard_index, r.events_processed, r.cells_processed, r.chunks,
             r.entries, r.failures)
            for r in [report.leg_phase, *report.shards]
        ],
    }
    if report.metrics is not None:
        outcome.update(
            registry=report.metrics.snapshot(),
            spans=report.spans.snapshot(),
            bus=_ring(report.events.snapshot()),
            pair_rows=[repr(row) for row in report.provenance],
            leg_rows=[repr(leg) for leg in report.provenance.legs()],
        )
    if report.progress is not None:
        outcome.update(
            progress=report.progress.totals(),
            stream=report.stream.snapshot()["counts"],
        )
    return outcome


# ----------------------------------------------------------------------
# Run 2 on the kept world == run 1 on a fresh build


@pytest.mark.parametrize("mode", ["observe", "telemetry"])
def test_the_second_run_on_the_kept_world_equals_the_first(mode, fingerprints, dealt):
    def run():
        kwargs = {"observe": True} if mode == "observe" else {
            "telemetry": CampaignTelemetry(heartbeat_s=0.0, stall_timeout_s=None)
        }
        return dealt(_campaign(_factory(), fingerprints, **kwargs)).run()

    first = run()
    assert len(BUILDS) == 1 and first.build_s > 0.0
    assert shard._kept is not None
    second = run()
    assert len(BUILDS) == 1, "the second run built a world"
    assert second.build_s == 0.0
    assert _outcome(second) == _outcome(first)
    assert first.pairs_measured > 0


def test_the_kept_world_is_a_fresh_build(fingerprints):
    _campaign(_factory(), fingerprints, observe=True).run()
    recipe, kept = shard._kept
    assert recipe == shard._recipe(_factory())
    assert world_digest(kept) == world_digest(
        LiveTorTestbed.build(seed=SEED, n_relays=N_RELAYS)
    )


def test_two_runs_never_hold_one_world(fingerprints):
    _campaign(_factory(), fingerprints).run()
    kept = shard._kept[1]
    assert shard._take(shard._recipe(_factory())) is kept
    assert shard._kept is None
    assert shard._take(shard._recipe(_factory())) is None


# ----------------------------------------------------------------------
# What uses a world up


@pytest.mark.parametrize(
    "kwargs",
    [{"force_inline": True}, {"workers": 1}, {"workers": 0}],
    ids=["force_inline", "workers_1", "workers_0"],
)
def test_an_inline_run_keeps_nothing_and_takes_nothing(kwargs, fingerprints):
    _campaign(_factory(), fingerprints, **kwargs).run()
    assert shard._kept is None
    _campaign(_factory(), fingerprints).run()
    kept = shard._kept
    report = _campaign(_factory(), fingerprints, **kwargs).run()
    assert report.build_s > 0.0 and shard._kept is kept
    assert len(BUILDS) == 3


def test_a_one_cpu_clamp_keeps_nothing(fingerprints, monkeypatch):
    monkeypatch.setattr(shard, "_schedulable_cpus", lambda: 1)
    _campaign(_factory(), fingerprints, clamp_to_cpus=True).run()
    assert shard._kept is None


@pytest.mark.parametrize("witness", ["counts", "blind"])
def test_a_platform_without_fork_uses_the_taken_world_up(
    witness, fingerprints, monkeypatch
):
    _campaign(_factory(), fingerprints).run()
    assert shard._kept is not None

    def no_fork(method=None):
        raise ValueError(f"cannot find context for {method!r}")

    monkeypatch.setattr(multiprocessing, "get_context", no_fork)
    if witness == "blind":
        # What the pool did decides on its own, without the counts.
        monkeypatch.setattr(shard, "_witness", lambda testbed: (0, 0))
    report = _campaign(_factory(), fingerprints).run()
    # Predicted to fork, so it took the world; it ran inline on it.
    assert report.build_s == 0.0 and len(BUILDS) == 1
    assert shard._kept is None


def test_a_worker_that_raises_uses_the_taken_world_up(fingerprints, monkeypatch):
    _campaign(_factory(), fingerprints).run()
    worker_fault(monkeypatch, "shard 0 worker", WORKER_FAULTS["raise"])
    with pytest.raises(MeasurementError, match="shard 0 worker failed"):
        _campaign(_factory(), fingerprints).run()
    assert shard._kept is None


def test_a_round_with_no_chunks_keeps_nothing(fingerprints):
    report = _campaign(_factory(), fingerprints, pairs=[]).run()
    assert report.pairs_attempted == 0
    assert shard._kept is None


@pytest.mark.parametrize("moved", ["events", "cells"])
def test_a_world_whose_counts_moved_is_not_kept(moved, fingerprints, monkeypatch):
    real = ShardedCampaign._run_rounds

    def touched(self, rounds, forks, testbed, *rest):
        result = real(self, rounds, forks, testbed, *rest)
        # What a task run on the parent's world would leave behind.
        if moved == "events":
            testbed.sim.schedule(0.0, lambda: None)
            testbed.sim.run()
        else:
            testbed.relays[0].cells_processed += 1
        return result

    monkeypatch.setattr(ShardedCampaign, "_run_rounds", touched)
    _campaign(_factory(), fingerprints).run()
    assert shard._kept is None


# ----------------------------------------------------------------------
# Recipes


def test_a_lambda_factory_builds_on_every_run(fingerprints):
    factory = lambda: _counted_build(seed=SEED, n_relays=N_RELAYS)  # noqa: E731
    for _ in range(2):
        assert _campaign(factory, fingerprints).run().build_s > 0.0
    assert len(BUILDS) == 2 and shard._kept is None


def test_an_unhashable_partial_builds_on_every_run(fingerprints):
    def build(seed, sizes):
        return _counted_build(seed=seed, n_relays=sizes[0])

    factory = functools.partial(build, seed=SEED, sizes=[N_RELAYS])
    assert shard._recipe(factory) is None
    for _ in range(2):
        _campaign(factory, fingerprints).run()
    assert len(BUILDS) == 2 and shard._kept is None


def test_equal_partials_share_a_recipe_and_a_second_recipe_evicts_the_first():
    first, second = _factory(SEED), _factory(SEED + 1)
    assert shard._recipe(first) == shard._recipe(
        functools.partial(_counted_build, n_relays=N_RELAYS, seed=SEED)
    )
    _campaign(first, _fps(SEED)).run()
    assert shard._kept[0] == shard._recipe(first)
    _campaign(second, _fps(SEED + 1)).run()
    assert shard._kept[0] == shard._recipe(second)
    assert _campaign(first, _fps(SEED)).run().build_s > 0.0
    assert [build["seed"] for build in BUILDS] == [SEED, SEED + 1, SEED]


def _fps(seed: int) -> list[str]:
    testbed = LiveTorTestbed.build(seed=seed, n_relays=N_RELAYS)
    return [relay.fingerprint for relay in testbed.relays][:8]
