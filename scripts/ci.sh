#!/usr/bin/env bash
# Single CI entry point: tier-1 tests, hot-path benchguards and the
# benchmark smoke run. Run from the repository root:
#
#   scripts/ci.sh            # everything
#   scripts/ci.sh --fast     # tier-1 only (skip mutants, benchguards + bench smoke)
#
# REPRO_SCALE scales the benchguard workloads as usual.

set -euo pipefail
cd "$(dirname "$0")/.."

export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

fast=0
if [[ "${1:-}" == "--fast" ]]; then
    fast=1
fi

echo "== numpy draw identities and pinned worlds =="
# The build's draws rely on how numpy defines Generator.choice / uniform
# (repro.util.rng). Run first and under its own name, with the numpy
# version printed, so a numpy bump that breaks an identity is reported
# as that, not as a wall of moved campaign numbers (tier-1 runs both
# files again).
python -c "import numpy; print('numpy', numpy.__version__)"
python -m pytest tests/netsim/test_rng_identities.py tests/testbeds/test_build_identity.py -x -q

echo "== draw blocks =="
# Per-packet draws come a block at a time from one Philox re-keyed in
# place: its key, counter and buffer_pos words, located once per process
# in the object's bytes (repro.util.rng.locate_philox_words) and checked
# against the public state getter. A numpy that moves them fails here,
# named, not as a wall of moved floats. Printed: where the words sit and
# what a block costs, normalised to the bench's reference loop — a
# single read, and one block of a 200-block run (a round walk's read).
python -c "
import sys, timeit
sys.path.insert(0, 'bench')
import numpy as np
from harness import normalise, spin_ms
from repro.util.rng import BLOCK_WORDS, DrawSource, _philox_layout
stream = DrawSource(47).stream('relay:ci')
u, e = np.empty(200 * BLOCK_WORDS), np.empty(200 * BLOCK_WORDS)
spin_ms()  # the first reading runs cold
before = spin_ms()
single = min(timeit.repeat(lambda: stream.read(0), number=2_000, repeat=5)) / 2_000
run = min(timeit.repeat(lambda: stream.read_run(0, u, e), number=20, repeat=5)) / 20 / 200
after = spin_ms()
window, pos = _philox_layout()
print(f'numpy {np.__version__}: Philox key+counter at byte {window}, buffer_pos at {pos}; '
      f'normalised {normalise(single, before, after) * 1e6:.2f} us per single block, '
      f'{normalise(run, before, after) * 1e6:.2f} us per block of a 200-block run')"
python -m pytest -x -q "tests/netsim/test_rng.py::TestBlockReader" \
    tests/contract/test_task_purity.py -k "TestBlockReader or fresh_philox or rekeys or rewind_across"
# The public Philox.state setter (≈ 30% of a block) is the locator's
# alone: any other assignment to a .state under src/ must be a string.
python -c "
import ast, pathlib
found = []
for path in sorted(pathlib.Path('src').rglob('*.py')):
    nodes = list(ast.walk(ast.parse(path.read_text())))
    funcs = [n for n in nodes if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))]
    for node in nodes:
        if not isinstance(node, ast.Assign) or (
            isinstance(node.value, ast.Constant) and isinstance(node.value.value, str)
        ):
            continue
        if any(isinstance(t, ast.Attribute) and t.attr == 'state' for t in node.targets):
            inside = [f.name for f in funcs if f.lineno <= node.lineno <= f.end_lineno]
            found.append((str(path), inside[-1] if inside else None))
assert found == [('src/repro/util/rng.py', '_philox_layout')], (
    f'a .state set under src/ outside the locator: {found}')
print('Philox.state setter: the locator only')"

echo "== pinned engine measurements =="
# What the campaign scheduler (in each task order: sequential, budgeted,
# concurrent, isolated, sharded) and the two baseline measurers
# measure on those worlds — matrix bytes, clocks, registry counters, and
# the callback engines' spans, provenance and bus records — against
# digests taken at the last re-pin (PR 22: draws keyed by entity, a
# task-local clock), and what the simulator spent measuring it (events processed
# and cancelled, heap peak) against work tuples that may only fall by
# an asserted formula. Under its own heading for the same reason: a
# moved draw or event is reported as that.
python -m pytest tests/core/test_engine_identity.py -x -q
# The engine drives only the onion proxy's callbacks, so a pair launch
# never runs the simulator itself and may start inside an event — circuit
# reuse's TRUNCATE/EXTEND included. No code under repro.core may reach
# for the host's Stem-like controller (measurement_host.py, which makes
# it, is the one exception), and a reuse pair launched from inside an
# event must equal measure_pair on a twin world.
if grep -rnw controller src/repro/core --include='*.py' \
        | grep -v '^src/repro/core/measurement_host\.py:'; then
    echo "repro.core references the controller (above): drive the proxy's callbacks" >&2
    exit 1
fi
python -m pytest "tests/core/test_ting.py::TestCircuitReuse::test_reuse_pair_launches_inside_an_event" -x -q

echo "== probe flight contract =="
# A lone echo cell on a quiet simulator crosses its circuit in one event
# (a probe flight, repro.tor.flight.Probe) instead of 4 x hops + 1. The differential that holds
# the shortcut to the cell path, bit for bit — RTTs, clock, every draw
# stream, queues, counters — on its own, for the same reason as above:
# a flight that drifts from the cells is reported as that. Then the
# chart a flight remembers (Probe.charted, keyed by the fabric's
# wiring epoch) held to a fresh chart at every use and after every
# event, over the same cases and every kind of write that moves it.
python -m pytest tests/contract/test_probe_flight.py tests/contract/test_chart_memo.py -x -q
# What the memo, the inline ping-pong send and the round walk buy,
# counted: charts made per flown probe, simulator events per probe, and
# round walks (Probe.walk_round: how many, probes each held, and
# the events of a probe round that one walk landed in one event — 2: its
# first send and the landing), on the planner smoke's world (below)
# measured the highacc_serial way — 200 ping-pong samples per circuit —
# and the same campaign as cells beside it: equal RTT lists, clock and
# draw positions.
# The planner smoke's own 2 ms trains fly nothing. Counted here, not by
# a registry counter (one would have to join the flight contract's
# FLIGHT_COUNTERS).
python - <<'PY'
from repro.core.campaign import AllPairsCampaign
from repro.core.sampling import SamplePolicy
from repro.core.ting import TingMeasurer
from repro.echo.client import EchoClient
from repro.testbeds.livetor import LiveTorTestbed
from repro.tor import flight
from repro.tor.flight import Probe

charts, walks, walked_at, round_events, rounds = [], [], [], [], []
chart, walk, probe_async = flight._chart, Probe.walk_round, EchoClient.probe_async
account, launch = TingMeasurer.account, Probe.launch


def walked(self, left):
    held = walk(self, left)
    if held:
        walks.append(held)
        walked_at.append(self.proxy.sim.events_processed)
    return held


def counted(self, stream, samples, on_done, *args, **kwargs):
    # A probe round one walk landed whole: its events from the send that
    # walked it to the landing, both counted only once they return.
    walked_before = len(walks)

    def done(result):
        if len(walks) == walked_before + 1 and walks[-1] == result.received:
            round_events.append(self.sim.events_processed - walked_at[-1] + 1)
        on_done(result)

    return probe_async(self, stream, samples, done, *args, **kwargs)


flight._chart = lambda *args: charts.append(1) or chart(*args)
Probe.walk_round, EchoClient.probe_async = walked, counted
TingMeasurer.account = lambda self, result: rounds.append(result.rtts_ms) or account(self, result)


def campaign():
    testbed = LiveTorTestbed.build(seed=11, n_relays=320, service_queues=True)
    registry = testbed.measurement.enable_observability()
    relays = testbed.random_relays(4, testbed.streams.get("ci.flight"))
    events = testbed.sim.events_processed
    report = AllPairsCampaign(
        TingMeasurer(testbed.measurement, policy=SamplePolicy.serial(200)), relays
    ).run()
    streams = testbed.streams.draws._streams
    return (
        report, registry.counter("echo.probes_flown"),
        testbed.sim.events_processed - events, list(rounds), repr(testbed.sim.now),
        {name: (draws.base, draws.pos) for name, draws in streams.items()},
    )


report, flown, events, flown_rounds, *flown_end = campaign()
made = len(charts)
rounds.clear()
Probe.launch = lambda self: False
*_, cell_rounds, cell_clock, cell_draws = campaign()
Probe.launch = launch
assert report.pairs_measured == 6 and flown > 0, (report.pairs_measured, flown)
assert flown_rounds == cell_rounds, "a flown round's RTTs differ from the cells'"
assert flown_end == [cell_clock, cell_draws], "flown clock / draw positions != cells'"
print(f"probe flights, ping-pong on the planner smoke's world: {flown} flown / "
      f"{report.probes_sent} sent, {made / flown:.4f} charts per flown "
      f"probe, {events / report.probes_sent:.3f} events per probe "
      f"({events} events, circuit builds included)")
assert round_events and set(round_events) == {2}, round_events
print(f"round walks: {len(walks)} walks, {sum(walks) / len(walks):.1f} probes per "
      f"walk; {len(round_events)} probe rounds landed by one walk, "
      f"{round_events[0]} events each; {len(flown_rounds)} rounds == as cells: "
      f"RTT lists, clock, {len(cell_draws)} draw positions")
PY
# A walked round lands once (Probe.landed hands its replies over as one
# list): no chain of flights is held in the engine any more.
if grep -rn '\.hold(' src; then
    echo "Simulator.hold is gone: a walked round is one flight" >&2
    exit 1
fi
# The chart has one caller, the memo: a second would chart past it.
callers=$(grep -rn '[^[:alnum:]_.]_chart(' src | grep -vc 'def _chart(' || true)
if [[ "$callers" -ne 1 ]]; then
    echo "repro.tor.flight._chart has $callers callers under src/; Probe.charted is the one" >&2
    exit 1
fi
# Flights have one launch: nothing under src/ but the flight module
# launches one (Simulator.launch_flight).
if grep -rn 'launch_flight(' src | grep -v '^src/repro/tor/flight.py:' | grep -v 'def launch_flight('; then
    echo "only repro/tor/flight.py may call launch_flight (above)" >&2
    exit 1
fi
# A circuit's CREATE, each EXTEND and its BEGIN, answered in one event on
# a quiet simulator (a set-up flight, repro.tor.flight.SetUp: the far end's new OR or TCP
# connection and CREATE/CREATED walked too). The differential that holds
# it to the cell path, bit for bit — RTTs, clock, draw positions,
# connections, relay and proxy tables, counters — then the set-up
# flights flown and refused and the events per isolated task on the
# planner smoke's world, as cells beside it.
python -m pytest tests/contract/test_set_up_flight.py -x -q
python - <<'PY'
from repro.core.planner import CampaignPlanner
from repro.core.sampling import SamplePolicy
from repro.core.shard import ShardedCampaign
from repro.testbeds.livetor import LiveTorTestbed
from repro.tor.flight import SetUp

launch, sent = SetUp.launch, []


def counted(self):
    sent.append(launch(self))
    return sent[-1]


def campaign():
    world = LiveTorTestbed.build(seed=11, n_relays=320)
    fps = [d.fingerprint for d in world.random_relays(300, world.streams.get("ci.plan"))]
    pairs = CampaignPlanner(fps, seed=11).plan(budget_pairs=40).pairs
    report = ShardedCampaign(
        lambda: world, fps, policy=SamplePolicy(samples=3, interval_ms=2.0),
        pairs=pairs, workers=1, force_inline=True,
    ).run()
    tasks = report.pairs_measured + report.legs_measured
    return report.matrix.as_array().tobytes(), report.events_processed, tasks


SetUp.launch = counted
matrix, events, tasks = campaign()
SetUp.launch = lambda self: False
cells, cell_events, _ = campaign()
SetUp.launch = launch
assert matrix == cells, "a set-up flight moved a measured RTT"
print(f"set-up flights, isolated tasks on the planner smoke's world: "
      f"{sum(sent)} flown / {len(sent) - sum(sent)} refused; "
      f"{events / tasks:.1f} events per task ({cell_events / tasks:.1f} as cells, "
      f"{tasks} tasks), matrices equal")
PY
# The scalar walk (repro.tor.flight._walk) is the one copy of arrival_ms /
# ready_ms's arithmetic a flight makes: probe and set-up flights share it.
for line in 'last_arrival + 1e-6 > at' '_queue_head + 1e-6 > at'; do
    copies=$(grep -rnF "$line" src | wc -l)
    if [[ "$copies" -ne 1 ]]; then
        echo "the scalar walk's '$line' appears $copies times under src/; _walk is the one" >&2
        exit 1
    fi
done

echo "== cell path =="
# Most (≈ 80%) of a dense campaign's events are cells crossing relay hops
# (StreamConnection._receive, then Relay._process_cell). The guard that
# pins the Python calls they cost and the Cell objects they make (one
# per cell originated: a relay forwards the cell it holds) with ==, on
# its own for the same reason as above: a seam that adds a frame to
# every hop is reported as that, not as a few percent of bench drift.
# Then the counts, per event and per relay-processed cell, printed.
python -m pytest tests/tor/test_cell_path_calls.py -x -q
python tests/tor/test_cell_path_calls.py

echo "== task purity =="
# Under task isolation a measurement is a function of its task alone:
# clock restarted at zero, draws keyed by (root seed, entity, task key),
# its own connections torn down by itself. The contract that holds the
# sharded engine to it with == (no tolerance, no rounding) across forked
# workers, the inline emulation, one worker and an unsharded isolated
# campaign — the sharded engine's one invariance check —, and the draw
# source to the rule it states — on its own, as above: a task that leaks
# into the next is reported as that. Then the benchmark's pipeline world
# at the seed that used to violate it (6) and at 47, printed.
python -m pytest tests/contract/test_task_purity.py -x -q
python - <<'PY'
import functools

import numpy as np

from repro.core.planner import CampaignPlanner
from repro.core.sampling import SamplePolicy
from repro.core.shard import ShardedCampaign
from repro.testbeds.livetor import LiveTorTestbed

for seed in (6, 47):
    factory = functools.partial(LiveTorTestbed.build, seed=seed, n_relays=1015)
    world = factory()
    relays = world.random_relays(1000, world.streams.get("bench.campaign"))
    fps = [descriptor.fingerprint for descriptor in relays]
    pairs = CampaignPlanner(fps, seed=seed).plan(budget_pairs=150).pairs
    runs = {
        name: ShardedCampaign(
            factory, fps, policy=SamplePolicy(samples=4, interval_ms=2.0),
            pairs=pairs, **kwargs,
        ).run()
        for name, kwargs in (
            ("forked", {"workers": 2}),
            ("inline", {"workers": 2, "force_inline": True}),
            ("workers=1", {"workers": 1}),
        )
    }
    forked = runs["forked"].matrix.as_array()
    equal = all(
        np.array_equal(forked, run.matrix.as_array(), equal_nan=True)
        for run in runs.values()
    )
    events = {name: run.events_processed for name, run in runs.items()}
    print(f"seed {seed:>2}: events {events}  matrices equal: {equal}")
    assert equal and len(set(events.values())) == 1, (seed, events)
PY

echo "== sparse tail contract =="
# Plan, quality and health read the dataset's measured set, not its
# matrix. The differential that holds them to the dense code they
# replaced (frozen in the test file) — same pairs, scores, breakdown,
# quality accessors and scorecard dict — and the guard that their
# containers and allocations do not grow with the relay count, on their
# own for the same reason as above: a moved plan is reported as that,
# not as a wall of moved campaign numbers.
python -m pytest tests/contract/test_sparse_tail.py tests/core/test_tail_scaling.py -x -q
# The paper-scale rung, printed and never gated until bench/ carries a
# pipeline_paperscale workload: the benchmark's 100 + 50-pair cycle on
# a synthetic dataset (no simulation), one process per size so that
# ru_maxrss is that size's own.
for relays in 1000 6500; do
python - "$relays" <<'PY'
import resource, sys, time

import numpy as np

from repro.core.dataset import CampaignDataset, PairProvenance, ProvenanceLog, RttMatrix
from repro.core.planner import CampaignPlanner
from repro.obs.health import health_report

n = int(sys.argv[1])
fps = [f"{k:040X}" for k in range(n)]
rng = np.random.default_rng(47)
walls = {}


def timed(name, call):
    start = time.perf_counter()
    result = call()
    walls[name] = time.perf_counter() - start
    return result


def measure(pairs):
    fresh, log = RttMatrix(fps), ProvenanceLog()
    for x, y in pairs:
        rtt = float(rng.uniform(5.0, 300.0))
        fresh.set(x, y, rtt)
        log.add(PairProvenance(x=x, y=y, rtt_ms=rtt, samples_requested=4, samples_kept=4))
    return fresh, log


plan = timed("plan-cold", lambda: CampaignPlanner(fps, seed=47).plan(budget_pairs=100))
dataset = CampaignDataset(matrix=RttMatrix(fps))
dataset.absorb(*measure(plan.pairs))
quality = timed("quality", dataset.quality)
replan = timed("plan-refresh", lambda: CampaignPlanner(
    fps, dataset=dataset, seed=48, quality=quality).plan(budget_pairs=50))
dataset.absorb(*measure(replan.pairs))
report = timed("health", lambda: health_report(dataset))
assert (len(plan.pairs), len(replan.pairs), report.ok) == (100, 50, True)
rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
print(f"tail cycle, {n:>5} relays: "
      + "  ".join(f"{name} {wall:.3f}s" for name, wall in walls.items())
      + f"  sum {sum(walls.values()):.2f}s  ru_maxrss {rss_mb:.0f} MB")
PY
done

echo "== merge algebra =="
# Every sink crosses a fork boundary by one protocol — snapshot() /
# merge_snapshot(snap, shard=) — and the fold is associative, commutative
# on what is declared order-free, with the empty and null snapshots as
# identities. On its own for the same reason as above: a sink whose
# merge drifts is reported as that, not as a wall of moved shard counters.
python -m pytest tests/contract/test_merge_algebra.py -x -q
# The fourth sink (the trace ring, retired in PR 23) stays retired. The
# bracketed letters keep this line out of a grep for the same names.
if grep -rnE 'Trace[L]og|NULL_[T]RACE|\.trace\.[r]ecord\(' src; then
    echo "the retired trace-log sink is back under src/" >&2
    exit 1
fi

echo "== worker faults =="
# The leg round, the pair round and QueryServer.batch fork through one
# pool (repro.util.cpus.run_pool; a sharded run's two rounds are two
# phases of one pool, past a barrier). The matrix that holds it to its
# contract — kill -9, raise, hang, slow and an unpicklable result at
# each site, injected at the pool's one seam, each failing fast with a
# categorized error naming its round and worker, and a worker wedged
# inside a pair tripping the stall watchdog with its post-mortem — on
# its own, under `timeout` as the backstop: a fault that regresses into
# a hang kills this step instead of stalling the pipeline. Faults come
# from tests, never from a config knob, and the fork boundary stays one.
timeout 300 python -m pytest tests/contract/test_worker_faults.py -x -q
# One pool per run: W children, not 2W; a child parked at the barrier
# is never silent; every deadline is per round.
timeout 120 python -m pytest tests/core/test_shard_one_pool.py -x -q
if grep -rn 'drill_' src; then
    echo "a fault-injection knob is back under src/" >&2
    exit 1
fi
forks=$(grep -rn 'get_context("fork")' src | wc -l)
if [[ "$forks" -gt 1 ]]; then
    echo "get_context(\"fork\") appears $forks times under src/; the pool is the one fork" >&2
    exit 1
fi
# Worker silence is measured once, per slot, by the pool's silence_s:
# no watch hook on run_pool and no second clock beside the pool's.
timeout 60 python -m pytest tests/core/test_shard_telemetry.py -x -q -k PerWorkerSilence
if grep -rnE 'watch=|def watch' src; then
    echo "a watch hook is back under src/; the pool's silence_s is the one silence rule" >&2
    exit 1
fi
if grep -rnF -e 'last_seen' -e 'heard[' src | grep -v '^src/repro/util/cpus.py:'; then
    echo "a silence clock outside repro/util/cpus.py; the pool keeps the only one" >&2
    exit 1
fi

echo "== one dataset file =="
# npz is the only dataset file, written and read: `measure --output`
# saves a CampaignDataset, and tiv, deanon and `report --input` all read
# that one file. The JSON writers, the JSON reader (a JSON dataset is
# refused, naming the conversion), a `format=` on CampaignDataset.save
# and the control-port grammar must not come back; the controller keeps
# only its Stem verbs.
one=$(mktemp -d)/campaign.npz
python -m repro.cli -q measure --relays 5 --network-size 20 --samples 6 --output "$one"
python -m repro.cli -q tiv "$one"
python -m repro.cli -q deanon "$one" --runs 20
python -m repro.cli -q report --input "$one" >/dev/null
python - "$one" <<'PY'
import ast, sys
with open(sys.argv[1], "rb") as handle:
    assert handle.read(4) == b"PK\x03\x04", "measure --output wrote no npz"
tree = ast.parse(open("src/repro/core/dataset.py").read())
(save,) = [
    node for cls in tree.body
    if isinstance(cls, ast.ClassDef) and cls.name == "CampaignDataset"
    for node in cls.body if isinstance(node, ast.FunctionDef) and node.name == "save"
]
args = [a.arg for a in save.args.args + save.args.kwonlyargs]
assert args == ["self", "path"], f"CampaignDataset.save takes {args}"
# Provenance is written only as npz columns: no JSON writer on the log
# or its records, and no JSON reader of a dataset, a matrix or a log.
methods = {
    (cls.name, node.name)
    for cls in tree.body if isinstance(cls, ast.ClassDef)
    for node in cls.body if isinstance(node, ast.FunctionDef)
}
writers = methods & {
    ("ProvenanceLog", "to_list"), ("ProvenanceLog", "legs_to_list"),
    ("PairProvenance", "to_dict"), ("LegProvenance", "to_dict"),
}
assert not writers, f"provenance JSON writers are back: {sorted(writers)}"
module_names = {
    node.name for node in tree.body if isinstance(node, ast.FunctionDef)
} | {
    node.id for node in ast.walk(tree)
    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)
}
readers = sorted(methods & {
    ("RttMatrix", "from_json"), ("CampaignDataset", "from_json"),
    ("ProvenanceLog", "from_list"),
}) + sorted(module_names & {"_from_legacy", "DATASET_FORMAT"})
assert not readers, f"the JSON dataset reader is back: {readers}"

# A JSON dataset of an earlier release is refused, naming the conversion.
import json, tempfile
from repro.core.dataset import CampaignDataset
from repro.util.errors import MeasurementError
with tempfile.NamedTemporaryFile("w", suffix=".json") as legacy:
    json.dump({"format": "ting-campaign/1", "meta": {},
               "matrix": {"nodes": ["a", "b"], "rtts_ms": [[0, 1.5], [1.5, 0]]}},
              legacy)
    legacy.flush()
    try:
        CampaignDataset.load(legacy.name)
    except MeasurementError as exc:
        assert "Converting a JSON dataset" in str(exc), f"names no conversion: {exc}"
    else:
        raise AssertionError("a ting-campaign/1 JSON document still loads")
print(f"one dataset file: {sys.argv[1]} is npz; CampaignDataset.save({', '.join(args[1:])}); "
      "a JSON dataset is refused")
PY
rm -r "$(dirname "$one")"
if grep -nE 'def to_json|raw_command' src/repro/core/dataset.py src/repro/tor/control.py; then
    echo "a JSON writer or the control-port grammar is back" >&2
    exit 1
fi

echo "== read-side memory =="
# save -> load(mmap=True) -> MatrixIndex.build at 4,000 relays, in a
# fresh process so that ru_maxrss is this sequence's own. Above the
# built dataset it may take 1.25x what the read side keeps: the mapped
# matrix, the index's sorted rows and their ranking (the narrowest
# unsigned type for n - 1) and the quality positions (the narrowest for
# the scored-pair count). A save that copies the matrix, or an n x n
# scratch in the build, breaks it.
python - <<'PY'
import resource, sys, tempfile, time
from pathlib import Path

import numpy as np

sys.path.insert(0, "tests/core")
from test_tail_scaling import _embedded_dataset

from repro.core.dataset import CampaignDataset
from repro.serve.index import MatrixIndex


def peak_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


n = 4000
_, dataset = _embedded_dataset(n)
built = peak_mb()
walls = {}


def timed(name, call):
    start = time.perf_counter()
    result = call()
    walls[name] = time.perf_counter() - start
    return result


with tempfile.TemporaryDirectory() as directory:
    path = Path(directory) / "ds.npz"
    timed("save", lambda: dataset.save(path))
    mapped = timed("load", lambda: CampaignDataset.load(path, mmap=True))
    timed("build", lambda: MatrixIndex.build(mapped))
    above = peak_mb() - built
scored = len(mapped.quality().pair_scores)
kept = (
    n * n * 8
    + n * (n - 1) * (8 + np.min_scalar_type(n - 1).itemsize)
    + n * n * np.min_scalar_type(scored).itemsize
) / 2**20
print(f"read side, {n} relays: " + "  ".join(f"{k} {v:.2f}s" for k, v in walls.items())
      + f"  peak RSS {above:.0f} MB above the built dataset, keeps {kept:.0f} MB"
      f" (ceiling 1.25x = {1.25 * kept:.0f} MB)")
assert above <= 1.25 * kept, f"the read side peaked {above:.0f} MB above the dataset"
PY

echo "== paper-scale cycle =="
# pipeline_fullnet's loop without the queries, at 6,500 relays, in a
# fresh process: plan 100 -> sharded run -> absorb -> quality -> refresh
# plan 50 -> adaptive sharded run -> absorb -> save -> load(mmap=True)
# -> health -> MatrixIndex.build. Printed: each stage's seconds and the
# ru_maxrss after it. Gated: the world builds and the fork pools. A
# forked run keeps the world its workers never touched and the refresh
# takes it, so with two or more CPUs the cycle builds once; on one CPU
# both runs are inline and build twice. Builds are counted through the
# factory's partial. A forked run is one pool, its leg round and pair
# round on the same children, so with two or more CPUs the cycle forks
# two pools (one per run; a pool per round made four), each fork
# copying the page tables of a parent past 1 GB. Pools and their
# children are counted by wrapping repro.core.shard.run_pool.
python - <<'PY'
import functools, resource, tempfile, time
from pathlib import Path

import repro.core.shard as shard
from repro.core.dataset import CampaignDataset, RttMatrix
from repro.core.planner import CampaignPlanner
from repro.core.sampling import AdaptiveSpec, SamplePolicy
from repro.core.shard import ShardedCampaign
from repro.obs.health import health_report
from repro.serve.index import MatrixIndex
from repro.testbeds.livetor import LiveTorTestbed
from repro.util.cpus import schedulable_cpu_count

RELAYS, SPARE, SEED = 6500, 15, 47
COLD = SamplePolicy(samples=4, interval_ms=2.0)
REFRESH = SamplePolicy(samples=4, interval_ms=None, adaptive=AdaptiveSpec(
    absolute_ms=1.0, min_samples=2, patience=2, confirm_k=2))
builds = []
pools = []  # children per forked pool
real_pool = shard.run_pool


def counted_build(**kwargs):
    builds.append(kwargs)
    return LiveTorTestbed.build(**kwargs)


def counted_pool(jobs, *args, **kwargs):
    if not kwargs.get("inline"):
        then = kwargs.get("then")
        pools.append(max(len(jobs), len(then.jobs) if then is not None else 0))
    return real_pool(jobs, *args, **kwargs)


shard.run_pool = counted_pool


factory = functools.partial(counted_build, seed=SEED, n_relays=RELAYS + SPARE)
world = LiveTorTestbed.build(seed=SEED, n_relays=RELAYS + SPARE)
fps = [d.fingerprint for d in world.random_relays(RELAYS, world.streams.get("bench.campaign"))]
del world
stages = []


def stage(name, call):
    start = time.perf_counter()
    result = call()
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    stages.append((name, time.perf_counter() - start, rss))
    return result


def run(pairs, policy):
    return ShardedCampaign(factory, fps, policy=policy, workers=2, pairs=pairs,
                           observe=True, clamp_to_cpus=True).run()


plan = stage("plan cold", lambda: CampaignPlanner(fps, seed=SEED).plan(budget_pairs=100))
cold = stage("run cold", lambda: run(plan.pairs, COLD))
dataset = CampaignDataset(matrix=RttMatrix(fps))
stage("absorb", lambda: dataset.absorb(cold.matrix, provenance=cold.provenance))
quality = stage("quality", dataset.quality)
replan = stage("plan refresh", lambda: CampaignPlanner(
    fps, dataset=dataset, seed=SEED + 1, quality=quality).plan(budget_pairs=50))
refresh = stage("run refresh", lambda: run(replan.pairs, REFRESH))
stage("absorb", lambda: dataset.absorb(refresh.matrix, provenance=refresh.provenance))
with tempfile.TemporaryDirectory() as directory:
    path = Path(directory) / "cycle.npz"
    stage("save", lambda: dataset.save(path))
    loaded = stage("load mmap", lambda: CampaignDataset.load(path, mmap=True))
    stage("health", lambda: health_report(loaded))
    stage("index build", lambda: MatrixIndex.build(loaded))
    del loaded
for name, wall, rss in stages:
    print(f"  {name:<13} {wall:7.3f} s   ru_maxrss {rss:6.0f} MB")
pairs = cold.pairs_attempted + refresh.pairs_attempted
cycle = sum(wall for _, wall, _ in stages)
print(f"paper-scale cycle, {RELAYS} relays: {cycle:.2f} s for {pairs} pairs"
      f" ({cycle / pairs * 1e6:,.0f} us/pair); build_s cold {cold.build_s:.3f}"
      f" refresh {refresh.build_s:.3f}; {len(builds)} world build(s);"
      f" {len(pools)} fork pool(s), {sum(pools)} children")
forked = schedulable_cpu_count() >= 2
expected = 1 if forked else 2
assert len(builds) == expected, f"{len(builds)} world builds, expected {expected}"
expected = 2 if forked else 0
assert len(pools) == expected, f"{len(pools)} fork pools, expected {expected}"
assert (cold.pairs_attempted, refresh.pairs_attempted) == (100, 50)
PY

echo "== source size (printed, never gated) =="
# ROADMAP item 8's target is src/ <= 19.0k lines (17.5k the stretch);
# the three engine files are where "one campaign scheduler" is counted
# (ROADMAP item 2's target), the obs package plus serve telemetry where
# "one merge protocol" is.
find src -name '*.py' -print0 | xargs -0 cat | wc -l | xargs echo "src/ total lines:"
wc -l src/repro/core/ting.py src/repro/core/campaign.py src/repro/core/parallel.py
cat src/repro/core/ting.py src/repro/core/campaign.py src/repro/core/parallel.py \
    | wc -l | xargs -I{} echo "engine files: {} lines (ROADMAP item 2 target: <= 1,400)"
cat src/repro/obs/*.py src/repro/serve/telemetry.py | wc -l \
    | xargs echo "src/repro/obs + serve/telemetry.py lines:"
# The two modules that lost their second path (JSON writing, the
# control-port grammar).
wc -l src/repro/core/dataset.py src/repro/tor/control.py
# The sharded engine and the one progress tally (ROADMAP item 4).
wc -l src/repro/core/shard.py src/repro/obs/events.py

echo "== cell cipher library and import hygiene =="
# The onion layers are the cryptography package's AES-CTR, each context
# made by the binding the public Cipher(...).encryptor() ends in. Same
# idea as above: a missing wheel, a release that moves that binding, an
# OpenSSL that disagrees with NIST SP 800-38A or a returning networkx
# (20 MB of RSS for a 50-node graph) is reported as that in the first
# second, not as a wall of failures. The price of one context is
# printed: µs and Python frames per LayerCipher.
python -c "
import sys, timeit
import cryptography
from cryptography.hazmat.backends.openssl.backend import backend
from repro.tor.crypto import LayerCipher
key = bytes(32)
LayerCipher(key)
frames = []
sys.setprofile(lambda frame, event, arg: frames.append(1) if event == 'call' else None)
LayerCipher(key)
sys.setprofile(None)
us = min(timeit.repeat(lambda: LayerCipher(key), number=10_000, repeat=5)) / 10_000 * 1e6
print('cryptography', cryptography.__version__, '/', backend.openssl_version_text(),
      f'/ LayerCipher: {us:.2f} us, {len(frames)} Python frames per context')"
python -m pytest tests/tor/test_crypto_equivalence.py -x -q \
    -k "nist or test_factory_is_the_public_paths"
python -c "
import sys, repro.testbeds.livetor, repro.serve
assert 'networkx' not in sys.modules, 'networkx is imported by the program again'
print('import hygiene: networkx not imported')"

echo "== tier-1 test suite =="
python -m pytest -x -q

if [[ "$fast" == "1" ]]; then
    echo "== fast mode: skipping mutants, benchguards and bench smoke =="
    exit 0
fi

echo "== mutants =="
# The mutation ledger (scripts/mutants.py): each one-line mutant applied
# to a copy of this tree, never to the tree itself, then tests/contract/,
# the shard test files and tests/obs/test_health.py under a no-shrink
# Hypothesis profile, each run capped at the script's CAP_S. Printed per
# mutant: the verdict, the seconds and the first test that killed it,
# then the totals. Fails on a survivor, a timeout, or a mutant whose
# text no longer occurs exactly once in its file: restate a stale
# mutant, and answer a survivor with a test or by deleting the code it
# shows nothing needs — never by deleting the mutant.
python scripts/mutants.py .

echo "== hot-path benchguards =="
# Includes the null-observability and null-event-bus overhead guards:
# the always-on telemetry call sites must stay under 2% of campaign wall;
# and the world-build guards (CDF bisect vs per-call Generator.choice,
# us per relay flat from 500 to 2,000 relays).
python -m pytest benchmarks -m benchguard -x -q

echo "== work-stealing chaos test =="
# The forked stealing path under an injected straggler: the merged
# matrix must be bit-identical to a healthy run, the fast worker must
# absorb the slow worker's share, and the leg phase must keep total
# leg builds pinned at n. Runs inside tier-1 too; gated explicitly so
# a future tier split cannot silently drop it. The scaling guard rides
# along: per-task resets and per-chunk result containers, counted
# exactly, must be the same at 40 and at 400 relays.
python -m pytest tests/core/test_shard_steal.py tests/core/test_shard_scaling.py -x -q

echo "== planner campaign smoke test =="
# Full-network-scale gate for the budgeted planner path: a ~300-relay
# target set, a cold-start budgeted campaign folded into a dataset,
# then a second planner pass over the now-stale dataset that must (a)
# produce a non-empty refresh plan, (b) actually update matrix entries
# via absorb, and (c) keep the whole round trip under a hard wall
# ceiling — the "1,000-relay campaigns in minutes" scale proof at CI
# size. Both sharded runs must build exactly one leg circuit per relay
# their plan touches (the leg round is stolen by the same workers, so
# this is the duplicated-work guard for it), and with two or more CPUs
# every forked pair worker must keep its own CPU busy (cpu/wall >= 0.8;
# two workers left on one CPU read ~0.5 each). The outer `timeout` is
# the backstop against hangs.
timeout 300 python - <<'PY'
import functools, time

from repro.core.dataset import CampaignDataset, RttMatrix
from repro.core.planner import CampaignPlanner
from repro.core.sampling import SamplePolicy
from repro.core.shard import ShardedCampaign
from repro.testbeds.livetor import LiveTorTestbed
from repro.util.cpus import schedulable_cpu_count

WALL_CEILING_S = 180.0
BUSY_FLOOR = 0.8
started = time.monotonic()


def check_sharded(report, pairs):
    touched = len({fp for pair in pairs for fp in pair})
    assert report.legs_measured == touched, (report.legs_measured, touched)
    if schedulable_cpu_count() >= 2:
        for shard in report.shards:
            busy = shard.cpu_s / shard.wall_s
            assert busy >= BUSY_FLOOR, f"shard {shard.shard_index} cpu/wall {busy:.2f}"


factory = functools.partial(LiveTorTestbed.build, seed=11, n_relays=320)
testbed = factory()
fps = [d.fingerprint
       for d in testbed.random_relays(300, testbed.streams.get("ci.plan"))]
policy = SamplePolicy(samples=3, interval_ms=2.0)

# Round 1: cold start — every pair is a coverage candidate.
plan = CampaignPlanner(fps, seed=11).plan(budget_pairs=400)
assert len(plan.pairs) == 400, f"cold-start plan={len(plan.pairs)}"
report = ShardedCampaign(
    factory, fps, policy=policy, workers=4,
    pairs=plan.pairs, observe=True, clamp_to_cpus=True,
).run()
check_sharded(report, plan.pairs)
dataset = CampaignDataset(matrix=RttMatrix(fps))
absorbed = dataset.absorb(report.matrix, provenance=report.provenance)
assert absorbed > 0, "cold-start campaign absorbed nothing"

# Round 2: the dataset is now stale history — the planner must find a
# non-empty refresh (unmeasured pairs still dominate at this budget)
# and absorbing the rerun must touch entries again. Quality scores feed
# the replan as a refresh axis (exercising the obs.health integration).
replan = CampaignPlanner(
    fps, dataset=dataset, seed=12, quality=dataset.quality()
).plan(budget_pairs=200)
assert len(replan.pairs) > 0, "refresh plan is empty"
rerun = ShardedCampaign(
    factory, fps, policy=policy, workers=4,
    pairs=replan.pairs, observe=True, clamp_to_cpus=True,
).run()
check_sharded(rerun, replan.pairs)
if schedulable_cpu_count() >= 2:
    # Both runs forked, so the refresh took the world the cold run kept.
    assert rerun.build_s == 0.0, f"the refresh built its world ({rerun.build_s:.3f}s)"
refreshed = dataset.absorb(rerun.matrix, provenance=rerun.provenance)
assert refreshed > 0, "refresh absorbed nothing"

# Persist the refreshed dataset for the health gate below.
dataset.save("/tmp/ting_planner_smoke.npz")

elapsed = time.monotonic() - started
assert elapsed < WALL_CEILING_S, f"planner smoke took {elapsed:.0f}s"
print(f"planner smoke: {absorbed} cold + {refreshed} refreshed entries "
      f"over {len(fps)} relays in {elapsed:.1f}s")
# Probe flights, merged across the forked workers like every counter.
# These are 2 ms trains: EchoClient arranges its next send before each
# send, so every flight is refused at the first comparison (0 / 0).
for name, run in (("cold", report), ("refresh", rerun)):
    count = run.metrics.counter
    print(f"probe flights, {name} run: {count('echo.probes_flown')} flown / "
          f"{count('echo.probes_sent')} sent, "
          f"{count('echo.flight_rollbacks')} rolled back")
PY

echo "== dataset health gate =="
# The data-quality scorecard over the planner-smoke dataset must grade
# clean: no physically impossible estimates, no asymmetry, no stale
# pairs beyond a full sweep. `--check` exits nonzero on any FAIL check,
# which is exactly the gate a continuous-refresh deployment would run
# after every absorb.
python -m repro.cli -q health --input /tmp/ting_planner_smoke.npz --check

echo "== serve smoke gate =="
# The read side of the same dataset: mmap-backed answers and forked
# batches identical to in-memory inline ones, for a mixed batch of every
# op. Exits nonzero on any mismatch.
python scripts/serve_smoke.py /tmp/ting_planner_smoke.npz
# The differential suite behind it: every index answer and every wire
# dict vs plain numpy on the raw array, over small tie-heavy matrices.
# Runs inside tier-1 too; gated explicitly like the chaos test above.
python -m pytest tests/serve/test_index_differential.py -x -q
# And the wire itself: `serve --batch` output for a percentile + via +
# knn JSONL must be strict JSON — a bare NaN/Infinity token (which
# json.dumps writes happily) fails the parse here.
timeout 120 python - <<'PY'
import json, subprocess, sys

from repro.core.dataset import CampaignDataset

nodes = CampaignDataset.load("/tmp/ting_planner_smoke.npz").matrix.nodes
queries = []
for i, a in enumerate(nodes):
    b = nodes[(i * 5 + 1) % len(nodes)]
    queries.append({"op": "percentile", "x": a, "q": float(i % 101)})
    queries.append({"op": "knn", "x": a, "k": len(nodes)})
    if a != b:
        queries.append({"op": "via", "x": a, "y": b, "k": len(nodes)})
done = subprocess.run(
    [sys.executable, "-m", "repro.cli", "-q", "serve",
     "--input", "/tmp/ting_planner_smoke.npz", "--batch", "-"],
    input="".join(json.dumps(q) + "\n" for q in queries),
    check=True, capture_output=True, text=True,
)

def refuse(token):
    raise AssertionError(f"non-finite token {token!r} on the serve wire")

lines = done.stdout.splitlines()
assert len(lines) == len(queries), (len(lines), len(queries))
answers = [json.loads(line, parse_constant=refuse) for line in lines]
print(f"serve wire smoke: {len(answers)} answers, all strict JSON, "
      f"{sum('error' in a for a in answers)} error answers")

# A JSONL line that is valid JSON but no object answers as a bad_arg
# record in its place; the forked batch around it is still answered.
a, b = nodes[0], nodes[1]
good = json.dumps({"op": "point", "x": a, "y": b})
done = subprocess.run(
    [sys.executable, "-m", "repro.cli", "-q", "serve",
     "--input", "/tmp/ting_planner_smoke.npz", "--batch", "-", "--workers", "2"],
    input=f"{good}\n[1, 2]\n{good}\n", capture_output=True, text=True,
)
assert done.returncode == 0, (done.returncode, done.stderr)
answers = [json.loads(line) for line in done.stdout.splitlines()]
assert len(answers) == 3, answers
assert [a.get("category") for a in answers] == [None, "bad_arg", None], answers
print("serve non-object smoke: 3 lines, 1 bad_arg record, exit 0")
PY

echo "== serve telemetry smoke gate =="
# The observability of the same read side: answer a mixed JSONL batch
# with telemetry enabled (--stats) across forked workers, write the
# JSONL telemetry artifact, and assert every op in the batch shows up
# with a non-zero count and sane latency quantiles in the merged
# summary — the end-to-end proof that worker-side registries ship
# across the fork boundary and merge.
timeout 120 python - <<'PY'
import json, subprocess, sys, tempfile
from pathlib import Path

from repro.core.dataset import CampaignDataset

nodes = CampaignDataset.load("/tmp/ting_planner_smoke.npz").matrix.nodes
work = Path(tempfile.mkdtemp())
batch = work / "batch.jsonl"
ops = []
with batch.open("w") as fh:
    for i in range(240):
        a, b = nodes[i % len(nodes)], nodes[(i * 7 + 1) % len(nodes)]
        kind = i % 4
        if kind == 0:
            query = {"op": "point", "x": a, "y": b}
        elif kind == 1:
            query = {"op": "knn", "x": a, "k": 5}
        elif kind == 2:
            query = {"op": "percentile", "x": a, "q": 50.0}
        else:
            query = {"op": "via", "x": a, "y": b} if a != b else {"op": "point", "x": a, "y": b}
        ops.append(query["op"])
        fh.write(json.dumps(query) + "\n")
telemetry = work / "telemetry.jsonl"
subprocess.run(
    [sys.executable, "-m", "repro.cli", "-q", "serve",
     "--input", "/tmp/ting_planner_smoke.npz",
     "--batch", str(batch), "--workers", "4",
     "--stats", "--telemetry", str(telemetry)],
    check=True, stdout=subprocess.DEVNULL,
)
summary = json.loads(telemetry.read_text().splitlines()[0])
assert summary["record"] == "summary", summary
assert summary["queries"] == len(ops), summary
per_op = summary["per_op"]
for op in set(ops):
    row = per_op.get(op)
    assert row and row["count"] > 0, f"op {op!r} missing from merged telemetry: {per_op}"
    assert 0 < row["p50_ms"] <= row["max_ms"], (op, row)
print(f"serve telemetry smoke: {summary['queries']} queries, "
      f"per-op counts { {op: per_op[op]['count'] for op in sorted(per_op)} }")
PY

echo "== benchmark smoke gate =="
# The repo's benchmark (bench/, BENCHMARK.json) at --smoke size: all
# four workloads, untraced then traced, every correctness gate in
# bench/check.py (identical counts and result hash in every repeat,
# zero failed pairs/queries, every declared metric reported). Timings
# at this size mean nothing; the gate is that it still runs and checks.
# Only failed checks and the closing JSON verdict are shown.
python3 bench/run.py --smoke | grep -E '^CHECK FAILED|^\{"correct"' | cut -c1-120

echo "== CI green =="
