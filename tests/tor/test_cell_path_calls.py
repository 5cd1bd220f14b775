"""The cell path's work, counted exactly.

On a dense all-pairs campaign most events (≈ 80%) are the two a cell
makes crossing a relay hop (``StreamConnection._receive``, then
``Relay._process_cell``), so the frames each hop costs set what a pair
costs. A seam that adds one more frame to every hop moves no draw, float
or event — only the wall clock, by a few percent, which a noisy box does
not show. This file counts that work instead, under ``sys.setprofile``
on a fixed campaign (6 relays of a 12-relay world at seed 11, the
``allpairs_dense`` policy and concurrency), and pins it like a work
tuple: with ``==``, re-pinned only with a stated reason.

* **Program calls per event**: Python frames entered in the program's
  own modules (``repro.*``, dataclass-generated ``__init__`` included),
  over simulator events. Library frames (the cipher library's context
  set-up, ``abc`` checks) are counted and printed but not pinned, so
  that a library upgrade does not fail this file. Before relayed cells
  were forwarded in place the campaign read 58,549 program calls
  (69,879 in all) over 3,549 events: 16.50 per event (19.69 in all).
  A pair launched as one ``PairTask`` (no ``TingMeasurer._start_pair``
  wrapper, no ``measure`` closure around ``C_xy``) enters 3 frames
  fewer: 45,741 → 45,696 over the 15 pairs, events unmoved.
* **Cells made**: a relay forwards a RELAY cell as the same ``Cell``
  re-addressed, so ``Cell`` constructions equal the cells originated —
  the distinct cells ever written to a connection — and not the segments
  written. (Before: 1,614 made for 1,614 segments.)

An **isolated task** is pinned the same way, on a small sharded
campaign run inline (4 relays of a 12-relay world at seed 11, 6 pairs
and 4 legs, one worker, the ``pipeline_fullnet`` policy): events,
program calls and ``Cell`` constructions over the campaign, and per
task. There the simulator is quiet through every circuit's set-up, so
the CREATE, each EXTEND and the BEGIN fly (``repro.tor.flight.SetUp``):
before set-up flights the campaign read 1,418 events, 19,693 program
calls and 270 cells made (141.8, 1,969.3 and 27.0 per task); now 922,
15,735 and 126 (92.2, 1,573.5 and 12.6). On the dense shape above no
set-up flies: 45,696 → 46,708 program calls, events unmoved. Each
set-up send the simulator refuses costs ≈ 9 calls more (the entry
point, its one comparison, the far end's writes as methods of their
own), and each close or teardown one (``Simulator.ground_flight``: a
write that moves the wiring epoch brings a flight down first).

A **ping-pong round** is the third shape: 200 probes on one stream of
the probe kernel's world (``bench/kernels.py``: a four-hop circuit of a
20-relay world at seed 47), built and opened outside the profiler. The
round is walked once at its first launch (``Probe.walk_round``)
and lands in one event, its 200 replies handed to the echo client as one
list: 2 events (the first send and the landing) and 207 blocks read —
counted as blocks whichever reader reads them (``DrawStream.read`` one,
``DrawStream.read_run`` as many as it fills). When the walk read its
≈ 200 blocks ahead one ``read`` call each, the round entered 5,404
program calls; read as one run per stream, 5,210. Both landed a probe
per event (201 events: each landing sent the next probe through
``TorStream.send``, ≈ 26 calls a probe); landed once, the round enters
233, blocks unmoved.

With the flights moved into one module (``repro.tor.flight``: one
record, one launch), a flight attempt enters two frames more (the
record's ``__init__`` and its kind's ``floor``), a charted one one more
(``walked_round``) and a landing one more (its kind's ``landed``), and
a take-back fewer (one give-back, no generator): dense 46,708 → 47,158
(225 attempts, 5 of them charted; its one take-back 5 frames fewer),
isolated 15,735 → 15,999 (86 attempts, 46 charted, 46 landed), round
233 → 237 (one attempt, charted and landed); events and cells unmoved.

A timer-paced train whose sends are sure to come is offered whole at
its first send (``repro.tor.flight.Train``). In an isolated task it
flies: one walk, one landing, no cell, no timer event — isolated 922
events, 15,999 program calls and 126 cells made → 286, 9,501 and 46
(28.6, 950.1 and 4.6 per task; the 46 cells are the circuits'
teardown). On the dense shape every offer is refused at the first
comparison, 6 frames each (the record's ``__init__``, ``launch``,
``ground_flight``, the train's ``floor`` and the probe's it adds,
``quiet_through``): 21 offers, 47,158 → 47,284; events and cells
unmoved. The count runs with
the collector off, after a collection: a collector pass inside it had
finalized a suspended program generator an earlier test left in a
reference cycle, entering its frame once more (47,159 in one tier-1 run
of four).

Print the counts with ``PYTHONPATH=src python tests/tor/test_cell_path_calls.py``.
"""

from __future__ import annotations

import gc
import sys

from repro.core.parallel import ParallelCampaign
from repro.core.sampling import SamplePolicy
from repro.core.shard import ShardedCampaign
from repro.netsim.transport import NetworkFabric
from repro.testbeds.livetor import LiveTorTestbed
from repro.tor.cells import Cell
from repro.tor.relay import Relay
from repro.util.rng import BLOCK_WORDS, DrawStream

#: Program calls and simulator events of the campaign.
PROGRAM_CALLS, EVENTS = 47_284, 3_549
#: ``Cell`` constructions and cell segments written to connections.
CELLS_MADE, CELLS_SENT = 660, 1_614


#: The isolated tasks': events, program calls and ``Cell`` constructions.
TASKS, TASK_EVENTS, TASK_PROGRAM_CALLS, TASK_CELLS_MADE = 10, 286, 9_501, 46

#: The round's probes, and its events, program calls and block reads.
ROUND_PROBES = 200
ROUND_EVENTS, ROUND_PROGRAM_CALLS, ROUND_BLOCK_READS = 2, 237, 207


def count_cell_path() -> dict[str, int]:
    """Run the fixed campaign under a profiler; return what it counted."""
    testbed = LiveTorTestbed.build(seed=11, n_relays=12)
    relays = testbed.random_relays(6, testbed.streams.get("bench.campaign"))
    campaign = ParallelCampaign(
        testbed.measurement,
        relays,
        policy=SamplePolicy(samples=6, interval_ms=2.0),
        concurrency=16,
    )
    return _counted(campaign.run, testbed.measurement.sim)


def count_isolated_tasks() -> dict[str, int]:
    """The small sharded campaign, inline, under the same profiler."""
    testbed = LiveTorTestbed.build(seed=11, n_relays=12)
    relays = testbed.random_relays(4, testbed.streams.get("bench.campaign"))
    campaign = ShardedCampaign(
        lambda: testbed,
        [relay.fingerprint for relay in relays],
        policy=SamplePolicy(samples=4, interval_ms=2.0),
        workers=1,
        force_inline=True,
    )
    return _counted(campaign.run, testbed.measurement.sim)


def count_round() -> dict[str, int]:
    """One 200-probe ping-pong round on the probe kernel's world (a
    four-hop circuit of a 20-relay world at seed 47), under the same
    profiler: the circuit is built and the stream opened outside it."""
    testbed = LiveTorTestbed.build(seed=47, n_relays=20)
    host = testbed.measurement
    fps = [relay.descriptor().fingerprint for relay in testbed.relays]
    circuit = host.controller.build_circuit(
        [host.relay_w.fingerprint, fps[0], fps[1], host.relay_z.fingerprint]
    )
    stream = host.controller.open_stream(circuit, host.echo_address, host.echo_port)

    def probe_round():
        result = host.echo_client.probe(
            stream, ROUND_PROBES, interval_ms=None, timeout_ms=ROUND_PROBES * 30_000.0
        )
        assert len(result.rtts_ms) == ROUND_PROBES
        return result

    return _counted(probe_round, testbed.sim)


def _counted(run, sim) -> dict[str, int]:
    made_code = Cell.__init__.__code__
    transmit_code = NetworkFabric._transmit.__code__
    process_code = Relay._process_cell.__code__
    read_code, run_code = DrawStream.read.__code__, DrawStream.read_run.__code__
    counts = {"calls": 0, "program_calls": 0, "cells_made": 0, "cells_sent": 0,
              "cells_processed": 0, "block_reads": 0}
    # Held, so that an id stays one cell's for the whole run.
    sent: dict[int, Cell] = {}

    def profile(frame, event, arg) -> None:
        if event != "call":
            return
        counts["calls"] += 1
        if frame.f_globals.get("__name__", "").startswith("repro."):
            counts["program_calls"] += 1
        code = frame.f_code
        if code is made_code:
            counts["cells_made"] += 1
        elif code is process_code:
            counts["cells_processed"] += 1
        elif code is read_code:
            counts["block_reads"] += 1
        elif code is run_code:
            counts["block_reads"] += len(frame.f_locals["u"]) // BLOCK_WORDS
        elif code is transmit_code:
            payload = frame.f_locals["payload"]
            if isinstance(payload, Cell):
                counts["cells_sent"] += 1
                sent[id(payload)] = payload

    events = sim.events_processed
    # No collector pass inside the count: one finalizes whatever garbage
    # the process left, and a suspended generator of the program's found
    # there (any earlier test's) enters its frame once more to close.
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    sys.setprofile(profile)
    try:
        report = run()
    finally:
        sys.setprofile(None)
        if enabled:
            gc.enable()
    counts["events"] = sim.events_processed - events
    counts["cells_originated"] = len(sent)
    if hasattr(report, "pairs_measured"):
        counts["pairs_measured"] = report.pairs_measured
        counts["tasks"] = report.pairs_measured + report.legs_measured
    return counts


def test_cell_path_work_is_pinned():
    counts = count_cell_path()
    assert counts["pairs_measured"] == 15
    assert (counts["program_calls"], counts["events"]) == (PROGRAM_CALLS, EVENTS)
    assert (counts["cells_made"], counts["cells_sent"]) == (CELLS_MADE, CELLS_SENT)
    # Every cell made was written (made == the distinct cells written), and
    # a relayed cell goes on as itself (fewer made than segments written),
    # whatever the pins above are re-pinned to.
    assert counts["cells_made"] == counts["cells_originated"]
    assert counts["cells_made"] < counts["cells_sent"]


def test_isolated_task_work_is_pinned():
    counts = count_isolated_tasks()
    assert (counts["pairs_measured"], counts["tasks"]) == (6, TASKS)
    assert (counts["events"], counts["program_calls"], counts["cells_made"]) == (
        TASK_EVENTS, TASK_PROGRAM_CALLS, TASK_CELLS_MADE
    )
    assert counts["cells_made"] == counts["cells_originated"]


def test_round_work_is_pinned():
    counts = count_round()
    assert (counts["events"], counts["program_calls"], counts["block_reads"]) == (
        ROUND_EVENTS, ROUND_PROGRAM_CALLS, ROUND_BLOCK_READS
    )


if __name__ == "__main__":
    counts = count_cell_path()
    events, processed = counts["events"], counts["cells_processed"]
    print(
        f"cell path, 6 of 12 relays at seed 11: {events} events, "
        f"{processed} relay-processed cells; program calls "
        f"{counts['program_calls']} ({counts['program_calls'] / events:.2f} per "
        f"event, {counts['program_calls'] / processed:.1f} per processed cell), "
        f"all calls {counts['calls']} ({counts['calls'] / events:.2f} per event, "
        f"{counts['calls'] / processed:.1f} per processed cell)"
    )
    print(
        f"cells: {counts['cells_made']} made == {counts['cells_originated']} "
        f"originated, {counts['cells_sent']} segments written"
    )
    counts = count_round()
    print(
        f"one {ROUND_PROBES}-probe ping-pong round, probe kernel's world at seed 47: "
        f"{counts['events']} events, program calls {counts['program_calls']} "
        f"({counts['program_calls'] / ROUND_PROBES:.1f} per probe), block reads "
        f"{counts['block_reads']}"
    )
    counts = count_isolated_tasks()
    tasks = counts["tasks"]
    print(
        f"isolated tasks, 4 of 12 relays at seed 11, inline: {tasks} tasks, "
        f"{counts['events']} events ({counts['events'] / tasks:.1f} per task), "
        f"program calls {counts['program_calls']} "
        f"({counts['program_calls'] / tasks:.1f} per task), cells made "
        f"{counts['cells_made']} ({counts['cells_made'] / tasks:.1f} per task)"
    )
