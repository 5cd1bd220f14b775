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

Print the counts with ``PYTHONPATH=src python tests/tor/test_cell_path_calls.py``.
"""

from __future__ import annotations

import sys

from repro.core.parallel import ParallelCampaign
from repro.core.sampling import SamplePolicy
from repro.netsim.transport import NetworkFabric
from repro.testbeds.livetor import LiveTorTestbed
from repro.tor.cells import Cell
from repro.tor.relay import Relay

#: Program calls and simulator events of the campaign.
PROGRAM_CALLS, EVENTS = 45_696, 3_549
#: ``Cell`` constructions and cell segments written to connections.
CELLS_MADE, CELLS_SENT = 660, 1_614


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
    made_code = Cell.__init__.__code__
    transmit_code = NetworkFabric._transmit.__code__
    process_code = Relay._process_cell.__code__
    counts = {"calls": 0, "program_calls": 0, "cells_made": 0, "cells_sent": 0,
              "cells_processed": 0}
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
        elif code is transmit_code:
            payload = frame.f_locals["payload"]
            if isinstance(payload, Cell):
                counts["cells_sent"] += 1
                sent[id(payload)] = payload

    sim = testbed.measurement.sim
    events = sim.events_processed
    sys.setprofile(profile)
    try:
        report = campaign.run()
    finally:
        sys.setprofile(None)
    counts["events"] = sim.events_processed - events
    counts["cells_originated"] = len(sent)
    counts["pairs_measured"] = report.pairs_measured
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
