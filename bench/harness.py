"""Timing discipline shared by every workload: a GC fence, a speed
reference sampled around every timed section, and the two summaries.

Host time on this shared 2-core box is the program's cost times the
weather. Measured while sizing the benchmark: the *same* 190-pair
campaign took 2.2-4.3 s over twelve back-to-back repeats with CPU time
equal to wall time (so not descheduling: the core itself runs slower
when the neighbours are busy), and the slow spells last tens of seconds,
longer than a run. The minimum over k repeats therefore drifts with
the spell the run happened to land in. What does hold still is the
ratio of a timed section to a fixed pure-Python loop timed right before
and after it: both slow down together.

So a host-time metric has two summaries:

* **end-to-end metrics** are *normalised*: every repeat's time is
  multiplied by ``REFERENCE_QUIET_MS / reference_ms()`` measured around
  it (seconds at this box's quiet speed) and the **median** over repeats
  is reported, with the inter-quartile spread and the raw minimum
  beside it;
* **per-layer** host times are the raw **minimum** over the traced
  repeats (best-of-k: contention only ever adds time); they carry no
  bound.
"""

from __future__ import annotations

import gc
import heapq
import math
import resource
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator, Sequence


@dataclass(frozen=True)
class Aggregate:
    """Summary of one host-time metric over the k repeats of a run."""

    best: float
    median: float
    iqr: float
    k: int

    @property
    def spread(self) -> float:
        """IQR ÷ median — the ``harness.repeat_spread`` of this metric."""
        return self.iqr / self.median if self.median else 0.0


def aggregate(samples: Sequence[float]) -> Aggregate:
    """Summarise k repeats: best (the minimum), median, IQR."""
    if not samples:
        raise ValueError("no samples to aggregate")
    if len(samples) >= 2:
        q1, _, q3 = statistics.quantiles(samples, n=4)
        iqr = q3 - q1
    else:
        iqr = 0.0
    return Aggregate(min(samples), statistics.median(samples), iqr, len(samples))


def percentile(sorted_values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of an already sorted sample (q in 0..100)."""
    if not sorted_values:
        raise ValueError("no samples")
    rank = max(1, math.ceil(len(sorted_values) * q / 100.0))
    return sorted_values[rank - 1]


@contextmanager
def gc_fence() -> Iterator[None]:
    """The timed section's GC discipline.

    Collect first so the section does not pay for its predecessors'
    garbage, then freeze (survivors leave the young generations) and
    disable so no collection pass lands inside the timing.
    """
    gc.collect()
    gc.freeze()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()
        gc.unfreeze()


#: What :func:`spin_ms` reads on the reference box with nothing else
#: running (the floor of 1,500 samples). Only sets the unit of the
#: normalised times: on a quiet box they equal the raw ones.
REFERENCE_QUIET_MS = 5.25


def spin_ms() -> float:
    """Time a fixed pure-Python loop: tells a slow box from a slow program.

    The loop mixes what the simulator's hot path is made of — heap
    pushes and pops of ``(time, seq)`` tuples, dict stores, byte
    indexing, integer arithmetic — and touches nothing under ``src/``,
    so no change to the program can move it. It tracked a campaign's
    slowdown to within 3.5% IQR where a bare counting loop managed 8.6%.
    """
    start = time.perf_counter()
    heap: list[tuple[float, int]] = []
    push, pop = heapq.heappush, heapq.heappop
    table: dict[int, int] = {}
    blob = bytes(range(256)) * 2
    acc = 0
    for i in range(6000):
        push(heap, ((i * 7919) % 1013 + 0.5, i))
        table[i & 255] = acc
        if i & 1:
            acc += pop(heap)[1]
        acc ^= blob[i & 511]
    while heap:
        pop(heap)
    return (time.perf_counter() - start) * 1000.0


def box_speed_ms(samples: int = 3) -> float:
    """Median of a few back-to-back :func:`spin_ms` readings (~16 ms)."""
    return statistics.median(spin_ms() for _ in range(samples))


def normalise(seconds: float, spin_before_ms: float, spin_after_ms: float) -> float:
    """``seconds`` at the reference box's quiet speed."""
    return seconds * REFERENCE_QUIET_MS / ((spin_before_ms + spin_after_ms) / 2.0)


def peak_rss_mb() -> float:
    """Peak resident set of this process or any reaped child, in MB."""
    peak_kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return peak_kb / 1024.0
