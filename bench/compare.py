#!/usr/bin/env python3
"""Compare two result files written by ``run.py --json``.

``python3 bench/compare.py A.json B.json`` prints one row per
(workload, metric): both values, the ratio B ÷ A (A is the base), and a
verdict — ``ok``, ``worse`` or ``unresolved`` — and exits non-zero if
any row is ``worse``.

* An end-to-end metric is ``worse`` when B is worse than A by more than
  the metric's bound in ``BENCHMARK.json``; ``unresolved`` when it is
  within the bound but either run's own uncertainty is wider than the
  bound, so the two could not have been told apart; ``ok`` otherwise,
  and always when B reads no worse than A. A run's uncertainty is its
  repeat spread (IQR ÷ median) ÷ √k: the value is a median of k
  repeats, and a median's standard error is about 0.93 × IQR ÷ √k.
* An exact per-layer metric (a count or simulated statistic both runs
  marked as exactly repeating) compares with ``==``: ``worse`` here
  means *not identical* — a change to the modelled protocol has to
  justify every such row.
* Other per-layer metrics have no bound; they are listed with ``-``.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

MANIFEST = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def worsening(a: float, b: float, better: str) -> float:
    """How much worse B is than A, as a share of A (negative = better)."""
    if a == 0:
        return 0.0 if b == 0 else float("inf")
    return (b - a) / abs(a) if better == "lower" else (a - b) / abs(a)


def verdict_end_to_end(
    a: float, b: float, better: str, bound: float, spread: float
) -> str:
    worse_by = worsening(a, b, better)
    if worse_by > bound:
        return "worse"
    if worse_by > 0 and spread > bound:
        return "unresolved"
    return "ok"


def verdict_exact(a: float, b: float) -> str:
    return "ok" if a == b else "worse"


def compare(a_doc: dict, b_doc: dict, manifest: dict) -> list[tuple]:
    """Rows ``(workload, metric, a, b, unit, verdict)`` for every shared metric."""
    e2e = {m["name"]: m for m in manifest["end_to_end"]}
    rows = []
    for workload, a_run in a_doc["workloads"].items():
        b_run = b_doc["workloads"].get(workload)
        if b_run is None:
            continue
        for metric, a_entry in a_run["end_to_end"].items():
            b_entry = b_run["end_to_end"].get(metric)
            if b_entry is None or metric not in e2e:
                continue
            spread = max(
                entry.get("spread", 0.0) / math.sqrt(entry.get("k", 1))
                for entry in (a_entry, b_entry)
            )
            rows.append((
                workload, metric, a_entry["value"], b_entry["value"], a_entry["unit"],
                verdict_end_to_end(
                    a_entry["value"], b_entry["value"], e2e[metric]["better"],
                    e2e[metric]["bound"], spread,
                ),
            ))
        exact = set(a_run["exact"]) & set(b_run["exact"])
        for metric, a_entry in a_run["per_layer"].items():
            b_entry = b_run["per_layer"].get(metric)
            if b_entry is None:
                continue
            verdict = (
                verdict_exact(a_entry["value"], b_entry["value"])
                if metric in exact else "-"
            )
            rows.append((
                workload, metric, a_entry["value"], b_entry["value"],
                a_entry["unit"], verdict,
            ))
    return rows


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    a_doc, b_doc = (json.loads(Path(p).read_text()) for p in argv)
    rows = compare(a_doc, b_doc, json.loads(MANIFEST.read_text()))
    print(f"{'workload':<18} {'metric':<42} {'A':>16} {'B':>16} {'B/A':>8}  verdict")
    for workload, metric, a, b, unit, verdict in rows:
        ratio = f"{b / a:8.3f}" if a else "     n/a"
        print(f"{workload:<18} {metric:<42} {a:>16.6g} {b:>16.6g} {ratio}  {verdict} [{unit}]")
    worse = [r for r in rows if r[5] == "worse"]
    unresolved = [r for r in rows if r[5] == "unresolved"]
    print(f"{len(rows)} rows: {len(worse)} worse, {len(unresolved)} unresolved")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
