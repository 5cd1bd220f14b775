#!/usr/bin/env python3
"""Statistical equivalence of two checkouts' per-packet draws, shown.

    scripts/draw_equivalence.py --parent /path/to/parent/checkout [--seeds 100]

A PR that moves *which* numbers the simulator draws (not how they are
distributed) moves every measured value; what must not move is the
distribution of the estimator's error. This runs the benchmark's
``allpairs_dense`` and ``highacc_serial`` workloads — the bench's own
classes, from each checkout's own ``bench/`` — once per seed on both
checkouts, and prints the quartiles of ``core.ting.est_err_p50_ms`` /
``p90_ms`` over the seeds side by side, with the work counts that should
not move at all (events, cells and probes per pair). Exit status 1 if a
side's median lies outside the other's inter-quartile range.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent

METRICS = (
    "core.ting.est_err_p50_ms",
    "core.ting.est_err_p90_ms",
    "netsim.engine.events_per_pair",
    "tor.relay.cells_per_pair",
)

#: Runs inside each checkout: one JSON line per (workload, seed).
CHILD = """
import json, sys
from pathlib import Path
root, first, count = sys.argv[1], int(sys.argv[2]), int(sys.argv[3])
sys.path[0:1] = [root, root + "/src"]
from bench.trace import NullRecorder
from bench.workloads import WORKLOADS
tracer = NullRecorder()
for name in sys.argv[4:]:
    for seed in range(first, first + count):
        workload = WORKLOADS[name](seed, False, Path(root) / "bench" / "out")
        outcome = workload.run(workload.setup(tracer), tracer)
        row = {key: outcome.exact[key] for key in %r}
        row.update(workload=name, seed=seed, failed=outcome.failed)
        print(json.dumps(row), flush=True)
""" % (METRICS,)


def run_side(root: Path, first: int, count: int, workloads: list[str]) -> list[dict]:
    done = subprocess.run(
        [sys.executable, "-c", CHILD, str(root), str(first), str(count), *workloads],
        capture_output=True, text=True, check=True,
    )
    return [json.loads(line) for line in done.stdout.splitlines()]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, default=HERE)
    parser.add_argument("--seeds", type=int, default=100)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument(
        "--workloads", nargs="+", default=["allpairs_dense", "highacc_serial"]
    )
    args = parser.parse_args()

    sides = {
        name: run_side(root, args.first_seed, args.seeds, args.workloads)
        for name, root in (("parent", args.parent), ("change", args.change))
    }
    ok = True
    for workload in args.workloads:
        rows = {
            side: [row for row in data if row["workload"] == workload]
            for side, data in sides.items()
        }
        print(f"== {workload}: {args.seeds} seeds from {args.first_seed} ==")
        for metric in METRICS:
            cut = {
                side: quartiles([row[metric] for row in data])
                for side, data in rows.items()
            }
            line = "   ".join(
                f"{side} {q1:9.3f} / {q2:9.3f} / {q3:9.3f}"
                for side, (q1, q2, q3) in cut.items()
            )
            verdict = ""
            if metric.startswith("core.ting."):
                (p1, p2, p3), (c1, c2, c3) = cut["parent"], cut["change"]
                inside = p1 <= c2 <= p3 and c1 <= p2 <= c3
                ok &= inside
                verdict = "  medians inside each other's IQR" if inside else "  MOVED"
            else:
                same = sum(
                    a[metric] == b[metric]
                    for a, b in zip(rows["parent"], rows["change"])
                )
                verdict = f"  identical on {same} of {args.seeds} seeds"
            print(f"{metric:<34} q1 / median / q3:  {line}{verdict}")
        failed = {side: sum(row["failed"] for row in data) for side, data in rows.items()}
        print(f"failed pairs: {failed}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
