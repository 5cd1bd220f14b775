#!/usr/bin/env python3
"""Measure run-to-run spread the way the PR driver does.

``python3 bench/calibrate.py [--runs 10] [--first-seed 1] [--workload NAME]``
runs every workload ``--runs`` times through ``bench/run.py --trace 0``,
each time with another seed, and prints for each end-to-end metric the
median and the inter-quartile distance as a share of the median, beside
the bound ``BENCHMARK.json`` allows. A bound is believable when the
spread stays under a third of it.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv: list[str] | None = None) -> int:
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in manifest["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workload", choices=names, action="append")
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in manifest["end_to_end"]}
    worst = 0.0
    for name in args.workload or names:
        values: dict[str, list[float]] = {}
        walls = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            started = time.perf_counter()
            done = subprocess.run(
                [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", name,
                 "--seed", str(seed), "--seconds", str(manifest["run_seconds"]),
                 "--trace", "0"],
                capture_output=True, text=True, check=True, cwd=ROOT,
            )
            walls.append(time.perf_counter() - started)
            result = json.loads(done.stdout.strip().splitlines()[-1])
            if not result["correct"] or result["failed"]:
                print(f"{name} seed {seed}: incorrect or failed operations")
                return 1
            for metric, entry in result["metrics"].items():
                values.setdefault(metric, []).append(entry["value"])
        print(f"== {name}: {args.runs} runs, {max(walls):.1f} s the longest ==")
        for metric, samples in values.items():
            q1, median, q3 = statistics.quantiles(samples, n=4)
            spread = (q3 - q1) / median
            share = spread / bounds[metric]
            if metric != "setup_s":
                worst = max(worst, share)
            print(
                f"{metric:<14} median {median:>14.6f}  IQR/median {spread:6.3f}  "
                f"bound {bounds[metric]:.2f}  ({share:4.0%} of bound)"
            )
    print(f"worst spread outside setup_s: {worst:.0%} of its bound")
    return 0


if __name__ == "__main__":
    sys.exit(main())
