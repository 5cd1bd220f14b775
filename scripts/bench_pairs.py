#!/usr/bin/env python3
"""Alternated parent / change benchmark pairs: did a change move a metric?

    python3 scripts/bench_pairs.py PARENT CHANGE --workload W --seeds 47,2015 \\
        [--pairs 8,4] [--workdir DIR]

PARENT and CHANGE are git revisions, each exported with ``git archive``
into a fresh directory under ``--workdir`` (the committed files only, as
a clean checkout has them), or existing directories used as they are.
Nothing under ``bench/`` is changed: every run is the tree's own
unmodified ``bench/run.py --workload W --seed S --trace 0 --no-history
--json …`` at the run length of the tree's own ``BENCHMARK.json``, the
two trees alternating which one goes first from pair to pair so that a
drift of the box lands on both. A run that writes no JSON stops the
script.

Printed: every run (the four end-to-end metrics, ``correct``, failed
operations), then per seed and per metric the change's wins, both
medians, the change against the parent, the parent's inter-quartile
range and the gap between the medians ÷ that range; then, per seed, one
traced run (``--trace 1``) of each tree through ``bench/compare.py``
with the exact per-layer rows that differ (none is the expected answer
for a change that leaves the modelled protocol alone), and the result
fingerprint of one run of the workload in each tree.

``--pairs`` gives the pair count per seed (one number for all seeds, or
one per seed). Exit status 1 if a run was not ``correct``, an exact row
differs or the fingerprints differ.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
METRICS = ("setup_s", "wall_s", "unit_cost_us", "peak_rss_mb")

#: Prints the result fingerprint of one full-size run of a workload,
#: run inside a tree (``sys.argv``: workload, seed).
FINGERPRINT = """
import sys
sys.path[0:1] = ['.', 'src']
from pathlib import Path
from bench.trace import NullRecorder
from bench.workloads import WORKLOADS
workload = WORKLOADS[sys.argv[1]](int(sys.argv[2]), False, Path('bench/out'))
null = NullRecorder()
print(workload.run(workload.setup(null), null).fingerprint)
"""


def tree(spec: str, workdir: Path, label: str) -> Path:
    """An existing directory, or revision ``spec`` exported under ``workdir``."""
    if Path(spec).is_dir():
        return Path(spec).resolve()
    target = workdir / label
    target.mkdir(parents=True)
    archive = subprocess.run(
        ["git", "-C", str(REPO), "archive", spec], check=True, capture_output=True
    ).stdout
    subprocess.run(["tar", "-x", "-C", str(target)], input=archive, check=True)
    return target


def bench(root: Path, workload: str, seed: int, trace: int, out: Path) -> dict:
    """One unmodified ``bench/run.py`` run in ``root``; its workload entry."""
    out.unlink(missing_ok=True)
    subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--trace", str(trace), "--no-history", "--json", str(out)],
        cwd=root, check=False, stdout=subprocess.DEVNULL,
    )
    if not out.exists():
        sys.exit(f"bench_pairs: {root}/bench/run.py wrote no {out}")
    return json.loads(out.read_text())["workloads"][workload]


def load_compare(root: Path):
    """``bench/compare.py`` of ``root``, as a module."""
    spec = importlib.util.spec_from_file_location("compare", root / "bench/compare.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def summarise(runs: list[tuple[dict, dict]]) -> None:
    """Wins, medians and gap ÷ parent IQR per end-to-end metric."""
    print(f"  {'metric':<14} {'wins':>6} {'parent':>11} {'change':>11} {'change':>8}"
          f" {'parent IQR':>11} {'gap/IQR':>8}")
    for metric in METRICS:
        parent = [p["end_to_end"][metric]["value"] for p, _ in runs]
        change = [c["end_to_end"][metric]["value"] for _, c in runs]
        wins = sum(c < p for p, c in zip(parent, change))
        mp, mc = statistics.median(parent), statistics.median(change)
        q1, q3 = quartiles(parent)
        iqr = q3 - q1
        ratio = f"{(mp - mc) / iqr:8.2f}" if iqr else "     inf"
        print(f"  {metric:<14} {wins:>3}/{len(runs):<2} {mp:>11.4g} {mc:>11.4g}"
              f" {(mc - mp) / mp:>+8.1%} {iqr:>11.4g} {ratio}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="47,2015")
    parser.add_argument("--pairs", default="8,4")
    parser.add_argument("--workdir", type=Path, default=None)
    args = parser.parse_args(argv)
    seeds = [int(s) for s in args.seeds.split(",")]
    pairs = [int(p) for p in args.pairs.split(",")]
    pairs = (pairs * len(seeds))[: len(seeds)] if len(pairs) == 1 else pairs
    if len(pairs) != len(seeds):
        parser.error("--pairs takes one count, or one per seed")

    workdir = args.workdir or Path(tempfile.mkdtemp(prefix="bench-pairs-"))
    trees = {
        "parent": tree(args.parent, workdir, "parent"),
        "change": tree(args.change, workdir, "change"),
    }
    for label, root in trees.items():
        print(f"{label}: {root}")
    failed = False
    every: list[tuple[dict, dict]] = []
    for seed, count in zip(seeds, pairs):
        print(f"\n== {args.workload}, seed {seed}: {count} alternated pairs ==")
        runs = []
        for k in range(count):
            order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
            got = {}
            for label in order:
                out = workdir / f"{label}-{seed}-{k}.json"
                got[label] = entry = bench(
                    trees[label], args.workload, seed, 0, out
                )
                failed |= not entry["correct"] or entry["failed"] > 0
                print(f"  pair {k} {label:<6} " + "  ".join(
                    f"{m} {entry['end_to_end'][m]['value']:.4g}" for m in METRICS
                ) + f"  correct {entry['correct']}  failed {entry['failed']}")
            runs.append((got["parent"], got["change"]))
        summarise(runs)
        every += runs

        print("  exact per-layer rows (bench/compare.py, one --trace 1 run each):")
        traced = [
            workdir / f"{label}-{seed}-traced.json" for label in ("parent", "change")
        ]
        for label, out in zip(("parent", "change"), traced):
            bench(trees[label], args.workload, seed, 1, out)
        rows = load_compare(trees["parent"]).compare(
            *(json.loads(path.read_text()) for path in traced),
            json.loads((trees["parent"] / "BENCHMARK.json").read_text()),
        )
        exact = [row for row in rows if row[1] not in METRICS and row[5] != "-"]
        moved = [row for row in exact if row[5] != "ok"]
        print(f"  {len(exact)} exact rows, {len(moved)} differ")
        for _, metric, a, b, unit, _ in moved:
            print(f"    {metric}: parent {a} change {b} [{unit}]")
        failed |= bool(moved)

        prints = {
            label: subprocess.run(
                [sys.executable, "-c", FINGERPRINT, args.workload, str(seed)],
                cwd=root, capture_output=True, text=True, check=True,
            ).stdout.strip()
            for label, root in trees.items()
        }
        same = prints["parent"] == prints["change"]
        print(f"  result fingerprint: parent {prints['parent'][:16]}"
              f" change {prints['change'][:16]} ({'identical' if same else 'DIFFER'})")
        failed |= not same
    if len(seeds) > 1:
        print(f"\n== all seeds: {len(every)} pairs ==")
        summarise(every)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
