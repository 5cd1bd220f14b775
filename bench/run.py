#!/usr/bin/env python3
"""Run the benchmark: ``python3 bench/run.py [--workload NAME] [--seed N] [--trace [0|1]]``.

Prints every metric by name with its unit, runs the correctness gates,
prints one JSON object as the last line of stdout and exits non-zero if
a gate failed. ``--trace 0`` measures the end-to-end metrics (tracing
off), ``--trace 1`` the per-layer metrics (spans on, obs registry on,
kernels run); without ``--trace`` both runs happen, untraced first.
See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "bench"
OUT_DIR = BENCH_DIR / "out"
HISTORY = BENCH_DIR / "history.jsonl"
MANIFEST = ROOT / "BENCHMARK.json"

# Replace the script directory on the path: ``bench/trace.py`` must not
# shadow the standard library's ``trace`` for anything the program imports.
sys.path[0:1] = [str(ROOT), str(ROOT / "src")]

_import_started = time.perf_counter()
try:
    from bench import check, kernels
    from bench.harness import (
        REFERENCE_QUIET_MS,
        Aggregate,
        aggregate,
        box_speed_ms,
        peak_rss_mb,
    )
    from bench.metrics import PER_LAYER, UNIT
    from bench.trace import NullRecorder, SpanRecorder
    from bench.workloads import WORKLOADS, Outcome, Workload
except ImportError as exc:  # a checkout without the program's source
    print(f"bench: cannot import the program under test: {exc}", file=sys.stderr)
    sys.exit(2)
IMPORT_S = time.perf_counter() - _import_started

#: A host-time number needs a spread beside it: never fewer repeats.
MIN_REPEATS = 2


#: Exponent of the speed factor per unit: times scale with it, rates
#: against it, counts and ratios not at all.
SPEED_EXPONENT = {"s": 1, "ms": 1, "us": 1, "ns": 1, "1/s": -1}


@dataclass
class Repeat:
    """One repeat: raw timings plus the box speed read around them."""

    setup_s: float
    outcome: Outcome
    #: Box speed before set-up, between set-up and run, and (read by the
    #: workload itself) the moment the timed section ended.
    spins: tuple[float, float, float]

    @property
    def setup_scale(self) -> float:
        return REFERENCE_QUIET_MS * 2.0 / (self.spins[0] + self.spins[1])

    @property
    def run_scale(self) -> float:
        return REFERENCE_QUIET_MS * 2.0 / (self.spins[1] + self.spins[2])

    def host(self, name: str) -> float:
        """A per-layer host-time metric of this repeat, at quiet-box speed."""
        return self.outcome.host[name] * self.run_scale ** SPEED_EXPONENT.get(UNIT[name], 0)


@dataclass
class Result:
    """One workload's numbers; ``end_to_end`` or ``per_layer`` stays empty
    when that run was not asked for."""

    workload: str
    problems: list[str] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    end_to_end: dict[str, dict] = field(default_factory=dict)
    per_layer: dict[str, dict] = field(default_factory=dict)
    #: Per-layer names whose value repeated exactly and must compare with ``==``.
    exact: list[str] = field(default_factory=list)

    @property
    def correct(self) -> bool:
        return not self.problems

    def to_dict(self) -> dict:
        return {
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "problems": self.problems,
            "end_to_end": self.end_to_end,
            "per_layer": self.per_layer,
            "exact": self.exact,
        }


def _one_repeat(workload: Workload, tracer) -> Repeat:
    gc.collect()
    with tracer.span("harness.repeat", workload=workload.name):
        spin_before = box_speed_ms()
        start = time.perf_counter()
        world = workload.setup(tracer)
        setup_s = time.perf_counter() - start
        spin_between = box_speed_ms()
        outcome = workload.run(world, tracer)
    return Repeat(setup_s, outcome, (spin_before, spin_between, outcome.spin_after_ms))


def _collect(
    workload: Workload, seconds: float, smoke: bool, recorder: SpanRecorder | None
) -> tuple[list[Repeat], list[Repeat], list[str]]:
    """Repeat until the time budget is spent: plain repeats, and — when
    tracing — a traced repeat after each plain one, so both kinds see the
    same weather and their ratio is the tracing overhead.

    Every repeat is held against the first of its kind as it lands
    (identical results or a problem is recorded); the traced kind's
    first is held against the plain one's, so tracing may not change
    the result either. Only the first and the latest repeat keep their
    artifacts.
    """
    null = NullRecorder()
    plain: list[Repeat] = []
    traced: list[Repeat] = []
    problems: list[str] = []
    deadline = time.perf_counter() + seconds
    while True:
        for kind, repeats, tracer in (
            ("untraced", plain, null), ("traced", traced, recorder)
        ):
            if tracer is None:
                continue
            if len(repeats) > 1:
                repeats[-1].outcome.artifacts = {}
            repeats.append(_one_repeat(workload, tracer))
            reference = repeats[0] if len(repeats) > 1 else plain[0]
            if reference is not repeats[-1]:
                problems += check.repeats_identical(
                    f"{workload.name} {kind} repeat {len(repeats)}",
                    reference.outcome,
                    repeats[-1].outcome,
                    workload.across_fork,
                )
        if len(plain) >= MIN_REPEATS and (smoke or time.perf_counter() >= deadline):
            return plain, traced, problems


def _entry(name: str, value: float) -> dict:
    return {"value": value, "unit": UNIT[name]}


def _timed_entry(name: str, normalised: Aggregate, raw: Aggregate) -> dict:
    """An end-to-end host time: the median of the normalised repeats, with
    its spread and the raw (as-clocked) minimum and median beside it."""
    return {
        **_entry(name, normalised.median),
        "spread": normalised.spread,
        "k": normalised.k,
        "raw_min": raw.best,
        "raw_median": raw.median,
    }


def measure(
    result: Result,
    cls: type[Workload],
    seed: int,
    seconds: float,
    traced: bool,
    smoke: bool,
) -> None:
    """One run of one workload into ``result``: untraced fills the
    end-to-end metrics, traced the per-layer ones."""
    null = NullRecorder()
    warm = cls(seed, True, OUT_DIR)
    warm.run(warm.setup(null), null)  # untimed: lazy imports, code paths, caches

    workload = cls(seed, smoke, OUT_DIR)
    recorder = SpanRecorder(f"{cls.name}-{seed}-{os.getpid()}") if traced else None
    kernel: dict[str, float] = {}
    if traced and workload.simulated:
        kernel = kernels.run_all(seed, smoke, recorder)
    plain, traced_repeats, problems = _collect(workload, seconds, smoke, recorder)
    rss = peak_rss_mb()  # before the gates allocate anything

    last = plain[-1].outcome
    problems += workload.check(last)
    result.problems += [p for p in problems if p not in result.problems]
    result.attempted += sum(r.outcome.attempted for r in plain + traced_repeats)
    result.failed += sum(r.outcome.failed for r in plain + traced_repeats)

    walls = aggregate([r.outcome.wall_s * r.run_scale for r in plain])
    unit_walls = aggregate([r.outcome.unit_wall_s * r.run_scale for r in plain])
    if not traced:
        result.end_to_end = {
            "setup_s": _timed_entry(
                "setup_s",
                aggregate([r.setup_s * r.setup_scale for r in plain]),
                aggregate([r.setup_s for r in plain]),
            ),
            "wall_s": _timed_entry(
                "wall_s", walls, aggregate([r.outcome.wall_s for r in plain])
            ),
            "unit_cost_us": _timed_entry(
                "unit_cost_us",
                aggregate([r.outcome.unit_cost_us * r.run_scale for r in plain]),
                aggregate([r.outcome.unit_cost_us for r in plain]),
            ),
            "peak_rss_mb": _entry("peak_rss_mb", rss),
        }
        return

    first = traced_repeats[0].outcome
    layer: dict[str, float] = dict(first.exact)
    for name in {n for r in traced_repeats for n in r.outcome.host if n in UNIT}:
        layer[name] = aggregate(
            [r.host(name) for r in traced_repeats if name in r.outcome.host]
        ).median
    layer.update(kernel)
    traced_walls = aggregate([r.outcome.wall_s * r.run_scale for r in traced_repeats])
    overhead = traced_walls.median / walls.median - 1.0
    spins = [spin for r in plain + traced_repeats for spin in r.spins]
    layer.update({
        "harness.spin_ms": min(spins),
        "harness.slowdown_frac": aggregate(spins).median / REFERENCE_QUIET_MS - 1.0,
        "harness.repeat_spread": walls.spread,
        "harness.trace_overhead_frac": overhead,
        "harness.import_s": IMPORT_S,
        # On the two single-process campaigns the traced run differs from
        # the untraced one by enable_observability() (plus a handful of
        # bench spans), so the same ratio is the obs stack's on-cost.
        "obs.observe_overhead_frac": overhead if workload.engine_layer else 0.0,
    })
    workload.derive(layer, kernel, unit_walls.median, last.units)
    result.per_layer = {
        name: _entry(name, float(layer.get(name, 0.0))) for name, _, _ in PER_LAYER
    }
    result.exact = sorted(
        name for name in result.per_layer
        if name in first.exact or (name in kernel and UNIT[name] == "count")
    )
    recorder.write(OUT_DIR / f"trace-{cls.name}.json")


def _print_table(result: Result) -> None:
    print(f"== {result.workload} ==")
    for name, entry in result.end_to_end.items():
        extra = ""
        if "k" in entry:
            extra = (
                f"  (median of {entry['k']} normalised repeats, IQR/median "
                f"{entry['spread']:.3f}; raw min {entry['raw_min']:.6g}, "
                f"raw median {entry['raw_median']:.6g})"
            )
        print(f"{name:<44} {entry['value']:>16.6f} {entry['unit']}{extra}")
    for name, entry in result.per_layer.items():
        mark = " =" if name in result.exact else ""
        print(f"{name:<44} {entry['value']:>16.6f} {entry['unit']}{mark}")
    for problem in result.problems:
        print(f"CHECK FAILED: {problem}")


def _commit() -> str | None:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip()


def _meta(seed: int, seconds: float) -> dict:
    return {
        "time": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "commit": _commit(),
        "seed": seed,
        "run_seconds": seconds,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), default=None,
                        help="one workload (default: all four)")
    parser.add_argument("--seed", type=int, default=47)
    parser.add_argument("--seconds", type=float, default=None,
                        help="time budget of one run (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), nargs="?", const=1,
                        default=None,
                        help="0: end-to-end run only; 1: traced per-layer run only")
    parser.add_argument("--json", type=Path, default=None,
                        help="write the full results here (input to compare.py)")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, two repeats: exercises every code path fast")
    parser.add_argument("--no-history", action="store_true",
                        help="do not append this invocation to bench/history.jsonl")
    args = parser.parse_args(argv)

    seconds = args.seconds
    if seconds is None:
        seconds = float(json.loads(MANIFEST.read_text())["run_seconds"])
    names = [args.workload] if args.workload else list(WORKLOADS)
    modes = (False, True) if args.trace is None else (bool(args.trace),)

    results: dict[str, Result] = {}
    for name in names:
        result = results[name] = Result(name)
        for traced in modes:
            measure(result, WORKLOADS[name], args.seed, seconds, traced, args.smoke)
        _print_table(result)

    meta = _meta(args.seed, seconds)
    if args.json is not None:
        args.json.parent.mkdir(parents=True, exist_ok=True)
        args.json.write_text(json.dumps({
            "meta": meta,
            "workloads": {name: r.to_dict() for name, r in results.items()},
        }, indent=1) + "\n")
    full = len(names) == len(WORKLOADS) and False in modes
    if full and not args.smoke and not args.no_history:
        with HISTORY.open("a") as fh:
            fh.write(json.dumps({**meta, "end_to_end": {
                name: {m: e["value"] for m, e in r.end_to_end.items()}
                for name, r in results.items()
            }}) + "\n")

    single = len(results) == 1
    metrics = {
        (metric if single else f"{name}/{metric}"): {
            "value": entry["value"], "unit": entry["unit"],
        }
        for name, r in results.items()
        for metric, entry in {**r.end_to_end, **r.per_layer}.items()
    }
    correct = all(r.correct for r in results.values())
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r.attempted for r in results.values()),
        "failed": sum(r.failed for r in results.values()),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
