"""Command-line interface: ``python -m repro <command>``.

Commands mirror how the paper's tool was used operationally:

* ``validate`` — ground-truth accuracy check (the Figure 3 experiment,
  small scale): build the PlanetLab-style testbed, measure all pairs,
  compare against ping.
* ``measure`` — run an all-pairs Ting campaign over a random live-relay
  sample and optionally save it as a campaign dataset (npz).
* ``tiv`` — analyze a saved dataset's matrix (from ``measure --output``)
  for triangle-inequality violations.
* ``deanon`` — replay the Section 5.1 deanonymization strategies over a
  saved dataset's matrix.
* ``coverage`` — synthesize a consensus archive and print the
  Section 5.3 coverage statistics.
* ``stats`` — run an instrumented concurrent all-pairs campaign and
  report the observability counters (circuits, probes, losses, cache
  hits, heap compactions), optionally exporting the full metrics
  snapshot as JSON. ``--workers N`` routes the same instrumented run
  through the sharded multiprocess path and reports the *merged*
  registry.
* ``report`` — run (or load) an instrumented campaign and emit the
  fused run report: accuracy vs the simulator's ground truth, failure
  breakdown, slowest pairs, shard balance, span summary; optionally
  exporting report JSON, a Perfetto-loadable span trace, and the
  matrix+provenance dataset.
* ``tail`` — render an ``--events`` JSONL stream as console lines,
  with severity/category/``--since`` filters and an optional
  ``--follow`` mode; pointed at a saved campaign dataset (sniffed) it
  replays the provenance history as events.
* ``plan`` — score every pair of a relay set against an existing
  campaign dataset (coverage, staleness, predicted-vs-measured
  disagreement, ``--quality`` data-quality deficit) and emit a
  prioritized, budgeted pair list; with ``--run``, measure the planned
  pairs as a sharded campaign and fold the results back into the
  dataset (incremental refresh).
* ``health`` — grade a saved campaign dataset's data quality: the
  ``repro.obs.health`` scorecard (coverage, symmetry, physical
  plausibility, TIV rate, staleness, per-pair quality percentiles),
  a drift diff against a ``--baseline`` version, and ``--check``
  exit-code gating for CI.
* ``serve`` — answer latency queries against a saved campaign dataset
  through the read-optimized ``repro.serve`` index: one-shot queries
  (``point A B``, ``knn A [K]``, ``percentile A Q``, ``path A B C``,
  ``via A B [K]``, ``freshness``), a ``--batch`` JSONL mode fanned out
  across ``--workers`` forked processes, ``--mmap`` to share one page-
  cache copy of the npz matrix between them.

Output conventions: machine-readable results (reports, metric
listings, ``tail`` lines) go to **stdout**; human-facing progress
chatter goes to **stderr** and is silenced by the global ``--quiet``
flag — so ``repro report --quiet > report.txt`` stays clean.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import Callable

import numpy as np

from repro.analysis.stats import fraction_within, spearman_rank_correlation
from repro.apps.coverage import ResidentialClassifier, synthesize_archive
from repro.apps.deanon import STRATEGIES, DeanonymizationSimulator
from repro.apps.tiv import tiv_summary
from repro.core.campaign import AllPairsCampaign, ProbeBudget
from repro.core.dataset import CampaignDataset, RttMatrix
from repro.core.parallel import ParallelCampaign
from repro.core.planner import CampaignPlanner
from repro.core.sampling import SamplePolicy
from repro.core.shard import CampaignTelemetry, ShardedCampaign
from repro.core.ting import TingMeasurer
from repro.obs import (
    Event,
    JsonlSink,
    ProgressTracker,
    format_event,
    severity_level,
)
from repro.testbeds.livetor import LiveTorTestbed
from repro.testbeds.planetlab import PlanetLabTestbed
from repro.util.errors import ReproError


#: ``--policy`` choices shared by measure/stats/report.
POLICY_CHOICES = ("fixed", "adaptive-1ms", "adaptive-5pct")

#: ``--min-severity`` choices for ``tail``.
SEVERITY_CHOICES = ("debug", "info", "warning", "error")


def _status(args: argparse.Namespace) -> Callable[..., None]:
    """The human-facing progress channel: stderr, silenced by ``--quiet``.

    Every command routes its progress chatter through this, keeping
    stdout reserved for machine-readable output (reports, metric
    listings, ``tail`` lines) so pipelines stay clean.
    """
    if getattr(args, "quiet", False):
        return lambda message="": None
    return lambda message="": print(message, file=sys.stderr)


def _write_json_artifact(
    path: Path, text: str, label: str, status: Callable[..., None]
) -> None:
    """Write one JSON artifact and announce it on the status channel.

    The single output-writing path shared by ``stats`` and ``report``
    (snapshot, report JSON) so the write-then-announce idiom cannot
    drift between commands.
    """
    path.write_text(text)
    status(f"{label} written to {path}")


def _render_progress(tracker: ProgressTracker) -> None:
    """Redraw the one-line progress display on stderr, in place (``\\r``)."""
    print(f"\r  {tracker.render()}", end="", file=sys.stderr, flush=True)


def _geo_meta(testbed, relays) -> dict[str, list[float]]:
    """``meta["geo"]``: fingerprint → [lat, lon] from the testbed's
    geolocation database, for the health layer's light-time check.

    The coordinates persist with the dataset's meta, so ``repro
    health`` can run the physical-plausibility check on a reloaded
    dataset with no testbed around.
    """
    db = getattr(testbed, "geolocation", None)
    if db is None:
        return {}
    geo: dict[str, list[float]] = {}
    for descriptor in relays:
        try:
            point = db.lookup(descriptor.address)
        except KeyError:
            continue
        geo[descriptor.fingerprint] = [point.lat, point.lon]
    return geo


def resolve_policy(name: str, samples: int) -> SamplePolicy:
    """Map a ``--policy`` choice to a :class:`SamplePolicy`.

    ``fixed`` keeps the historical fixed-count behaviour bit for bit;
    the adaptive choices treat ``--samples`` as the cap and stop early
    on convergence (Section 4.4). ``min_samples`` is clamped to the cap
    so small ``--samples`` values stay valid.
    """
    if name == "fixed":
        return SamplePolicy(samples=samples)
    if name == "adaptive-1ms":
        return SamplePolicy.adaptive_1ms(
            max_samples=samples, min_samples=min(10, samples)
        )
    if name == "adaptive-5pct":
        return SamplePolicy.adaptive_5pct(
            max_samples=samples, min_samples=min(10, samples)
        )
    raise ValueError(f"unknown policy {name!r}")


def _add_policy_flag(command: argparse.ArgumentParser) -> None:
    command.add_argument(
        "--policy", choices=POLICY_CHOICES, default="fixed",
        help="probe policy: fixed count, or convergence-triggered "
             "early stopping at the 1 ms / 5%% tolerance "
             "(--samples becomes the cap)")


def build_parser() -> argparse.ArgumentParser:
    """Construct the argparse CLI parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Ting (IMC'15) reproduction toolkit",
    )
    parser.add_argument("--seed", type=int, default=2015, help="root RNG seed")
    parser.add_argument("--quiet", "-q", action="store_true",
                        help="silence progress chatter on stderr "
                             "(machine output on stdout is unaffected)")
    sub = parser.add_subparsers(dest="command", required=True)

    validate = sub.add_parser("validate", help="ground-truth accuracy check")
    validate.add_argument("--relays", type=int, default=8)
    validate.add_argument("--samples", type=int, default=100)

    measure = sub.add_parser("measure", help="all-pairs Ting campaign")
    measure.add_argument("--relays", type=int, default=10)
    measure.add_argument("--network-size", type=int, default=60)
    measure.add_argument("--samples", type=int, default=50)
    _add_policy_flag(measure)
    measure.add_argument("--probe-budget", type=int, default=None,
                         help="campaign-wide probe allowance; as it runs "
                              "low, remaining pairs degrade to coarser "
                              "tolerances and smaller caps")
    measure.add_argument("--progress", action="store_true",
                         help="live progress line on stderr (pairs done, "
                              "probe totals, EWMA rate, ETA)")
    measure.add_argument("--events", type=Path, default=None,
                         help="stream campaign telemetry events to this "
                              "JSONL file (read it with 'repro tail')")
    measure.add_argument("--output", type=Path, default=None,
                         help="save the matrix and run metadata as a "
                              "campaign dataset (npz)")

    tiv = sub.add_parser("tiv", help="TIV analysis of a measured matrix")
    tiv.add_argument("matrix", type=Path, help="a saved campaign dataset")

    deanon = sub.add_parser("deanon", help="deanonymization replay")
    deanon.add_argument("matrix", type=Path, help="a saved campaign dataset")
    deanon.add_argument("--runs", type=int, default=300)

    coverage = sub.add_parser("coverage", help="network coverage statistics")
    coverage.add_argument("--days", type=int, default=30)
    coverage.add_argument("--relays", type=int, default=3000)

    stats = sub.add_parser(
        "stats", help="instrumented campaign with metrics report"
    )
    stats.add_argument("--relays", type=int, default=8)
    stats.add_argument("--network-size", type=int, default=40)
    stats.add_argument("--samples", type=int, default=20)
    stats.add_argument("--concurrency", type=int, default=4)
    _add_policy_flag(stats)
    stats.add_argument("--probe-budget", type=int, default=None,
                       help="campaign-wide probe allowance (unsharded "
                            "runs only)")
    stats.add_argument("--workers", type=int, default=0,
                       help="run the sharded multiprocess path with N "
                            "workers and report the merged metrics "
                            "(0 = unsharded concurrent campaign)")
    stats.add_argument("--output", type=Path, default=None,
                       help="write the full metrics snapshot as JSON")
    stats.add_argument("--format", choices=("table", "prom"), default="table",
                       help="stdout format: human-readable table, or "
                            "Prometheus text exposition for scraping")

    report = sub.add_parser(
        "report", help="fused run report: accuracy, failures, spans, shards"
    )
    report.add_argument("--relays", type=int, default=8)
    report.add_argument("--network-size", type=int, default=40)
    report.add_argument("--samples", type=int, default=10)
    _add_policy_flag(report)
    report.add_argument("--workers", type=int, default=2,
                        help="worker processes for the instrumented "
                             "sharded campaign")
    report.add_argument("--top", type=int, default=5,
                        help="slowest pairs to list")
    report.add_argument("--input", type=Path, default=None,
                        help="report on a saved campaign dataset instead "
                             "of running a new campaign")
    report.add_argument("--no-ground-truth", action="store_true",
                        help="skip the accuracy-vs-oracle section")
    report.add_argument("--json", type=Path, default=None, dest="json_out",
                        help="write the report as JSON")
    report.add_argument("--spans", type=Path, default=None,
                        help="write the span trace as Chrome trace-event "
                             "JSON (open in ui.perfetto.dev)")
    report.add_argument("--output", type=Path, default=None,
                        help="write the matrix+provenance dataset (npz)")
    report.add_argument("--progress", action="store_true",
                        help="live progress line on stderr, fed by worker "
                             "heartbeats streamed across the fork boundary")
    report.add_argument("--events", type=Path, default=None,
                        help="stream worker telemetry events to this JSONL "
                             "file (read it with 'repro tail')")
    report.add_argument("--worker-timeout", type=float, default=None,
                        help="fail the campaign if a shard worker has not "
                             "finished after this many wall seconds")

    plan = sub.add_parser(
        "plan", help="prioritized, budgeted pair plan (optional refresh run)"
    )
    plan.add_argument("--relays", type=int, default=60)
    plan.add_argument("--network-size", type=int, default=100)
    plan.add_argument("--budget", type=int, default=None,
                      help="max pairs to plan (default: every pair with a "
                           "positive score)")
    plan.add_argument("--input", type=Path, default=None,
                      help="existing campaign dataset to refresh")
    plan.add_argument("--predict", action="store_true",
                      help="train a Vivaldi coordinate model on the dataset "
                           "and steer the plan toward predicted-vs-measured "
                           "disagreement")
    plan.add_argument("--top", type=int, default=10,
                      help="planned pairs to print")
    plan.add_argument("--json", type=Path, default=None, dest="json_out",
                      help="write the plan (summary + scored pair list) as "
                           "JSON")
    plan.add_argument("--run", action="store_true",
                      help="measure the planned pairs as a sharded campaign "
                           "and fold the results into the dataset")
    plan.add_argument("--samples", type=int, default=6)
    plan.add_argument("--workers", type=int, default=2,
                      help="worker processes for --run")
    plan.add_argument("--output", type=Path, default=None,
                      help="write the refreshed dataset here (npz)")
    plan.add_argument("--quality", action="store_true",
                      help="score per-pair data quality from the dataset's "
                           "provenance (repro.obs.health) and refresh "
                           "low-quality estimates first")
    _add_policy_flag(plan)

    tail = sub.add_parser(
        "tail", help="render an --events JSONL stream as console lines"
    )
    tail.add_argument("events", type=Path,
                      help="events JSONL file — or a saved campaign dataset "
                           "(sniffed), whose provenance history is "
                           "replayed as events")
    tail.add_argument("--min-severity", choices=SEVERITY_CHOICES,
                      default="debug", help="hide events below this severity")
    tail.add_argument("--category", default=None,
                      help="only events in this category (e.g. campaign)")
    tail.add_argument("--kind", default=None,
                      help="only events of this kind (e.g. pair_measured)")
    tail.add_argument("--since", type=float, default=None,
                      help="only events at or after this sim-ms timestamp "
                           "(for dataset replays: the provenance row index)")
    tail.add_argument("--follow", "-f", action="store_true",
                      help="keep reading as the file grows (Ctrl-C to stop; "
                           "ignored for dataset inputs)")

    health = sub.add_parser(
        "health", help="data-quality scorecard + drift diff for a dataset"
    )
    health.add_argument("--input", type=Path, required=True,
                        help="campaign dataset to grade")
    health.add_argument("--baseline", type=Path, default=None,
                        help="older dataset version: also emit the drift "
                             "diff (node churn, per-pair deltas, quality "
                             "regressions)")
    health.add_argument("--stale-after", type=int, default=None,
                        help="pair age in provenance rows past which it "
                             "counts as stale (default: one full sweep)")
    health.add_argument("--json", type=Path, default=None, dest="json_out",
                        help="write the scorecard (and drift diff) as JSON")
    health.add_argument("--check", action="store_true",
                        help="exit nonzero if any check grades FAIL "
                             "(the CI gate)")

    serve = sub.add_parser(
        "serve", help="answer latency queries against a saved dataset"
    )
    serve.add_argument("--input", type=Path, required=True,
                       help="campaign dataset to serve")
    serve.add_argument("query", nargs="*", default=[],
                       help="one-shot query: point A B | knn A [K] | "
                            "percentile A Q | path A B C... | via A B [K] "
                            "| freshness")
    serve.add_argument("--batch", type=Path, default=None,
                       help="answer a JSONL file of query dicts "
                            "('-' = stdin); one JSON answer per line")
    serve.add_argument("--workers", type=int, default=1,
                       help="forked query workers for --batch")
    serve.add_argument("--mmap", action="store_true",
                       help="memory-map the npz matrix so workers share "
                            "one page-cache copy")
    serve.add_argument("--stats", action="store_true",
                       help="record query telemetry and print a summary "
                            "(per-op latency quantiles, error taxonomy, "
                            "slow-query count) to stderr after answering")
    serve.add_argument("--slow-ms", type=float, default=1.0,
                       help="access-log threshold in ms: queries at or "
                            "above it ring as serve.slow_query events "
                            "(default 1.0)")
    serve.add_argument("--telemetry", type=Path, default=None,
                       help="write recorded telemetry here: a .prom suffix "
                            "gets Prometheus text exposition, anything "
                            "else JSONL (summary line, access-log events, "
                            "sampled spans)")
    serve.add_argument("--sample-every", type=int, default=100,
                       help="keep one latency span per N queries "
                            "(0 disables span sampling; default 100)")

    return parser


def cmd_validate(args: argparse.Namespace) -> int:
    """``validate``: Figure 3-style accuracy check vs ping."""
    status = _status(args)
    status(f"Building {args.relays}-relay ground-truth testbed (seed {args.seed}) ...")
    testbed = PlanetLabTestbed.build(seed=args.seed, n_relays=args.relays)
    measurer = TingMeasurer(
        testbed.measurement, policy=SamplePolicy(samples=args.samples)
    )
    estimates, pings = [], []
    pairs = testbed.relay_pairs()
    for index, (a, b) in enumerate(pairs):
        estimates.append(measurer.measure_pair(a, b).rtt_ms)
        pings.append(testbed.ping_ground_truth(a, b))
        status(f"  [{index + 1}/{len(pairs)}] {a.nickname}-{b.nickname}: "
               f"ting={estimates[-1]:.1f} ms ping={pings[-1]:.1f} ms")
    within = fraction_within(estimates, pings, 0.10)
    rho = spearman_rank_correlation(estimates, pings)
    print(f"within 10% of ping: {within:.1%} (paper: 91%)")
    print(f"Spearman rank correlation: {rho:.4f} (paper: 0.997)")
    return 0


def cmd_measure(args: argparse.Namespace) -> int:
    """``measure``: run an all-pairs Ting campaign."""
    status = _status(args)
    status(f"Building live-Tor-style network ({args.network_size} relays) ...")
    testbed = LiveTorTestbed.build(seed=args.seed, n_relays=args.network_size)
    rng = testbed.streams.get("cli.selection")
    relays = testbed.random_relays(args.relays, rng)
    measurer = TingMeasurer(
        testbed.measurement,
        policy=resolve_policy(args.policy, args.samples),
        cache_legs=True,
    )
    budget = (
        ProbeBudget(total=args.probe_budget)
        if args.probe_budget is not None
        else None
    )
    pairs = args.relays * (args.relays - 1) // 2
    jsonl = None
    if args.progress or args.events is not None:
        bus = testbed.measurement.enable_events()
        if args.events is not None:
            jsonl = JsonlSink(args.events)
            bus.add_sink(jsonl)
        if args.progress and not args.quiet:
            tracker = ProgressTracker(pairs)

            def redraw(event: Event) -> None:
                if tracker.observe(event):  # per pair; probes tick silently
                    _render_progress(tracker)

            bus.add_sink(redraw)
    status(f"Measuring all {pairs} pairs ({args.policy} policy) ...")
    try:
        report = AllPairsCampaign(measurer, relays, rng=rng, budget=budget).run()
    finally:
        if args.progress and not args.quiet:
            print(file=sys.stderr)  # end the \r progress line
        if jsonl is not None:
            jsonl.close()
    matrix = report.matrix
    status(f"  measured {report.pairs_measured} pairs, "
           f"{len(report.failures)} failures, "
           f"mean RTT {matrix.mean_rtt_ms():.1f} ms, "
           f"{report.makespan_ms / 60000:.1f} simulated minutes")
    if report.probes_saved:
        status(f"  probes sent {report.probes_sent}, "
               f"saved {report.probes_saved} by early stopping")
    if budget is not None:
        status(f"  probe budget: {budget.spent}/{budget.total} spent, "
               f"{budget.degraded_tasks} pair(s) degraded")
    if args.events is not None:
        status(f"  events written to {args.events}")
    if args.output is not None:
        CampaignDataset(
            matrix=matrix,
            meta={
                "seed": args.seed,
                "network_size": args.network_size,
                "relays": args.relays,
                "samples": args.samples,
                "pairs_attempted": report.pairs_attempted,
                "geo": _geo_meta(testbed, relays),
            },
        ).save(args.output)
        status(f"  campaign dataset written to {args.output}")
    return 0


def cmd_tiv(args: argparse.Namespace) -> int:
    """``tiv``: TIV analysis of a saved dataset's matrix."""
    matrix = CampaignDataset.load(args.matrix).matrix
    summary = tiv_summary(matrix)
    print(f"nodes: {len(matrix)}  pairs: {int(summary['pairs'])}")
    print(f"pairs with a TIV: {summary['tiv_fraction']:.1%} (paper: 69%)")
    print(f"median detour saving: {summary['median_savings_fraction']:.1%} "
          "(paper: 7.5%)")
    print(f"top-decile saving: {summary['p90_savings_fraction']:.1%} "
          "(paper: >= 28%)")
    return 0


def cmd_deanon(args: argparse.Namespace) -> int:
    """``deanon``: replay the Section 5.1 strategies."""
    matrix = CampaignDataset.load(args.matrix).matrix
    simulator = DeanonymizationSimulator(matrix, np.random.default_rng(args.seed))
    results = simulator.evaluate_all(runs=args.runs)
    print(f"{args.runs} victim circuits over {len(matrix)} nodes:")
    for strategy in STRATEGIES:
        fractions = [r.fraction_tested for r in results[strategy]]
        print(f"  {strategy:<10} median fraction probed: "
              f"{float(np.median(fractions)):.1%}")
    unaware = np.median([r.fraction_tested for r in results["unaware"]])
    informed = np.median([r.fraction_tested for r in results["informed"]])
    print(f"speedup: {unaware / informed:.2f}x (paper: 1.5x)")
    return 0


def cmd_coverage(args: argparse.Namespace) -> int:
    """``coverage``: Section 5.3 network-coverage statistics."""
    archive = synthesize_archive(
        np.random.default_rng(args.seed),
        n_days=args.days,
        initial_relays=args.relays,
    )
    days, totals, uniques = archive.series()
    classifier = ResidentialClassifier()
    residential = classifier.residential_fraction_of_named(archive.latest)
    print(f"{args.days}-day archive, ~{args.relays} relays:")
    print(f"  total relays: {min(totals)}-{max(totals)}")
    print(f"  unique /24s: {min(uniques)}-{max(uniques)} "
          "(paper window: 5426-6044)")
    print(f"  residential share of named relays: {residential:.1%} (paper: 61%)")
    return 0


def cmd_stats(args: argparse.Namespace) -> int:
    """``stats``: instrumented concurrent campaign + metrics report.

    With ``--workers N`` the same instrumented campaign runs through
    :class:`ShardedCampaign` and the *merged* registry is reported —
    deterministic counters (pairs attempted/measured, leg cache hits)
    match the single-process run exactly, which is the property the
    shard-invariance tests pin down.
    """
    status = _status(args)
    status(f"Building live-Tor-style network ({args.network_size} relays) ...")
    pairs = args.relays * (args.relays - 1) // 2
    policy = resolve_policy(args.policy, args.samples)
    if args.workers >= 1:
        if args.probe_budget is not None:
            # A shared mutable budget cannot cross process boundaries —
            # and splitting it would break shard invariance.
            print("--probe-budget requires an unsharded run (--workers 0)",
                  file=sys.stderr)
            return 2
        testbed = LiveTorTestbed.build(seed=args.seed, n_relays=args.network_size)
        rng = testbed.streams.get("cli.selection")
        relays = testbed.random_relays(args.relays, rng)
        status(f"Measuring all {pairs} pairs "
               f"({args.workers} workers, instrumented) ...")
        sharded = ShardedCampaign(
            lambda: testbed,
            [d.fingerprint for d in relays],
            policy=policy,
            workers=args.workers,
            observe=True,
            clamp_to_cpus=True,
        ).run()
        registry = sharded.metrics
        bus = sharded.events
        status(f"  measured {sharded.pairs_measured}/{sharded.pairs_attempted} "
               f"pairs, {len(sharded.failures)} failures, "
               f"merged from {len(sharded.shards)} shard(s)")
    else:
        testbed = LiveTorTestbed.build(seed=args.seed, n_relays=args.network_size)
        host = testbed.measurement
        registry = host.enable_observability()
        bus = host.events
        rng = testbed.streams.get("cli.selection")
        relays = testbed.random_relays(args.relays, rng)
        status(f"Measuring all {pairs} pairs "
               f"(concurrency {args.concurrency}, instrumented) ...")
        budget = (
            ProbeBudget(total=args.probe_budget)
            if args.probe_budget is not None
            else None
        )
        report = ParallelCampaign(
            host,
            relays,
            policy=policy,
            concurrency=args.concurrency,
            budget=budget,
        ).run()
        status(f"  measured {report.pairs_measured}/{report.pairs_attempted} "
               f"pairs, {len(report.failures)} failures, "
               f"{report.makespan_ms / 60000:.1f} simulated minutes")
        if budget is not None:
            status(f"  probe budget: {budget.spent}/{budget.total} spent, "
                   f"{budget.degraded_tasks} task(s) degraded")

    snapshot = registry.snapshot()
    if args.format == "prom":
        from repro.obs.registry import prometheus_exposition

        print(prometheus_exposition(snapshot), end="")
        if args.output is not None:
            _write_json_artifact(
                args.output, json.dumps(snapshot, indent=2),
                "  metrics snapshot", status,
            )
        return 0
    counters = snapshot["counters"]
    print("\ncampaign metrics:")
    for name in (
        "tor.circuits_built",
        "tor.circuits_failed",
        "tor.streams_attached",
        "echo.probes_sent",
        "echo.probes_received",
        "echo.probes_lost",
        "echo.early_stops",
        "echo.probes_flown",
        "echo.flight_rollbacks",
        "ting.probes_saved",
        "ting.leg_cache_lookups",
        "ting.leg_cache_hits",
        "ting.leg_cache_misses",
        "sim.heap_compactions",
    ):
        print(f"  {name:<24} {counters.get(name, 0)}")
    sent = counters.get("echo.probes_sent", 0)
    lost = counters.get("echo.probes_lost", 0)
    if sent:
        print(f"  {'probe loss rate':<24} {lost / sent:.2%}")
        flown = counters.get("echo.probes_flown", 0) + counters.get("echo.train_probes_flown", 0)
        print(f"  {'probes flown / sent':<24} {flown / sent:.2%}")
    rtt = registry.histogram("echo.rtt_ms")
    if rtt is not None and rtt.count:
        cuts = rtt.quantiles()
        print(f"  {'probe RTT mean':<24} {rtt.mean:.1f} ms "
              f"(p50~{cuts['p50']:.1f} ms, p95~{cuts['p95']:.1f} ms)")
    if snapshot["histograms"]:
        print("\nlatency quantiles (bucket-interpolated):")
        for name in sorted(snapshot["histograms"]):
            histogram = registry.histogram(name)
            if histogram is None or not histogram.count:
                continue
            cuts = histogram.quantiles()
            print(f"  {name:<24} p50={cuts['p50']:.2f}  p95={cuts['p95']:.2f}  "
                  f"p99={cuts['p99']:.2f} ms  (n={histogram.count})")
    gauges = snapshot["gauges"]
    for name in ("campaign.peak_concurrency", "sim.heap_peak",
                 "sim.events_processed"):
        if name in gauges:
            print(f"  {name:<24} {gauges[name]:g}")
    print(f"  {'bus events emitted':<24} {bus.emitted}  "
          f"(retained {len(bus)}, dropped {bus.recorder.dropped})")

    if args.output is not None:
        _write_json_artifact(
            args.output, json.dumps(snapshot, indent=2),
            "  metrics snapshot", status,
        )
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    """``report``: run an instrumented campaign, emit the fused report.

    Default mode runs an observed :class:`ShardedCampaign` and fuses
    merged metrics + spans + provenance + shard balance + the
    simulator's oracle RTTs into one report. ``--input`` instead
    re-reports a saved :class:`CampaignDataset` (matrix + provenance
    only — spans and shard data do not persist in datasets).
    """
    from repro.obs.report import build_report

    status = _status(args)
    if args.input is not None:
        from repro.obs.health import health_report

        dataset = CampaignDataset.load(args.input)
        report = build_report(
            dataset.matrix,
            provenance=dataset.provenance,
            pairs_attempted=dataset.meta.get("pairs_attempted"),
            makespan_ms=dataset.meta.get("makespan_ms"),
            top_n=args.top,
            health=health_report(dataset, seed=args.seed),
        )
        print(report.render_text())
        if args.json_out is not None:
            _write_json_artifact(
                args.json_out, report.to_json(), "\nreport JSON", status
            )
        return 0

    status(f"Building live-Tor-style network ({args.network_size} relays) ...")
    testbed = LiveTorTestbed.build(seed=args.seed, n_relays=args.network_size)
    rng = testbed.streams.get("cli.selection")
    relays = testbed.random_relays(args.relays, rng)
    pairs = args.relays * (args.relays - 1) // 2
    status(f"Measuring all {pairs} pairs "
           f"({max(1, args.workers)} worker(s), instrumented) ...")
    telemetry = None
    jsonl = None
    if args.progress or args.events is not None:
        telemetry = CampaignTelemetry()
        if args.progress and not args.quiet:
            telemetry.on_progress = _render_progress
        if args.events is not None:
            jsonl = JsonlSink(args.events)
            telemetry.bus.add_sink(jsonl)
    try:
        sharded = ShardedCampaign(
            lambda: testbed,
            [d.fingerprint for d in relays],
            policy=resolve_policy(args.policy, args.samples),
            workers=args.workers,
            observe=True,
            telemetry=telemetry,
            worker_timeout_s=args.worker_timeout,
            clamp_to_cpus=True,
        ).run()
    finally:
        if args.progress and not args.quiet:
            print(file=sys.stderr)  # end the \r progress line
        if jsonl is not None:
            jsonl.close()
    if args.events is not None:
        status(f"events written to {args.events}")

    ground_truth = None
    if not args.no_ground_truth:
        ground_truth = RttMatrix([d.fingerprint for d in relays])
        for i, a in enumerate(relays):
            for b in relays[i + 1:]:
                ground_truth.set(
                    a.fingerprint, b.fingerprint, testbed.oracle_rtt(a, b)
                )

    report = build_report(
        sharded.matrix,
        metrics=sharded.metrics,
        spans=sharded.spans,
        provenance=sharded.provenance,
        events=sharded.events,
        shards=sharded.shards,
        sharded_run=sharded,
        ground_truth=ground_truth,
        pairs_attempted=sharded.pairs_attempted,
        top_n=args.top,
    )
    print(report.render_text())
    if args.json_out is not None:
        _write_json_artifact(
            args.json_out, report.to_json(), "\nreport JSON", status
        )
    if args.spans is not None:
        sharded.spans.save(args.spans)
        status(f"span trace written to {args.spans} "
               "(open in ui.perfetto.dev)")
    if args.output is not None:
        CampaignDataset(
            matrix=sharded.matrix,
            provenance=sharded.provenance,
            meta={
                "seed": args.seed,
                "network_size": args.network_size,
                "relays": args.relays,
                "samples": args.samples,
                "workers": args.workers,
                "pairs_attempted": sharded.pairs_attempted,
                "geo": _geo_meta(testbed, relays),
            },
        ).save(args.output)
        status(f"campaign dataset written to {args.output}")
    return 0


def cmd_plan(args: argparse.Namespace) -> int:
    """``plan``: score pairs, cut to a budget, optionally run the refresh.

    The planner reads an existing dataset (``--input``) as the standing
    measurement history: unmeasured pairs score as coverage, previously
    failed pairs as retries, old measurements by provenance age, and —
    with ``--predict`` — pairs where a Vivaldi coordinate model trained
    on the dataset disagrees most with the measured values. Without
    ``--input`` every pair is a cold-start coverage candidate. ``--run``
    measures the planned pairs with the sharded engine and folds matrix
    entries + provenance back into the dataset (``--output`` to save).
    """
    status = _status(args)
    if args.budget is not None and args.budget < 0:
        print("--budget must be zero or more pairs", file=sys.stderr)
        return 2
    status(f"Building live-Tor-style network ({args.network_size} relays) ...")
    testbed = LiveTorTestbed.build(seed=args.seed, n_relays=args.network_size)
    rng = testbed.streams.get("cli.selection")
    relays = testbed.random_relays(args.relays, rng)
    fingerprints = [d.fingerprint for d in relays]

    dataset = None
    if args.input is not None:
        dataset = CampaignDataset.load(args.input)
        status(f"loaded dataset: {dataset.matrix.num_measured} measured "
               f"pairs, {len(dataset.provenance)} provenance records")

    predicted = None
    if args.predict:
        if dataset is None or dataset.matrix.num_measured < 1:
            print("--predict needs --input with measured pairs",
                  file=sys.stderr)
            return 2
        from repro.apps.coordinates import VivaldiSystem

        samples = list(dataset.matrix.measured_pairs())
        system = VivaldiSystem(
            dataset.matrix.nodes, testbed.streams.get("cli.vivaldi")
        )
        system.train(samples, rounds=10)
        predicted = system.predict_matrix()
        status(f"Vivaldi model trained on {len(samples)} pairs "
               f"(mean error {system.mean_error():.3f})")

    quality = None
    if args.quality:
        if dataset is None:
            print("--quality needs --input with provenance history",
                  file=sys.stderr)
            return 2
        quality = dataset.quality()
        status(f"quality scored {quality.summary()['scored_pairs']} pairs "
               f"from provenance")

    planner = CampaignPlanner(
        fingerprints, dataset=dataset, predicted=predicted, seed=args.seed,
        quality=quality,
    )
    plan = planner.plan(budget_pairs=args.budget)
    summary = plan.summary()
    print(f"plan: {summary['planned']} of {summary['candidates']} candidate "
          f"pairs (budget {summary['budget'] or 'none'})")
    print(f"  unmeasured={summary['unmeasured']} failed={summary['failed']} "
          f"with_history={summary['with_history']} "
          f"with_predictions={summary['with_predictions']} "
          f"with_quality={summary['with_quality']}")
    for (a, b), score in list(zip(plan.pairs, plan.scores))[: args.top]:
        print(f"  {score:8.4f}  {a[:16]} - {b[:16]}")
    if args.json_out is not None:
        _write_json_artifact(
            args.json_out,
            json.dumps(
                {
                    "summary": summary,
                    "pairs": [
                        [a, b, round(float(s), 6)]
                        for (a, b), s in zip(plan.pairs, plan.scores)
                    ],
                },
                indent=2,
            ),
            "\nplan JSON",
            status,
        )

    if not args.run:
        return 0
    if not plan.pairs:
        print("nothing to refresh: every pair is fresh under the plan")
        return 0

    status(f"Measuring {len(plan.pairs)} planned pairs "
           f"({max(1, args.workers)} worker(s)) ...")
    sharded = ShardedCampaign(
        lambda: testbed,
        fingerprints,
        policy=resolve_policy(args.policy, args.samples),
        workers=args.workers,
        pairs=plan.pairs,
        observe=True,
        clamp_to_cpus=True,
    ).run()
    if dataset is None:
        dataset = CampaignDataset(matrix=RttMatrix(fingerprints))
    updated = dataset.absorb(
        sharded.matrix,
        provenance=sharded.provenance,
        meta={
            "seed": args.seed,
            "network_size": args.network_size,
            "relays": args.relays,
            "samples": args.samples,
            "workers": args.workers,
            "planned_pairs": len(plan.pairs),
            "pairs_attempted": sharded.pairs_attempted,
            # Merge, not replace: a grown dataset may hold coordinates
            # for relays outside this refresh's target set.
            "geo": {**dataset.meta.get("geo", {}), **_geo_meta(testbed, relays)},
        },
    )
    print(f"refreshed {updated} pair entries "
          f"({sharded.pairs_measured} measured, "
          f"{len(sharded.failures)} failed); dataset now "
          f"{dataset.matrix.num_measured}/{dataset.matrix.num_measured + dataset.matrix.missing_count} measured")
    if args.output is not None:
        dataset.save(args.output)
        status(f"refreshed dataset written to {args.output}")
    return 0


def _sniff_dataset(path: Path) -> bool:
    """Is this file a saved :class:`CampaignDataset` rather than JSONL?

    The npz container starts with the zip magic. A JSON dataset of an
    earlier release (a ``ting-campaign`` format tag in its first bytes,
    or a bare matrix whose first key is ``nodes``) is routed to
    :meth:`CampaignDataset.load` only to fail there with the conversion
    note, not read as events, which never carry that tag or key first.
    """
    with path.open("rb") as fh:
        head = fh.read(256)
    if head[:4] == b"PK\x03\x04":
        return True
    return b'"format": "ting-campaign' in head or head.lstrip().startswith(b'{"nodes": ')


def _dataset_events(dataset: CampaignDataset) -> "list[dict]":
    """A dataset's provenance history as synthetic event records.

    Insertion order is the only clock the log has, so each record is
    stamped ``sim_ms = provenance row index`` — ``--since N`` then means
    "rows N onward", which is exactly how an operator asks "what did the
    last refresh do?".
    """
    from repro.obs import INFO, WARNING

    records = []
    for row, record in enumerate(dataset.provenance.records()):
        measured = record.status == "measured"
        event: dict = {
            "wall_s": 0.0,
            "sim_ms": float(row),
            "severity": INFO if measured else WARNING,
            "category": "campaign",
            "kind": "pair_measured" if measured else "pair_failed",
            "shard": record.shard if record.shard is not None else 0,
            "seq": row,
            "x": record.x[:16],
            "y": record.y[:16],
        }
        if record.rtt_ms is not None:
            event["rtt_ms"] = round(record.rtt_ms, 3)
        if not measured and record.failure_category is not None:
            event["cause"] = record.failure_category
        if record.retries:
            event["retries"] = record.retries
        records.append(event)
    return records


def cmd_tail(args: argparse.Namespace) -> int:
    """``tail``: render an events JSONL stream as console lines.

    The after-the-fact (or, with ``--follow``, live) view of a
    ``--events`` file, formatted identically to the console sink so an
    operator sees the same lines either way. Pointed at a saved
    campaign dataset instead (sniffed), it replays
    the provenance history as synthetic events. Output goes to stdout —
    it *is* the machine/pipeline output of this command.
    """
    if not args.events.exists():
        print(f"events file {args.events} not found", file=sys.stderr)
        return 2
    min_severity = severity_level(args.min_severity)

    def wanted(record: dict) -> bool:
        if int(record.get("severity", 0)) < min_severity:
            return False
        if args.category is not None and record.get("category") != args.category:
            return False
        if args.kind is not None and record.get("kind") != args.kind:
            return False
        if args.since is not None and float(record.get("sim_ms", 0.0)) < args.since:
            return False
        return True

    if _sniff_dataset(args.events):
        if args.follow:
            print("--follow is ignored for dataset inputs", file=sys.stderr)
        dataset = CampaignDataset.load(args.events)
        for record in _dataset_events(dataset):
            if wanted(record):
                print(format_event(record))
        return 0

    def emit(line: str) -> None:
        line = line.strip()
        if not line:
            return
        try:
            record = json.loads(line)
        except json.JSONDecodeError:
            print(f"skipping malformed line: {line[:60]}", file=sys.stderr)
            return
        if wanted(record):
            print(format_event(record))

    try:
        with args.events.open(encoding="utf-8") as fh:
            for line in fh:
                emit(line)
            if args.follow:
                try:
                    while True:
                        line = fh.readline()
                        if line:
                            emit(line)
                        else:
                            time.sleep(0.2)
                except KeyboardInterrupt:
                    pass
    except BrokenPipeError:
        # Downstream (e.g. `| head`) closed the pipe: a clean exit, not
        # an error. Point stdout at devnull so interpreter shutdown does
        # not trip over the dead descriptor.
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return 0


def cmd_health(args: argparse.Namespace) -> int:
    """``health``: grade a saved dataset's data quality, gate CI on it.

    Loads the dataset, computes per-pair quality
    scores from provenance, and prints the graded scorecard; with
    ``--baseline`` it also diffs the two dataset versions (node churn,
    per-pair deltas with provenance attribution, quality regressions).
    ``--check`` turns the grade into an exit code: any FAIL check —
    a physically impossible estimate, an asymmetric entry, stale pairs
    beyond the threshold — exits 1, which is the CI gate.
    """
    from repro.obs.health import HealthThresholds, diff_datasets, health_report

    status = _status(args)
    if not args.input.exists():
        print(f"dataset {args.input} not found", file=sys.stderr)
        return 2
    dataset = CampaignDataset.load(args.input)
    status(f"loaded dataset: {len(dataset.matrix.nodes)} relays, "
           f"{dataset.matrix.num_measured} measured pairs, "
           f"{len(dataset.provenance)} provenance records")
    thresholds = None
    if args.stale_after is not None:
        thresholds = HealthThresholds(stale_after_rows=args.stale_after)
    report = health_report(dataset, thresholds=thresholds, seed=args.seed)
    print(report.render_text())
    payload = {"health": report.to_dict()}

    if args.baseline is not None:
        if not args.baseline.exists():
            print(f"baseline dataset {args.baseline} not found",
                  file=sys.stderr)
            return 2
        baseline = CampaignDataset.load(args.baseline)
        drift = diff_datasets(baseline, dataset)
        print()
        print(drift.render_text())
        payload["drift"] = drift.to_dict()

    if args.json_out is not None:
        _write_json_artifact(
            args.json_out, json.dumps(payload, indent=2),
            "\nhealth JSON", status,
        )
    if args.check and not report.ok:
        failing = [c["name"] for c in report.data["checks"]
                   if c["status"] == "fail"]
        print(f"health check FAILED: {', '.join(failing)}", file=sys.stderr)
        return 1
    return 0


def _parse_serve_query(tokens: list[str]) -> dict:
    """One-shot ``repro serve`` tokens → a query dict.

    The grammar mirrors the JSONL wire format one-to-one, so anything
    expressible on the command line can be replayed through ``--batch``
    verbatim.
    """
    if not tokens:
        raise ValueError("empty query")
    op, rest = tokens[0], tokens[1:]
    if op == "point" and len(rest) == 2:
        return {"op": "point", "x": rest[0], "y": rest[1]}
    if op == "knn" and len(rest) in (1, 2):
        query = {"op": "knn", "x": rest[0]}
        if len(rest) == 2:
            query["k"] = int(rest[1])
        return query
    if op == "percentile" and len(rest) == 2:
        return {"op": "percentile", "x": rest[0], "q": float(rest[1])}
    if op == "path" and len(rest) >= 2:
        return {"op": "path", "hops": rest}
    if op == "via" and len(rest) in (2, 3):
        query = {"op": "via", "x": rest[0], "y": rest[1]}
        if len(rest) == 3:
            query["k"] = int(rest[2])
        return query
    raise ValueError(
        f"bad query {' '.join(tokens)!r}; expected point A B | knn A [K] | "
        "percentile A Q | path A B C... | via A B [K] | freshness"
    )


def _emit_serve_telemetry(args: argparse.Namespace, telemetry,
                          status: Callable[..., None]) -> None:
    """Surface recorded serve telemetry: stderr summary and/or a file.

    ``--stats`` prints the human summary on the status channel (stderr,
    so answer pipelines stay clean); ``--telemetry PATH`` writes the
    machine view — Prometheus text for ``.prom`` paths, else JSONL with
    one ``summary`` record followed by the access-log events and the
    sampled spans.
    """
    if not telemetry.enabled:
        return
    summary = telemetry.summary()
    if args.stats:
        status("\nserve telemetry:")
        status(f"  queries {summary['queries']}, errors {summary['errors']}, "
               f"slow {summary['slow_queries']} "
               f"(>= {summary['slow_ms']:g} ms), "
               f"spans {summary['sampled_spans']}")
        for category, count in summary["errors_by_category"].items():
            status(f"    errors.{category:<14} {count}")
        for op, row in summary["per_op"].items():
            status(f"  {op:<11} n={row['count']:<7} "
                   f"p50={row['p50_ms'] * 1000:.1f}us "
                   f"p99={row['p99_ms'] * 1000:.1f}us "
                   f"max={row['max_ms'] * 1000:.1f}us")
    if args.telemetry is not None:
        if args.telemetry.suffix == ".prom":
            args.telemetry.write_text(telemetry.to_prometheus())
        else:
            lines = [json.dumps({"record": "summary", **summary})]
            for event in telemetry.access_log():
                lines.append(json.dumps({"record": "event", **event}))
            for span in telemetry.spans.records():
                lines.append(json.dumps({"record": "span", **span}))
            args.telemetry.write_text("\n".join(lines) + "\n")
        status(f"telemetry written to {args.telemetry}")


def cmd_serve(args: argparse.Namespace) -> int:
    """``serve``: the read side — query a saved dataset at client rates.

    Loads the dataset (``--mmap`` memory-maps the npz matrix so forked
    workers share one page-cache copy), freezes it into a
    :class:`~repro.serve.index.MatrixIndex`, and answers: a one-shot
    positional query or a ``--batch`` JSONL stream (fanned out across
    ``--workers`` forked processes, answers in input order). Answers are
    JSON on stdout, one object per query. ``--stats`` / ``--telemetry``
    opt into query telemetry (merged across batch workers).
    """
    from repro.serve import (
        NULL_SERVE_TELEMETRY,
        MatrixIndex,
        QueryServer,
        ServeTelemetry,
    )

    status = _status(args)
    if not args.input.exists():
        print(f"dataset {args.input} not found", file=sys.stderr)
        return 2
    if bool(args.query) == (args.batch is not None):
        print("serve needs exactly one of: a query, --batch", file=sys.stderr)
        return 2

    dataset = CampaignDataset.load(args.input, mmap=args.mmap)
    start = time.perf_counter()
    index = MatrixIndex.build(dataset)
    status(f"index ready: {len(index)} nodes, {index.measured_pairs} "
           f"measured pairs, version {index.version} "
           f"({(time.perf_counter() - start) * 1000:.0f} ms)")
    telemetry = (
        ServeTelemetry(slow_ms=args.slow_ms, sample_every=args.sample_every)
        if (args.stats or args.telemetry is not None)
        else NULL_SERVE_TELEMETRY
    )
    server = QueryServer(
        index, workers=max(1, args.workers), telemetry=telemetry
    )

    if args.batch is not None:
        if str(args.batch) == "-":
            lines = sys.stdin.read().splitlines()
        elif not args.batch.exists():
            print(f"batch file {args.batch} not found", file=sys.stderr)
            return 2
        else:
            lines = args.batch.read_text(encoding="utf-8").splitlines()
        # One output row per non-blank line, in order: a parse error's
        # record, or None where the next batch answer goes.
        queries, rows = [], []
        for number, line in enumerate(lines, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                queries.append(json.loads(line))
                rows.append(None)
            except json.JSONDecodeError as exc:
                rows.append({"op": None, "error": f"bad JSONL <line {number}>: {exc}"})
        answers = iter(server.batch(queries))
        for row in rows:
            print(json.dumps(next(answers) if row is None else row))
        status(f"{len(rows)} queries answered")
        _emit_serve_telemetry(args, telemetry, status)
        return 0

    if args.query == ["freshness"]:
        print(json.dumps(index.freshness(), indent=2))
        return 0
    try:
        query = _parse_serve_query(args.query)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    answer = server.query(query)
    print(json.dumps(answer, indent=2))
    _emit_serve_telemetry(args, telemetry, status)
    return 0 if "error" not in answer else 1


_COMMANDS = {
    "validate": cmd_validate,
    "measure": cmd_measure,
    "tiv": cmd_tiv,
    "deanon": cmd_deanon,
    "coverage": cmd_coverage,
    "stats": cmd_stats,
    "report": cmd_report,
    "plan": cmd_plan,
    "tail": cmd_tail,
    "health": cmd_health,
    "serve": cmd_serve,
}


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code. A :class:`ReproError`
    is one ``repro: <message>`` line on stderr and exit status 1."""
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ReproError as exc:
        print(f"repro: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
