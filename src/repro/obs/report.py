"""Run reports: fuse metrics, spans, provenance, events, and ground truth.

A campaign's raw observability output is five separate artifacts — a
merged :class:`~repro.obs.registry.MetricsRegistry`, a
:class:`~repro.obs.spans.SpanTracer`, a
:class:`~repro.core.dataset.ProvenanceLog`, an
:class:`~repro.obs.events.EventBus`, and the
:class:`~repro.core.dataset.RttMatrix` itself. :func:`build_report`
digests them into one :class:`RunReport` that answers the operator
questions directly: how accurate was the run (when ground truth
exists), what failed and why, which pairs ate the makespan, and how
evenly the shards were loaded. The report renders both as structured
JSON (for dashboards and regression diffs) and as aligned text (for a
terminal).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Iterable

from repro.core.dataset import ProvenanceLog, RttMatrix
from repro.obs.events import severity_name

#: Format tag on the JSON form, bumped on breaking schema changes
#: (2: the ``trace`` section became ``events``).
REPORT_FORMAT = "ting-report/2"


@dataclass
class RunReport:
    """A finished report: one JSON-ready dict plus renderers."""

    data: dict[str, Any]

    def to_dict(self) -> dict[str, Any]:
        """The JSON-ready payload (already plain data)."""
        return self.data

    def to_json(self, indent: int | None = 2) -> str:
        """Serialize the report as JSON text."""
        return json.dumps(self.data, indent=indent)

    def render_text(self) -> str:
        """Human-readable multi-section summary of the same payload."""
        lines: list[str] = []
        pairs = self.data["pairs"]
        lines.append("== campaign ==")
        lines.append(f"  relays                 {pairs['relays']}")
        lines.append(
            f"  pairs measured         {pairs['measured']}/{pairs['attempted']}"
        )
        if pairs.get("mean_rtt_ms") is not None:
            lines.append(f"  mean RTT               {pairs['mean_rtt_ms']:.1f} ms")
        if pairs.get("makespan_ms") is not None:
            lines.append(
                f"  simulated makespan     {pairs['makespan_ms'] / 60000:.1f} min"
            )

        accuracy = self.data.get("accuracy")
        if accuracy is not None:
            lines.append("== accuracy vs ground truth ==")
            lines.append(f"  pairs compared         {accuracy['pairs_compared']}")
            lines.append(
                f"  within 10% of truth    {accuracy['within_10pct']:.1%}"
            )
            lines.append(
                f"  median abs error       {accuracy['median_abs_error_ms']:.2f} ms"
            )

        failures = self.data["failures"]
        lines.append("== failures ==")
        if failures["total"] == 0:
            lines.append("  none")
        else:
            for category, count in sorted(failures["by_category"].items()):
                lines.append(f"  {category:<22} {count}")

        cost = self.data.get("cost")
        if cost is not None:
            lines.append("== probe cost ==")
            lines.append(f"  probes sent            {cost['probes_sent']}")
            lines.append(
                f"  probes saved           {cost['probes_saved']} "
                f"({cost['saved_fraction']:.1%} of the fixed-cap cost)"
            )
            lines.append(
                f"  early stops            {cost['early_stops']} "
                f"({cost['early_stop_rate']:.1%} of probe runs)"
            )
            if "probes_flown" in cost:
                lines.append(
                    f"  probes flown           {cost['probes_flown']} "
                    f"({cost['flown_fraction']:.1%} of sent; "
                    f"{cost['flight_rollbacks']} flights rolled back)"
                )

        slowest = self.data.get("slowest_pairs", [])
        if slowest:
            lines.append("== slowest pairs (simulated time) ==")
            for entry in slowest:
                rtt = (
                    f"{entry['rtt_ms']:.1f} ms"
                    if entry.get("rtt_ms") is not None
                    else entry.get("status", "failed")
                )
                lines.append(
                    f"  {entry['x'][:8]}..{entry['y'][:8]}  "
                    f"{entry['duration_ms'] / 1000:.1f} s  ({rtt})"
                )

        balance = self.data.get("shard_balance")
        if balance is not None:
            lines.append("== shard balance ==")
            for shard in balance["shards"]:
                # Near 1: the worker had a CPU to itself; near 1/W: W
                # workers shared one.
                busy = shard["cpu_s"] / shard["wall_s"] if shard["wall_s"] else 0.0
                lines.append(
                    f"  shard {shard['shard']}: {shard['pairs_attempted']} pairs, "
                    f"{shard['makespan_ms'] / 60000:.1f} sim min, "
                    f"{shard['wall_s']:.1f} s wall, cpu/wall {busy:.2f}"
                )
            lines.append(
                f"  makespan imbalance     {balance['makespan_imbalance']:.2f}x"
            )
            fixed = balance.get("fixed")
            if fixed is not None:
                # What a run pays whatever its pair budget.
                lines.append(
                    f"  fixed: build {fixed['build_s']:.3f} s, leg round "
                    f"{fixed['leg_round_s']:.3f} s of {fixed['wall_s']:.3f} s wall"
                )

        spans = self.data.get("spans")
        if spans is not None:
            lines.append("== spans ==")
            for name, stats in sorted(spans["by_name"].items()):
                lines.append(
                    f"  {name:<22} {stats['count']:>5}  "
                    f"mean {stats['mean_ms']:.1f} ms"
                )

        metrics = self.data.get("metrics")
        if metrics is not None:
            lines.append("== headline counters ==")
            for name, value in sorted(metrics.items()):
                lines.append(f"  {name:<28} {value}")

        health = self.data.get("health")
        if health is not None:
            lines.append("== health ==")
            lines.append(f"  grade                  {health['grade'].upper()}")
            for check in health["checks"]:
                if check["status"] in ("warn", "fail"):
                    lines.append(
                        f"  {check['name']:<16} {check['status']:<5} "
                        f"{check['detail']}"
                    )
            for category, count in sorted(
                health.get("anomalies", {}).get("counts", {}).items()
            ):
                lines.append(f"  {category:<22} {count}")
            cuts = health.get("quality", {}).get("percentiles", {})
            if cuts:
                lines.append(
                    "  quality p5/p50/p95     "
                    f"{cuts.get('p5', 0):.2f}/{cuts.get('p50', 0):.2f}/"
                    f"{cuts.get('p95', 0):.2f}"
                )

        events = self.data.get("events")
        if events is not None:
            lines.append("== events ==")
            for key in ("emitted", "retained", "dropped"):
                lines.append(f"  {key:<22} {events[key]}")
            for row in events["counts"]:
                label = f"{row['category']}/{row['severity']}"
                lines.append(f"  {label:<22} {row['count']}")
        return "\n".join(lines)


#: Counters surfaced in the report's ``metrics`` section; everything
#: else stays available in the full snapshot the CLI can export.
_HEADLINE_COUNTERS = (
    "campaign.pairs_attempted",
    "campaign.pairs_measured",
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
    "trace.uncategorized",
)


def _accuracy_section(
    matrix: RttMatrix, ground_truth: RttMatrix
) -> dict[str, Any] | None:
    """Accuracy vs an oracle matrix over the pairs both have."""
    errors: list[float] = []
    within = 0
    for a, b, estimate in matrix.measured_pairs():
        if a not in ground_truth or b not in ground_truth:
            continue
        if not ground_truth.has(a, b):
            continue
        truth = ground_truth.get(a, b)
        errors.append(abs(estimate - truth))
        if truth > 0 and abs(estimate - truth) / truth <= 0.10:
            within += 1
    if not errors:
        return None
    errors.sort()
    mid = len(errors) // 2
    median = (
        errors[mid]
        if len(errors) % 2
        else (errors[mid - 1] + errors[mid]) / 2.0
    )
    return {
        "pairs_compared": len(errors),
        "within_10pct": within / len(errors),
        "median_abs_error_ms": round(median, 3),
    }


def _slowest_pairs(
    provenance: ProvenanceLog, top_n: int
) -> list[dict[str, Any]]:
    """The ``top_n`` pairs by simulated duration, slowest first."""
    ranked = sorted(
        provenance.records(), key=lambda r: r.duration_ms, reverse=True
    )
    return [
        {
            "x": record.x,
            "y": record.y,
            "status": record.status,
            "duration_ms": round(record.duration_ms, 3),
            "rtt_ms": record.rtt_ms,
        }
        for record in ranked[:top_n]
    ]


def _shard_balance(shards: Iterable[Any], run: Any | None) -> dict[str, Any] | None:
    """Per-shard load, the makespan imbalance ratio (max/min) and, given
    the sharded ``run``, its fixed terms (world build, leg round)."""
    rows = [
        {
            "shard": shard.shard_index,
            "pairs_attempted": shard.pairs_attempted,
            "makespan_ms": round(shard.makespan_ms, 3),
            "wall_s": round(shard.wall_s, 3),
            "cpu_s": round(getattr(shard, "cpu_s", 0.0), 3),
            "events_processed": shard.events_processed,
        }
        for shard in shards
    ]
    if not rows:
        return None
    makespans = [row["makespan_ms"] for row in rows]
    slowest = max(makespans)
    fastest = min(makespans)
    balance: dict[str, Any] = {
        "shards": rows,
        "makespan_imbalance": round(slowest / fastest, 3) if fastest else 0.0,
    }
    if run is not None:
        balance["fixed"] = {
            "build_s": round(run.build_s, 4),
            "leg_round_s": round(run.leg_phase.wall_s, 4),
            "wall_s": round(run.wall_s, 4),
        }
    return balance


def _span_section(spans: Any) -> dict[str, Any] | None:
    """Per-span-name counts and mean simulated durations."""
    records = spans.records() if hasattr(spans, "records") else list(spans)
    if not records:
        return None
    by_name: dict[str, dict[str, Any]] = {}
    for record in records:
        stats = by_name.setdefault(
            record["name"], {"count": 0, "total_ms": 0.0}
        )
        stats["count"] += 1
        stats["total_ms"] += record["dur_ms"]
    for stats in by_name.values():
        stats["mean_ms"] = round(stats["total_ms"] / stats["count"], 3)
        stats["total_ms"] = round(stats["total_ms"], 3)
    return {"total": len(records), "by_name": by_name}


def build_report(
    matrix: RttMatrix,
    metrics: Any | None = None,
    spans: Any | None = None,
    provenance: ProvenanceLog | None = None,
    events: Any | None = None,
    shards: Iterable[Any] | None = None,
    sharded_run: Any | None = None,
    ground_truth: RttMatrix | None = None,
    pairs_attempted: int | None = None,
    makespan_ms: float | None = None,
    top_n: int = 5,
    health: Any | None = None,
) -> RunReport:
    """Fuse a campaign's artifacts into one :class:`RunReport`.

    Every input beyond the matrix is optional: the report includes the
    sections it has data for and omits the rest, so the same builder
    serves a bare ``measure`` run and a fully instrumented sharded
    campaign. ``metrics`` accepts a live registry or a snapshot dict;
    ``spans`` a tracer or raw record list; ``events`` the (merged)
    event bus; ``shards`` any iterable of
    shard results with ``shard_index``/``pairs_attempted``/
    ``makespan_ms``/``wall_s``/``events_processed`` attributes (and
    ``cpu_s``, read as 0 when absent); ``sharded_run`` the
    :class:`~repro.core.shard.ShardedReport` those shards came from, for
    the shard-balance section's fixed-term line (``build_s``,
    ``leg_phase.wall_s``, ``wall_s``);
    ``health`` a ``repro.obs.health`` ``HealthReport`` (or its dict
    form) to embed as a data-quality section.
    """
    snapshot = (
        metrics.snapshot() if hasattr(metrics, "snapshot") else metrics
    ) or {}
    counters = snapshot.get("counters", {})

    n = len(matrix.nodes)
    attempted = pairs_attempted
    if attempted is None:
        attempted = counters.get("campaign.pairs_attempted") or n * (n - 1) // 2
    pairs_section: dict[str, Any] = {
        "relays": n,
        "attempted": attempted,
        "measured": matrix.num_measured,
        "mean_rtt_ms": (
            round(matrix.mean_rtt_ms(), 3) if matrix.num_measured else None
        ),
        "makespan_ms": makespan_ms,
    }

    by_category: dict[str, int] = {}
    if provenance is not None:
        by_category = provenance.failure_breakdown()
    else:
        prefix = "campaign.failures."
        for name, value in counters.items():
            if name.startswith(prefix) and value:
                by_category[name[len(prefix):]] = value
    failures_section = {
        "total": sum(by_category.values()),
        "by_category": by_category,
    }

    data: dict[str, Any] = {
        "format": REPORT_FORMAT,
        "pairs": pairs_section,
        "failures": failures_section,
    }
    sent = counters.get("echo.probes_sent", 0)
    if sent:
        # The adaptive-engine ledger: what the campaign paid in probes
        # and what early stopping clawed back. runs = one echo stream
        # per probed circuit, the natural early-stop denominator.
        saved = counters.get("ting.probes_saved", 0)
        stops = counters.get("echo.early_stops", 0)
        runs = counters.get("tor.streams_attached", 0)
        flown = counters.get("echo.probes_flown", 0) + counters.get("echo.train_probes_flown", 0)
        data["cost"] = {
            "probes_sent": sent,
            "probes_saved": saved,
            "saved_fraction": round(saved / (sent + saved), 4) if saved else 0.0,
            "early_stops": stops,
            "early_stop_rate": round(stops / runs, 4) if runs else 0.0,
            # Probe and train flights: what the simulator did not spend —
            # a flown probe is 2 events where a cell-path probe is 4·hops + 2.
            "probes_flown": flown,
            "flown_fraction": round(flown / sent, 4),
            "flight_rollbacks": counters.get("echo.flight_rollbacks", 0)
            + counters.get("echo.train_rollbacks", 0),
        }
    elif provenance is not None and len(provenance):
        # No live counters (a re-report of a saved dataset): rebuild the
        # ledger from per-pair provenance. ``samples_saved`` and
        # ``stop_reason`` round-trip through CampaignDataset, so an
        # adaptive campaign's savings survive save/load; the sent total
        # covers pair rounds only (leg rounds leave no sample counts),
        # hence the explicit source tag.
        records = provenance.records()
        saved = sum(r.samples_saved for r in records)
        if saved:
            measured = [r for r in records if r.status == "measured"]
            stops = sum(1 for r in records if r.stop_reason == "converged")
            sent = sum(
                max(0, r.samples_requested - r.samples_saved) for r in measured
            )
            data["cost"] = {
                "probes_sent": sent,
                "probes_saved": saved,
                "saved_fraction": (
                    round(saved / (sent + saved), 4) if sent + saved else 0.0
                ),
                "early_stops": stops,
                "early_stop_rate": (
                    round(stops / len(measured), 4) if measured else 0.0
                ),
                "source": "provenance",
            }
    if ground_truth is not None:
        data["accuracy"] = _accuracy_section(matrix, ground_truth)
    if provenance is not None and len(provenance):
        data["slowest_pairs"] = _slowest_pairs(provenance, top_n)
    if shards is not None:
        data["shard_balance"] = _shard_balance(shards, sharded_run)
    if spans is not None:
        section = _span_section(spans)
        if section is not None:
            data["spans"] = section
    if snapshot:
        data["metrics"] = {
            name: counters.get(name, 0) for name in _HEADLINE_COUNTERS
        }
    if events is not None:
        # The counts, not the ring, are the authoritative totals.
        snap = events.snapshot()
        data["events"] = {
            "emitted": snap["emitted"],
            "retained": len(snap["ring"]["events"]),
            "dropped": snap["ring"]["dropped"],
            "counts": [
                {**row, "severity": severity_name(row["severity"])}
                for row in snap["counts"]
            ],
        }
    if health is not None:
        data["health"] = health.to_dict() if hasattr(health, "to_dict") else health
    return RunReport(data=data)
