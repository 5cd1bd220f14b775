"""Matrix health: per-pair quality scores, scorecards, and drift diffs.

Ting's output is only as good as the matrix it produces — the paper
validates its estimates against direct measurements (Section 4.4)
precisely because downstream consumers (via-relay overlay routing,
latency-aware circuit selection) silently degrade when the matrix goes
stale, noisy, or physically impossible. The runtime telemetry in
``repro.obs`` watches the *campaign*; this module watches the *data
product*:

* :func:`pair_quality` — a vectorized per-pair quality score matrix
  computed straight from the columnar :class:`ProvenanceLog` (sample
  support, debias-correction magnitude, retry/failure history, and
  staleness by provenance insertion order — the only clock the log
  has). O(n²) arrays, no per-record Python loop.
* :func:`health_report` — a graded scorecard: coverage, symmetry,
  physical plausibility (negative/zero estimates, RTTs below the
  great-circle light-time floor), the triangle-inequality-violation
  rate (informational — TIVs are the overlay phenomenon Section 5.2.1
  *expects*), staleness, and quality percentiles, each check graded
  ``ok``/``warn``/``fail`` with anomalies categorized pair by pair.
* :func:`diff_datasets` — drift between two dataset versions: node
  churn, gained/lost/changed pairs with provenance attribution, and
  quality regressions attributed to the score component that moved.

`repro health` exposes all three on the CLI with ``--check`` exit-code
gating for CI; the planner consumes :class:`QualityScores` as a
refresh-priority axis.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from collections.abc import Mapping, Sequence
from functools import cached_property
from typing import Any

import numpy as np

from repro.core.dataset import CampaignDataset, ProvenanceLog, sorted_lookup
from repro.util.errors import MeasurementError

#: Vacuum speed of light in km per millisecond. An RTT below
#: ``2 * distance / c`` is physically impossible — light in fibre is
#: ~0.66c, so real paths sit well above this floor and a violation
#: means the estimate (or the coordinates) are wrong, not the physics.
LIGHT_SPEED_KM_PER_MS = 299.792458

#: Format tags on the JSON forms, bumped on breaking schema changes.
HEALTH_FORMAT = "ting-health/1"
DRIFT_FORMAT = "ting-drift/1"

#: Quality-score component names, in render order.
COMPONENTS = ("support", "debias", "history", "staleness")


# ----------------------------------------------------------------------
# Per-pair quality scores


@dataclass(frozen=True)
class QualityWeights:
    """Relative weight of each quality penalty (normalized at use).

    ``retry_cap`` is the retry/failure count at which the history
    penalty saturates at 1.0.
    """

    support: float = 1.0
    debias: float = 0.5
    history: float = 1.0
    staleness: float = 0.8
    retry_cap: int = 3

    @property
    def total(self) -> float:
        return self.support + self.debias + self.history + self.staleness


class _DenseComponents(Mapping):
    """``QualityScores.components``: name → dense ``n×n`` penalty
    matrix, scattered from the pair column on first read."""

    def __init__(self, scatter: Any, columns: dict[str, np.ndarray]) -> None:
        self._scatter = scatter
        self._columns = columns
        self._built: dict[str, np.ndarray] = {}

    def __getitem__(self, name: str) -> np.ndarray:
        if name not in self._built:
            self._built[name] = self._scatter(self._columns[name])
        return self._built[name]

    def __iter__(self):
        return iter(self._columns)

    def __len__(self) -> int:
        return len(self._columns)


class QualityScores:
    """Per-pair quality in ``[0, 1]`` (1 = pristine) for every pair
    with provenance history.

    The representation is per-pair columns, one entry per pair with
    history, sorted row-major by ``(pair_i, pair_j)`` (node indices,
    ``pair_i <= pair_j`` — equal only for a self-pair record):
    ``pair_scores``, the raw penalties behind the blend in
    ``pair_components[name]`` (also in ``[0, 1]``, so a low score is
    always attributable) and ``pair_ages``, each pair's age in
    provenance rows — how many records the log has appended since the
    pair's latest one. Every reader below walks the columns, in the
    order an upper-triangle walk of a score matrix would.

    ``scores`` (alias ``matrix``), ``components[name]`` and
    ``age_rows`` are the same data as symmetric read-only ``n×n`` arrays
    aligned to ``nodes``, NaN where unscored — built on first access,
    and read now only by the drift diff (:func:`diff_datasets`); the
    serve index joins ``pair_scores`` / ``pair_ages`` through positions.
    """

    def __init__(
        self,
        nodes: list[str],
        pair_i: np.ndarray,
        pair_j: np.ndarray,
        pair_scores: np.ndarray,
        pair_components: dict[str, np.ndarray],
        pair_ages: np.ndarray,
        stale_after_rows: int,
        weights: QualityWeights | None = None,
    ) -> None:
        self.nodes = nodes
        self.pair_i = pair_i
        self.pair_j = pair_j
        self.pair_scores = pair_scores
        self.pair_components = pair_components
        self.pair_ages = pair_ages
        self.stale_after_rows = stale_after_rows
        self.weights = weights if weights is not None else QualityWeights()
        self.components: Mapping[str, np.ndarray] = _DenseComponents(
            self._dense, pair_components
        )
        self._keys = pair_i * len(nodes) + pair_j

    @cached_property
    def _index(self) -> dict[str, int]:
        return {node: i for i, node in enumerate(self.nodes)}

    def _dense(self, column: np.ndarray) -> np.ndarray:
        n = len(self.nodes)
        dense = np.full((n, n), np.nan)
        dense[self.pair_i, self.pair_j] = column
        dense[self.pair_j, self.pair_i] = column
        dense.flags.writeable = False
        return dense

    @cached_property
    def scores(self) -> np.ndarray:
        """The score column as a dense symmetric matrix."""
        return self._dense(self.pair_scores)

    @property
    def matrix(self) -> np.ndarray:
        """Alias for :attr:`scores` (the ``.nodes`` + ``.matrix`` shape
        an :class:`~repro.core.dataset.RttMatrix` has)."""
        return self.scores

    @cached_property
    def age_rows(self) -> np.ndarray:
        """The age column as a dense symmetric matrix."""
        return self._dense(self.pair_ages)

    def scores_at(self, i: np.ndarray, j: np.ndarray) -> np.ndarray:
        """Scores at pairs of node indices (either orientation), NaN
        where unscored — the planner's door into the columns."""
        keys = np.minimum(i, j) * len(self.nodes) + np.maximum(i, j)
        return sorted_lookup(self._keys, self.pair_scores, keys, np.nan)

    def score_for(self, a: str, b: str) -> float | None:
        """One pair's score, or ``None`` if unscored."""
        try:
            i, j = self._index[a], self._index[b]
        except KeyError as exc:
            raise MeasurementError(f"unknown node {exc.args[0]!r}") from None
        value = float(self.scores_at(np.array([i]), np.array([j]))[0])
        return None if np.isnan(value) else value

    def _upper(self) -> np.ndarray:
        """Which column entries an upper-triangle walk visits: all but
        self-pair records."""
        return self.pair_i < self.pair_j

    def scored_values(self) -> np.ndarray:
        """The finite upper-triangle scores as a flat array."""
        return self.pair_scores[self._upper() & ~np.isnan(self.pair_scores)]

    def percentiles(
        self, qs: Sequence[float] = (5.0, 25.0, 50.0, 75.0, 95.0)
    ) -> dict[str, float]:
        """Score percentiles over scored pairs (``{"p50": ...}``)."""
        values = self.scored_values()
        if values.size == 0:
            return {}
        cuts = np.percentile(values, list(qs))
        return {f"p{q:g}": round(float(v), 4) for q, v in zip(qs, cuts)}

    def stale_pairs(self) -> list[tuple[str, str, int]]:
        """Pairs older than ``stale_after_rows``, oldest first."""
        ages = self.pair_ages
        hits = np.flatnonzero(
            self._upper() & ~np.isnan(ages) & (ages > self.stale_after_rows)
        )
        order = hits[np.argsort(-ages[hits], kind="stable")]
        return [
            (self.nodes[self.pair_i[k]], self.nodes[self.pair_j[k]], int(ages[k]))
            for k in order
        ]

    def worst(self, top_n: int = 10) -> list[dict[str, Any]]:
        """The ``top_n`` lowest-scoring pairs with component breakdowns."""
        values = self.pair_scores
        scored = np.flatnonzero(self._upper() & ~np.isnan(values))
        order = scored[np.argsort(values[scored], kind="stable")][:top_n]
        return [
            {
                "x": self.nodes[self.pair_i[k]],
                "y": self.nodes[self.pair_j[k]],
                "score": round(float(values[k]), 4),
                "components": {
                    name: round(float(self.pair_components[name][k]), 4)
                    for name in COMPONENTS
                },
                "age_rows": int(self.pair_ages[k]),
            }
            for k in order
        ]

    def summary(self) -> dict[str, Any]:
        """JSON-ready headline numbers for reports."""
        values = self.scored_values()
        n = len(self.nodes)
        return {
            "scored_pairs": int(values.size),
            "total_pairs": n * (n - 1) // 2,
            "mean": round(float(values.mean()), 4) if values.size else None,
            "percentiles": self.percentiles(),
            "stale_after_rows": self.stale_after_rows,
            "stale_pairs": len(self.stale_pairs()),
        }


def pair_quality(
    dataset: CampaignDataset,
    weights: QualityWeights | None = None,
    stale_after_rows: int | None = None,
) -> QualityScores:
    """Score every pair with provenance history, fully vectorized.

    Four penalties, each in ``[0, 1]``, blended by :class:`QualityWeights`
    and inverted into a score (``1 - penalty``):

    * **support** — ``1 - samples_kept / samples_requested`` on the
      latest record: how much of the requested probe budget actually
      survived the min filter (a failed attempt keeps nothing).
    * **debias** — ``samples_saved / samples_requested`` where the
      latest record stopped on convergence: how large the debiased-
      minimum correction had to be (the correction grows with how early
      the adaptive engine stopped).
    * **history** — ``(retries + lifetime failures) / retry_cap``,
      clipped: pairs that have fought the network score lower.
    * **staleness** — pair age in provenance rows over
      ``stale_after_rows`` (default: one full sweep, i.e. the number of
      currently measured pairs), clipped. Insertion order is the only
      clock the log has, and it survives save/load and shard merges.

    Everything is a column over the pairs with history; nothing here is
    sized by the matrix.
    """
    w = weights or QualityWeights()
    nodes = list(dataset.matrix.nodes)
    if stale_after_rows is None:
        stale_after_rows = max(1, dataset.matrix.num_measured)
    log = dataset.provenance
    pair_i, pair_j, latest, fails = log.latest_rows(nodes)
    requested, kept, saved, stop, retries = (
        col[latest].astype(np.float64) if col.dtype != np.int16 else col[latest]
        for col in log.pair_columns(
            "samples_requested",
            "samples_kept",
            "samples_saved",
            "stop_reason",
            "retries",
        )
    )
    _, cat_ids = log.status_codes()

    denom = np.maximum(requested, 1.0)
    support = 1.0 - np.clip(kept / denom, 0.0, 1.0)
    converged_code = cat_ids.get("converged")
    converged = (
        stop == converged_code if converged_code is not None else np.zeros(stop.shape, bool)
    )
    debias = np.where(converged, np.clip(saved / denom, 0.0, 1.0), 0.0)
    history = np.clip((retries + fails) / max(1, w.retry_cap), 0.0, 1.0)
    age = float(len(log) - 1) - latest.astype(np.float64)
    staleness = np.clip(age / float(stale_after_rows), 0.0, 1.0)

    penalty = (
        w.support * support
        + w.debias * debias
        + w.history * history
        + w.staleness * staleness
    ) / w.total
    return QualityScores(
        nodes=nodes,
        pair_i=pair_i,
        pair_j=pair_j,
        pair_scores=1.0 - np.clip(penalty, 0.0, 1.0),
        pair_components=dict(
            zip(COMPONENTS, (support, debias, history, staleness))
        ),
        pair_ages=age,
        stale_after_rows=int(stale_after_rows),
        weights=w,
    )


# ----------------------------------------------------------------------
# Scorecard


@dataclass(frozen=True)
class HealthThresholds:
    """Grading knobs for :func:`health_report`.

    Defaults are deliberately lenient on *coverage* (budgeted
    full-network campaigns legitimately run at a few percent) and
    strict on *impossibility* (a single negative or sub-light-time
    estimate is a fail — those are never legitimate).
    """

    #: Coverage below this fraction grades ``warn`` (zero grades fail).
    coverage_warn: float = 0.005
    #: Max tolerated |R(x,y) − R(y,x)| in ms before symmetry fails.
    symmetry_tolerance_ms: float = 1e-6
    #: An RTT below ``margin × (2·distance/c)`` fails plausibility.
    light_time_margin: float = 1.0
    #: Pair age (in provenance rows) beyond one full sweep that counts
    #: as stale; ``None`` derives one sweep from the matrix.
    stale_after_rows: int | None = None
    #: More stale pairs than this grades ``fail``.
    max_stale_pairs: int = 0
    #: Scores below this count as low-quality pairs.
    min_quality: float = 0.25
    #: Low-quality fraction above this grades ``warn``.
    low_quality_warn_fraction: float = 0.10
    #: TIV rate above this grades ``warn`` (default: never — TIVs are
    #: an expected overlay phenomenon, reported informationally).
    tiv_warn_rate: float = 1.01
    #: Cap on anomalies *listed* in the payload; counts stay exact.
    max_listed_anomalies: int = 100


_GRADE_ORDER = {"ok": 0, "skip": 0, "warn": 1, "fail": 2}


@dataclass
class HealthReport:
    """A finished scorecard: one JSON-ready dict plus renderers."""

    data: dict[str, Any]

    def to_dict(self) -> dict[str, Any]:
        return self.data

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.data, indent=indent)

    @property
    def grade(self) -> str:
        """Overall grade: worst of the check grades."""
        return self.data["grade"]

    @property
    def ok(self) -> bool:
        """Gate predicate: true unless some check graded ``fail``."""
        return self.grade != "fail"

    @property
    def anomaly_counts(self) -> dict[str, int]:
        return dict(self.data["anomalies"]["counts"])

    def render_text(self) -> str:
        lines: list[str] = []
        ds = self.data["dataset"]
        lines.append("== matrix health ==")
        lines.append(f"  grade                  {self.grade.upper()}")
        lines.append(
            f"  relays                 {ds['relays']}  "
            f"(pairs {ds['measured']}/{ds['total_pairs']} measured, "
            f"{ds['provenance_records']} provenance records)"
        )
        lines.append("== checks ==")
        for check in self.data["checks"]:
            lines.append(
                f"  {check['name']:<16} {check['status']:<5} {check['detail']}"
            )
        counts = self.data["anomalies"]["counts"]
        if counts:
            lines.append("== anomalies ==")
            for category, count in sorted(counts.items()):
                lines.append(f"  {category:<22} {count}")
            if self.data["anomalies"]["truncated"]:
                listed = len(self.data["anomalies"]["listed"])
                lines.append(f"  (listing capped at {listed}; counts are exact)")
        quality = self.data.get("quality")
        if quality and quality["scored_pairs"]:
            lines.append("== pair quality ==")
            lines.append(
                f"  scored pairs           "
                f"{quality['scored_pairs']}/{quality['total_pairs']}"
            )
            cuts = quality["percentiles"]
            if cuts:
                lines.append(
                    "  p5/p50/p95             "
                    f"{cuts.get('p5', 0):.2f}/{cuts.get('p50', 0):.2f}/"
                    f"{cuts.get('p95', 0):.2f}"
                )
            for entry in quality.get("worst", []):
                dominant = max(
                    entry["components"], key=lambda k: entry["components"][k]
                )
                lines.append(
                    f"  {entry['x'][:8]}..{entry['y'][:8]}  "
                    f"score {entry['score']:.2f}  (worst component: {dominant})"
                )
        return "\n".join(lines)


def _resolve_positions(
    dataset: CampaignDataset,
    positions: Mapping[str, Any] | None,
) -> dict[str, tuple[float, float]]:
    """Node coordinates from the explicit arg or ``meta["geo"]``."""
    source = positions if positions is not None else dataset.meta.get("geo", {})
    resolved: dict[str, tuple[float, float]] = {}
    for node, value in source.items():
        lat, lon = (value.lat, value.lon) if hasattr(value, "lat") else value
        resolved[node] = (float(lat), float(lon))
    return resolved


def _great_circle_km_vec(
    lat1: np.ndarray, lon1: np.ndarray, lat2: np.ndarray, lon2: np.ndarray
) -> np.ndarray:
    """Vectorized haversine (same formula as :func:`netsim.geo.great_circle_km`)."""
    from repro.netsim.geo import EARTH_RADIUS_KM

    p1, p2 = np.radians(lat1), np.radians(lat2)
    dlat = p2 - p1
    dlon = np.radians(lon2) - np.radians(lon1)
    h = np.sin(dlat / 2.0) ** 2 + np.cos(p1) * np.cos(p2) * np.sin(dlon / 2.0) ** 2
    return 2.0 * EARTH_RADIUS_KM * np.arcsin(np.minimum(1.0, np.sqrt(h)))


def health_report(
    dataset: CampaignDataset,
    quality: QualityScores | None = None,
    positions: Mapping[str, Any] | None = None,
    thresholds: HealthThresholds | None = None,
    tiv_sample_pairs: int = 2000,
    seed: int = 0,
) -> HealthReport:
    """Grade a dataset's matrix on a single scorecard.

    ``positions`` maps node → ``(lat, lon)`` (or any object with
    ``.lat``/``.lon``); when omitted, ``dataset.meta["geo"]`` is used
    and the light-time check is skipped if neither is present.
    ``quality`` defaults to ``dataset.quality()`` (cached). The report
    is deterministic for a given dataset + seed, so it is invariant to
    how many workers produced the dataset and to the on-disk format.
    """
    t = thresholds or HealthThresholds()
    matrix = dataset.matrix
    nodes = list(matrix.nodes)
    n = len(nodes)
    view = matrix.matrix
    total_pairs = n * (n - 1) // 2
    if quality is None:
        if t.stale_after_rows is not None:
            quality = pair_quality(dataset, stale_after_rows=t.stale_after_rows)
        else:
            quality = dataset.quality()

    checks: list[dict[str, Any]] = []
    anomalies: list[dict[str, Any]] = []

    def check(name: str, status: str, value: Any, detail: str) -> None:
        checks.append(
            {"name": name, "status": status, "value": value, "detail": detail}
        )

    # -- coverage -------------------------------------------------------
    measured = matrix.num_measured
    coverage = measured / total_pairs if total_pairs else 0.0
    if measured == 0:
        check("coverage", "fail", 0.0, "no measured pairs")
    elif coverage < t.coverage_warn:
        check(
            "coverage", "warn", round(coverage, 6),
            f"{measured}/{total_pairs} pairs ({coverage:.2%})",
        )
    else:
        check(
            "coverage", "ok", round(coverage, 6),
            f"{measured}/{total_pairs} pairs ({coverage:.2%})",
        )

    # Every check below walks the measured entries in the order an
    # upper-triangle walk meets them, so listings keep that order.
    iu, ju, upper = matrix.measured_entries()
    lower = view[ju, iu]

    # -- symmetry -------------------------------------------------------
    both = ~np.isnan(lower)
    asym = np.abs(upper[both] - lower[both])
    max_asym = float(asym.max()) if asym.size else 0.0
    bad = np.flatnonzero(both)[asym > t.symmetry_tolerance_ms]
    for k in bad:
        anomalies.append(
            {
                "category": "asymmetry",
                "x": nodes[iu[k]],
                "y": nodes[ju[k]],
                "value": round(float(abs(upper[k] - lower[k])), 6),
            }
        )
    check(
        "symmetry",
        "fail" if len(bad) else "ok",
        round(max_asym, 6),
        f"max |R(x,y)-R(y,x)| = {max_asym:.6g} ms"
        + (f" ({len(bad)} asymmetric pairs)" if len(bad) else ""),
    )

    # -- plausibility: negative / zero estimates ------------------------
    neg = np.flatnonzero(upper < 0.0)
    zero = np.flatnonzero(upper == 0.0)
    for k in neg:
        anomalies.append(
            {
                "category": "negative_rtt",
                "x": nodes[iu[k]],
                "y": nodes[ju[k]],
                "value": round(float(upper[k]), 6),
            }
        )
    for k in zero:
        anomalies.append(
            {
                "category": "zero_rtt",
                "x": nodes[iu[k]],
                "y": nodes[ju[k]],
                "value": 0.0,
            }
        )
    # Negatives are impossible through the normal pipeline (both
    # RttMatrix.set and the measurer reject/clamp them), so any one is
    # corruption and fails. Zeros are a *designed* artifact — the Ting
    # subtraction clamps tiny negatives to 0.0 for nearly co-located
    # pairs (TingResult.rtt_clamped_ms) — so they only warrant a warn.
    bad_count = int(neg.size + zero.size)
    if neg.size:
        status = "fail"
    elif zero.size:
        status = "warn"
    else:
        status = "ok"
    check(
        "plausibility",
        status,
        bad_count,
        (
            f"{neg.size} negative, {zero.size} zero estimates"
            if bad_count
            else "no negative or zero estimates"
        ),
    )

    # -- plausibility: great-circle light-time floor --------------------
    coords = _resolve_positions(dataset, positions)
    placed = {node for node in nodes if node in coords}
    if len(placed) < 2:
        check("light_time", "skip", None, "no node coordinates available")
    else:
        node_arr = np.array(
            [coords.get(node, (np.nan, np.nan)) for node in nodes]
        )
        have = ~np.isnan(node_arr[iu, 0]) & ~np.isnan(node_arr[ju, 0])
        usable = np.flatnonzero(have & (upper > 0.0))
        dist_km = _great_circle_km_vec(
            node_arr[iu[usable], 0],
            node_arr[iu[usable], 1],
            node_arr[ju[usable], 0],
            node_arr[ju[usable], 1],
        )
        floor_ms = 2.0 * dist_km / LIGHT_SPEED_KM_PER_MS
        hits = np.flatnonzero(upper[usable] < t.light_time_margin * floor_ms)
        for h in hits:
            k = usable[h]
            anomalies.append(
                {
                    "category": "sub_light_time",
                    "x": nodes[iu[k]],
                    "y": nodes[ju[k]],
                    "value": round(float(upper[k]), 6),
                    "floor_ms": round(float(floor_ms[h]), 6),
                }
            )
        check(
            "light_time",
            "fail" if hits.size else "ok",
            int(hits.size),
            f"{hits.size} of {usable.size} geolocated pairs below the "
            f"light-time floor",
        )

    # -- triangle inequality (informational) ----------------------------
    if measured and n >= 3:
        from repro.apps.tiv import tiv_rate

        tiv = tiv_rate(matrix, max_pairs=tiv_sample_pairs, seed=seed)
        scope = (
            f"sampled {int(tiv['pairs_checked'])} pairs"
            if tiv["sampled"]
            else f"all {int(tiv['pairs_checked'])} measured pairs"
        )
        check(
            "tiv",
            "warn" if tiv["rate"] > t.tiv_warn_rate else "ok",
            round(float(tiv["rate"]), 4),
            f"TIV rate {tiv['rate']:.1%} ({scope})",
        )
    else:
        check("tiv", "skip", None, "needs >= 3 relays with measurements")

    # -- staleness ------------------------------------------------------
    stale = quality.stale_pairs()
    for x, y, age in stale:
        anomalies.append(
            {"category": "stale_pair", "x": x, "y": y, "value": age}
        )
    check(
        "staleness",
        "fail" if len(stale) > t.max_stale_pairs else "ok",
        len(stale),
        f"{len(stale)} pairs older than {quality.stale_after_rows} "
        f"provenance rows",
    )

    # -- quality floor --------------------------------------------------
    values = quality.scored_values()
    if values.size:
        low = float((values < t.min_quality).mean())
        check(
            "quality",
            "warn" if low > t.low_quality_warn_fraction else "ok",
            round(low, 4),
            f"{low:.1%} of scored pairs below {t.min_quality:g}",
        )
    else:
        check("quality", "skip", None, "no provenance to score")

    grade = max((c["status"] for c in checks), key=lambda s: _GRADE_ORDER[s])
    if grade == "skip":
        grade = "ok"
    counts: dict[str, int] = {}
    for anomaly in anomalies:
        counts[anomaly["category"]] = counts.get(anomaly["category"], 0) + 1
    quality_section = quality.summary()
    quality_section["worst"] = quality.worst(5)
    data: dict[str, Any] = {
        "format": HEALTH_FORMAT,
        "grade": grade,
        "dataset": {
            "relays": n,
            "measured": measured,
            "total_pairs": total_pairs,
            "provenance_records": len(dataset.provenance),
        },
        "checks": checks,
        "anomalies": {
            "counts": counts,
            "listed": anomalies[: t.max_listed_anomalies],
            "truncated": len(anomalies) > t.max_listed_anomalies,
        },
        "quality": quality_section,
    }
    return HealthReport(data=data)


# ----------------------------------------------------------------------
# Drift diffs


@dataclass
class DriftReport:
    """A dataset-to-dataset diff: one JSON-ready dict plus renderers."""

    data: dict[str, Any]

    def to_dict(self) -> dict[str, Any]:
        return self.data

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.data, indent=indent)

    def render_text(self, top_n: int = 10) -> str:
        lines: list[str] = []
        nodes = self.data["nodes"]
        pairs = self.data["pairs"]
        lines.append("== dataset drift ==")
        lines.append(
            f"  nodes                  {nodes['baseline']} -> {nodes['current']}"
            f"  (+{len(nodes['added'])}/-{len(nodes['removed'])}, "
            f"{nodes['common']} common)"
        )
        lines.append(
            f"  pairs                  {pairs['gained']} gained, "
            f"{pairs['lost']} lost, {pairs['changed']} changed "
            f"(of {pairs['compared']} compared)"
        )
        if pairs["changed"]:
            lines.append(
                f"  value drift            max {pairs['max_abs_delta_ms']:.3f} ms, "
                f"mean {pairs['mean_abs_delta_ms']:.3f} ms"
            )
            if pairs["unexplained"]:
                lines.append(
                    f"  unexplained changes    {pairs['unexplained']} "
                    f"(no newer provenance record)"
                )
        changed = self.data["changed"]
        for entry in changed[:top_n]:
            lines.append(
                f"  {entry['x'][:8]}..{entry['y'][:8]}  "
                f"{entry['old_ms']:.1f} -> {entry['new_ms']:.1f} ms  "
                f"({entry['attribution']})"
            )
        if len(changed) > top_n:
            lines.append(f"  ... and {len(changed) - top_n} more changed pairs")
        quality = self.data["quality"]
        lines.append(
            f"  quality regressions    {quality['regressed']}"
        )
        for entry in quality["listed"][:top_n]:
            lines.append(
                f"  {entry['x'][:8]}..{entry['y'][:8]}  "
                f"{entry['old_score']:.2f} -> {entry['new_score']:.2f}  "
                f"(driver: {entry['component']})"
            )
        return "\n".join(lines)


def _latest_row_lookup(
    log: ProvenanceLog, nodes: Sequence[str]
) -> dict[int, int]:
    """``{lo * n + hi: latest global row}`` for pairs over ``nodes``."""
    latest = log.latest_rows(nodes)
    keys = latest.i * len(nodes) + latest.j
    return {int(k): int(r) for k, r in zip(keys, latest.row)}


def diff_datasets(
    baseline: CampaignDataset,
    current: CampaignDataset,
    value_tolerance_ms: float = 1e-6,
    quality_drop: float = 0.1,
    weights: QualityWeights | None = None,
) -> DriftReport:
    """Diff two dataset versions: churn, pair deltas, quality drift.

    Every changed pair is attributed: ``remeasured`` when the current
    dataset's provenance holds more history for the pair than the
    baseline's (the expected path — a refresh campaign re-measured it),
    ``unexplained`` otherwise (a value changed with no new measurement
    record, which should never happen and is worth an investigation).
    Quality regressions larger than ``quality_drop`` are attributed to
    the penalty component that grew the most.
    """
    base_nodes = list(baseline.matrix.nodes)
    cur_nodes = list(current.matrix.nodes)
    base_set, cur_set = set(base_nodes), set(cur_nodes)
    added = [node for node in cur_nodes if node not in base_set]
    removed = [node for node in base_nodes if node not in cur_set]
    common = [node for node in cur_nodes if node in base_set]
    k = len(common)

    base_idx = {node: i for i, node in enumerate(base_nodes)}
    cur_idx = {node: i for i, node in enumerate(cur_nodes)}
    bi = np.array([base_idx[node] for node in common], dtype=np.int64)
    ci = np.array([cur_idx[node] for node in common], dtype=np.int64)
    b_view = baseline.matrix.matrix
    c_view = current.matrix.matrix
    old = b_view[np.ix_(bi, bi)]
    new = c_view[np.ix_(ci, ci)]
    iu, ju = np.triu_indices(k, k=1)
    old_v, new_v = old[iu, ju], new[iu, ju]
    had, has = ~np.isnan(old_v), ~np.isnan(new_v)
    gained = np.flatnonzero(~had & has)
    lost = np.flatnonzero(had & ~has)
    delta = np.abs(new_v - old_v)
    changed = np.flatnonzero(had & has & (delta > value_tolerance_ms))

    # Attribution: does the current log hold a newer record for the pair
    # than the baseline log does? Row indices are insertion-order clocks
    # *within* each log; absorb appends refresh records after the
    # baseline history, so "more rows for this pair" == "re-measured".
    base_latest = _latest_row_lookup(baseline.provenance, common)
    cur_latest = _latest_row_lookup(current.provenance, common)
    changed_entries: list[dict[str, Any]] = []
    unexplained = 0
    for c in changed:
        key = int(iu[c] * k + ju[c])
        b_row = base_latest.get(key)
        c_row = cur_latest.get(key)
        remeasured = c_row is not None and (b_row is None or c_row > b_row)
        if not remeasured:
            unexplained += 1
        changed_entries.append(
            {
                "x": common[iu[c]],
                "y": common[ju[c]],
                "old_ms": round(float(old_v[c]), 6),
                "new_ms": round(float(new_v[c]), 6),
                "delta_ms": round(float(new_v[c] - old_v[c]), 6),
                "attribution": "remeasured" if remeasured else "unexplained",
            }
        )
    changed_entries.sort(key=lambda e: -abs(e["delta_ms"]))

    # Quality drift over common pairs.
    q_base = pair_quality(baseline, weights=weights)
    q_cur = pair_quality(current, weights=weights)
    qb = q_base.scores[np.ix_(bi, bi)][iu, ju]
    qc = q_cur.scores[np.ix_(ci, ci)][iu, ju]
    scored = ~np.isnan(qb) & ~np.isnan(qc)
    regressed = np.flatnonzero(scored & (qb - qc > quality_drop))
    regressions: list[dict[str, Any]] = []
    for c in regressed:
        deltas = {
            name: float(
                q_cur.components[name][ci[iu[c]], ci[ju[c]]]
                - q_base.components[name][bi[iu[c]], bi[ju[c]]]
            )
            for name in COMPONENTS
        }
        dominant = max(deltas, key=lambda name: deltas[name])
        regressions.append(
            {
                "x": common[iu[c]],
                "y": common[ju[c]],
                "old_score": round(float(qb[c]), 4),
                "new_score": round(float(qc[c]), 4),
                "component": dominant,
            }
        )
    regressions.sort(key=lambda e: e["new_score"] - e["old_score"])

    data: dict[str, Any] = {
        "format": DRIFT_FORMAT,
        "nodes": {
            "baseline": len(base_nodes),
            "current": len(cur_nodes),
            "added": added,
            "removed": removed,
            "common": k,
        },
        "pairs": {
            "compared": int(iu.size),
            "gained": int(gained.size),
            "lost": int(lost.size),
            "changed": int(changed.size),
            "unexplained": unexplained,
            "max_abs_delta_ms": (
                round(float(delta[changed].max()), 6) if changed.size else 0.0
            ),
            "mean_abs_delta_ms": (
                round(float(delta[changed].mean()), 6) if changed.size else 0.0
            ),
        },
        "changed": changed_entries,
        "quality": {
            "regressed": len(regressions),
            "listed": regressions,
        },
    }
    return DriftReport(data=data)
