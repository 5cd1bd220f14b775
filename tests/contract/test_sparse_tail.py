"""Contract: the sparse write-side tail is the dense one, entry for entry.

``CampaignPlanner.plan``, ``pair_quality`` / ``QualityScores``,
``health_report`` and ``apps.tiv.tiv_rate`` read the *measured set* of a
dataset — ``RttMatrix.measured_entries`` and ``ProvenanceLog.latest_rows``
— instead of gathering, scoring and sorting all ``n(n-1)/2`` slots of the
matrix. The claim is that nothing they return can tell: the same plans
(pairs, scores, candidates, breakdown), the same quality accessors and
dense views, the same scorecard dict. This file holds the claim to that.
Its first half is the dense code those functions replaced, **frozen
verbatim** (``triu_indices`` gathers, the full stable ``argsort``, six
``np.full((n, n))`` scatters, the Python dict over every history row) as
reference oracles; its second half runs old and new on the same generated
datasets and compares with ``==`` / ``np.array_equal`` (NaNs equal), never
``approx``.

Planner inputs are symmetric matrices — what ``RttMatrix.set`` and
``CampaignDataset.absorb`` keep; the scorecard cases also plant the
corruptions ``health_report`` exists to find (asymmetry, one-sided
entries, negative and zero estimates).

(The second file of ``tests/contract/``, ROADMAP item 2.)
"""

from __future__ import annotations

import json
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping, Sequence

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.apps.tiv import _matrix_and_nodes, tiv_rate
from repro.core.dataset import (
    CampaignDataset,
    PairProvenance,
    ProvenanceLog,
    RttMatrix,
    pair_slot,
    slot_pair,
)
from repro.core.planner import CampaignPlan, CampaignPlanner, PlannerWeights
from repro.obs.health import (
    COMPONENTS,
    HEALTH_FORMAT,
    LIGHT_SPEED_KM_PER_MS,
    HealthThresholds,
    QualityWeights,
    _GRADE_ORDER,
    _great_circle_km_vec,
    _resolve_positions,
    health_report,
    pair_quality,
)
from repro.util.errors import MeasurementError

# ======================================================================
# Frozen oracles: the dense tail as it stood before the sparse readers.
# Copied verbatim (names prefixed, ``self.`` plumbing kept); do not
# "fix" or modernise them — they are the definition of "same".


def _dense_last_row_for_pairs(log: ProvenanceLog) -> dict[tuple[int, int], int]:
    xs, ys = log.pair_columns("x", "y")
    lo = np.minimum(xs, ys)
    hi = np.maximum(xs, ys)
    latest: dict[tuple[int, int], int] = {}
    for row, (a, b) in enumerate(zip(lo.tolist(), hi.tolist())):
        latest[(a, b)] = row
    return latest


class DensePlanner:
    """``CampaignPlanner`` at the parent commit."""

    def __init__(
        self,
        fingerprints: list[str],
        dataset: CampaignDataset | None = None,
        predicted: "RttMatrix | np.ndarray | None" = None,
        weights: PlannerWeights | None = None,
        seed: int = 0,
        jitter: float = 1e-6,
        quality: Any | None = None,
    ) -> None:
        self.fingerprints = list(fingerprints)
        self.dataset = dataset
        self.weights = weights if weights is not None else PlannerWeights()
        self.seed = seed
        self.jitter = jitter
        self._predicted = self._align_predictions(predicted)
        self._quality = self._align_quality(quality)

    def _align_predictions(
        self, predicted: "RttMatrix | np.ndarray | None"
    ) -> np.ndarray | None:
        if predicted is None:
            return None
        n = len(self.fingerprints)
        if isinstance(predicted, RttMatrix):
            # Align by name; relays the model has not seen stay NaN.
            aligned = np.full((n, n), np.nan)
            known = [
                (i, predicted.index_of(fp))
                for i, fp in enumerate(self.fingerprints)
                if fp in predicted
            ]
            if known:
                ours = np.array([i for i, _ in known])
                theirs = np.array([j for _, j in known])
                aligned[np.ix_(ours, ours)] = predicted.matrix[np.ix_(theirs, theirs)]
            return aligned
        predicted = np.asarray(predicted, dtype=float)
        if predicted.shape != (n, n):
            raise MeasurementError(
                f"prediction matrix shape {predicted.shape} does not match "
                f"{n} fingerprints"
            )
        return predicted

    def _align_quality(self, quality: Any | None) -> np.ndarray | None:
        if quality is None:
            return None
        n = len(self.fingerprints)
        nodes = getattr(quality, "nodes", None)
        if nodes is not None:
            source = np.asarray(quality.matrix, dtype=float)
            index = {node: i for i, node in enumerate(nodes)}
            aligned = np.full((n, n), np.nan)
            known = [
                (i, index[fp])
                for i, fp in enumerate(self.fingerprints)
                if fp in index
            ]
            if known:
                ours = np.array([i for i, _ in known])
                theirs = np.array([j for _, j in known])
                aligned[np.ix_(ours, ours)] = source[np.ix_(theirs, theirs)]
            return aligned
        quality = np.asarray(quality, dtype=float)
        if quality.shape != (n, n):
            raise MeasurementError(
                f"quality matrix shape {quality.shape} does not match "
                f"{n} fingerprints"
            )
        return quality

    def _measured_values(self, iu: np.ndarray, ju: np.ndarray) -> np.ndarray:
        n = len(self.fingerprints)
        values = np.full(iu.shape, np.nan)
        if self.dataset is None:
            return values
        matrix = self.dataset.matrix
        known = [
            (i, matrix.index_of(fp))
            for i, fp in enumerate(self.fingerprints)
            if fp in matrix
        ]
        if not known:
            return values
        row_map = np.full(n, -1, dtype=np.int64)
        for i, j in known:
            row_map[i] = j
        mi, mj = row_map[iu], row_map[ju]
        mapped = (mi >= 0) & (mj >= 0)
        values[mapped] = matrix.matrix[mi[mapped], mj[mapped]]
        return values

    def _provenance_features(
        self, iu: np.ndarray, ju: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        staleness = np.full(iu.shape, np.nan)
        failed = np.zeros(iu.shape, dtype=bool)
        if self.dataset is None or len(self.dataset.provenance) == 0:
            return staleness, failed
        log = self.dataset.provenance
        names = list(log._names)  # was log.name_table()
        fp_index = {fp: i for i, fp in enumerate(self.fingerprints)}
        # name-table code -> our fingerprint index (-1 = not a target)
        code_map = np.array([fp_index.get(nm, -1) for nm in names], dtype=np.int64)
        status_col, cat_ids = log.status_codes()
        failed_code = cat_ids.get("failed", -2)

        n = len(self.fingerprints)
        latest_row = np.full(iu.shape, -1, dtype=np.int64)
        # Candidate pair -> flat slot for O(1) lookup.
        slot = np.full(n * n, -1, dtype=np.int64)
        slot[iu * n + ju] = np.arange(iu.shape[0])
        for (a, b), row in _dense_last_row_for_pairs(log).items():
            ia, ib = int(code_map[a]), int(code_map[b])
            if ia < 0 or ib < 0:
                continue
            lo, hi = (ia, ib) if ia < ib else (ib, ia)
            s = slot[lo * n + hi]
            if s >= 0:
                latest_row[s] = row
        seen = latest_row >= 0
        if seen.any():
            rows = latest_row[seen].astype(float)
            lo, hi = float(rows.min()), float(rows.max())
            span = (hi - lo) or 1.0
            staleness[seen] = (hi - rows) / span
            failed[seen] = status_col[latest_row[seen]] == failed_code
        return staleness, failed

    def plan(
        self,
        budget_pairs: int | None = None,
        min_score: float = 0.0,
    ) -> CampaignPlan:
        w = self.weights
        n = len(self.fingerprints)
        iu, ju = np.triu_indices(n, k=1)
        measured = self._measured_values(iu, ju)
        unmeasured = np.isnan(measured)
        staleness, failed = self._provenance_features(iu, ju)

        score = w.coverage * unmeasured.astype(float)
        score += w.failure * failed.astype(float)
        # Measured pairs with no provenance history: age unknown, treat
        # as fully stale so matrix-only datasets still refresh.
        stale_term = np.where(np.isnan(staleness), 1.0, staleness)
        stale_term[unmeasured] = 0.0
        score += w.staleness * stale_term

        disagreement_n = 0
        if self._predicted is not None:
            pred = self._predicted[iu, ju]
            comparable = ~unmeasured & ~np.isnan(pred)
            rel = np.zeros(iu.shape)
            denom = np.maximum(measured[comparable], 1e-9)
            rel[comparable] = np.clip(
                np.abs(pred[comparable] - measured[comparable]) / denom, 0.0, 1.0
            )
            score += w.disagreement * rel
            disagreement_n = int(comparable.sum())

        quality_n = 0
        if self._quality is not None:
            qual = self._quality[iu, ju]
            scored = ~unmeasured & ~np.isnan(qual)
            deficit = np.zeros(iu.shape)
            # A pristine pair (quality 1.0) adds nothing; a rotten one
            # (quality 0.0) adds the full weight — refresh it first.
            deficit[scored] = np.clip(1.0 - qual[scored], 0.0, 1.0)
            score += w.quality * deficit
            quality_n = int(scored.sum())

        eligible = score > min_score
        # Deterministic tie-breaking that still spreads equal-score
        # pairs: a tiny seeded jitter, far below any weight step.
        rng = np.random.default_rng(self.seed)
        ranked = score + self.jitter * rng.random(score.shape)
        order = np.argsort(-ranked, kind="stable")
        order = order[eligible[order]]
        if budget_pairs is not None:
            order = order[:budget_pairs]

        pairs = [
            (self.fingerprints[int(iu[k])], self.fingerprints[int(ju[k])])
            for k in order
        ]
        return CampaignPlan(
            pairs=pairs,
            scores=score[order],
            candidates=int(iu.shape[0]),
            budget=budget_pairs,
            breakdown={
                "unmeasured": int(unmeasured.sum()),
                "failed": int(failed.sum()),
                "with_history": int((~np.isnan(staleness)).sum()),
                "with_predictions": disagreement_n,
                "with_quality": quality_n,
            },
        )


@dataclass
class DenseQualityScores:
    """``QualityScores`` at the parent commit: six n×n arrays."""

    nodes: list[str]
    scores: np.ndarray
    components: dict[str, np.ndarray]
    age_rows: np.ndarray
    stale_after_rows: int
    weights: QualityWeights = field(default_factory=QualityWeights)

    @property
    def matrix(self) -> np.ndarray:
        return self.scores

    def score_for(self, a: str, b: str) -> float | None:
        i, j = self.nodes.index(a), self.nodes.index(b)
        value = float(self.scores[i, j])
        return None if np.isnan(value) else value

    def scored_values(self) -> np.ndarray:
        iu, ju = np.triu_indices(len(self.nodes), k=1)
        values = self.scores[iu, ju]
        return values[~np.isnan(values)]

    def percentiles(
        self, qs: Sequence[float] = (5.0, 25.0, 50.0, 75.0, 95.0)
    ) -> dict[str, float]:
        values = self.scored_values()
        if values.size == 0:
            return {}
        cuts = np.percentile(values, list(qs))
        return {f"p{q:g}": round(float(v), 4) for q, v in zip(qs, cuts)}

    def stale_pairs(self) -> list[tuple[str, str, int]]:
        iu, ju = np.triu_indices(len(self.nodes), k=1)
        ages = self.age_rows[iu, ju]
        hits = np.flatnonzero(~np.isnan(ages) & (ages > self.stale_after_rows))
        order = hits[np.argsort(-ages[hits], kind="stable")]
        return [
            (self.nodes[iu[k]], self.nodes[ju[k]], int(ages[k])) for k in order
        ]

    def worst(self, top_n: int = 10) -> list[dict[str, Any]]:
        iu, ju = np.triu_indices(len(self.nodes), k=1)
        values = self.scores[iu, ju]
        scored = np.flatnonzero(~np.isnan(values))
        order = scored[np.argsort(values[scored], kind="stable")][:top_n]
        return [
            {
                "x": self.nodes[iu[k]],
                "y": self.nodes[ju[k]],
                "score": round(float(values[k]), 4),
                "components": {
                    name: round(float(self.components[name][iu[k], ju[k]]), 4)
                    for name in COMPONENTS
                },
                "age_rows": int(self.age_rows[iu[k], ju[k]]),
            }
            for k in order
        ]

    def summary(self) -> dict[str, Any]:
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


def _dense_latest_pair_rows(
    log: ProvenanceLog, nodes: Sequence[str]
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    n = len(nodes)
    empty = np.empty(0, dtype=np.int64)
    if len(log) == 0:
        return empty, empty, empty, empty
    node_index = {node: i for i, node in enumerate(nodes)}
    code_map = np.array(
        [node_index.get(name, -1) for name in log._names], dtype=np.int64
    )
    xs, ys = log.pair_columns("x", "y")
    xi, yi = code_map[xs], code_map[ys]
    rows = np.flatnonzero((xi >= 0) & (yi >= 0))
    if rows.size == 0:
        return empty, empty, empty, empty
    lo = np.minimum(xi[rows], yi[rows])
    hi = np.maximum(xi[rows], yi[rows])
    keys = lo * n + hi
    uniq, rev_first = np.unique(keys[::-1], return_index=True)
    latest = rows[keys.size - 1 - rev_first]
    status, cat_ids = log.status_codes()
    failed_code = cat_ids.get("failed")
    if failed_code is None:
        fails = np.zeros(uniq.size, dtype=np.int64)
    else:
        ranks = np.searchsorted(uniq, keys)
        failed = status[rows] == failed_code
        fails = np.bincount(ranks[failed], minlength=uniq.size)
    return uniq, latest, fails, rows


def dense_pair_quality(
    dataset: CampaignDataset,
    weights: QualityWeights | None = None,
    stale_after_rows: int | None = None,
) -> DenseQualityScores:
    w = weights or QualityWeights()
    nodes = list(dataset.matrix.nodes)
    n = len(nodes)
    if stale_after_rows is None:
        stale_after_rows = max(1, dataset.matrix.num_measured)
    scores = np.full((n, n), np.nan)
    components = {name: np.full((n, n), np.nan) for name in COMPONENTS}
    ages = np.full((n, n), np.nan)
    log = dataset.provenance
    keys, latest, fails, _ = _dense_latest_pair_rows(log, nodes)
    if keys.size == 0:
        return DenseQualityScores(
            nodes=nodes,
            scores=scores,
            components=components,
            age_rows=ages,
            stale_after_rows=int(stale_after_rows),
            weights=w,
        )
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
    score = 1.0 - np.clip(penalty, 0.0, 1.0)

    ui, uj = keys // n, keys % n
    for name, values in zip(COMPONENTS, (support, debias, history, staleness)):
        components[name][ui, uj] = values
        components[name][uj, ui] = values
    scores[ui, uj] = score
    scores[uj, ui] = score
    ages[ui, uj] = age
    ages[uj, ui] = age
    return DenseQualityScores(
        nodes=nodes,
        scores=scores,
        components=components,
        age_rows=ages,
        stale_after_rows=int(stale_after_rows),
        weights=w,
    )


def dense_tiv_rate(
    matrix: RttMatrix | np.ndarray,
    max_pairs: int = 2000,
    seed: int = 0,
) -> dict[str, float | bool]:
    rtt, _ = _matrix_and_nodes(matrix, require_complete=False)
    n = rtt.shape[0]
    work = np.where(np.isnan(rtt), np.inf, rtt)
    np.fill_diagonal(work, np.inf)
    iu, ju = np.triu_indices(n, k=1)
    measured = np.isfinite(work[iu, ju])
    iu, ju = iu[measured], ju[measured]
    total = int(iu.size)
    if total == 0:
        return {
            "pairs_checked": 0.0,
            "violations": 0.0,
            "rate": 0.0,
            "sampled": False,
        }
    sampled = total > max_pairs
    if sampled:
        picks = np.random.default_rng(seed).choice(total, size=max_pairs, replace=False)
        picks.sort()
        iu, ju = iu[picks], ju[picks]
    violations = 0
    chunk = max(1, 1_000_000 // max(1, n))
    for start in range(0, iu.size, chunk):
        ic, jc = iu[start : start + chunk], ju[start : start + chunk]
        best = np.min(work[ic, :] + work[:, jc].T, axis=1)
        violations += int(np.sum(best < work[ic, jc]))
    checked = int(iu.size)
    return {
        "pairs_checked": float(checked),
        "violations": float(violations),
        "rate": violations / checked,
        "sampled": sampled,
    }


def dense_health_report(
    dataset: CampaignDataset,
    quality: DenseQualityScores | None = None,
    positions: Mapping[str, Any] | None = None,
    thresholds: HealthThresholds | None = None,
    tiv_sample_pairs: int = 2000,
    seed: int = 0,
) -> dict[str, Any]:
    t = thresholds or HealthThresholds()
    matrix = dataset.matrix
    nodes = list(matrix.nodes)
    n = len(nodes)
    view = matrix.matrix
    total_pairs = n * (n - 1) // 2
    if quality is None:
        if t.stale_after_rows is not None:
            quality = dense_pair_quality(dataset, stale_after_rows=t.stale_after_rows)
        else:
            quality = dense_pair_quality(dataset)

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

    iu, ju = np.triu_indices(n, k=1)
    upper = view[iu, ju] if n else np.empty(0)
    lower = view[ju, iu] if n else np.empty(0)

    # -- symmetry -------------------------------------------------------
    both = ~np.isnan(upper) & ~np.isnan(lower)
    asym = np.abs(upper[both] - lower[both]) if both.any() else np.empty(0)
    max_asym = float(asym.max()) if asym.size else 0.0
    bad = np.flatnonzero(both)[asym > t.symmetry_tolerance_ms] if asym.size else []
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
    finite = ~np.isnan(upper)
    neg = np.flatnonzero(finite & (upper < 0.0))
    zero = np.flatnonzero(finite & (upper == 0.0))
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
        usable = np.flatnonzero(have & finite & (upper > 0.0))
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
        tiv = dense_tiv_rate(matrix, max_pairs=tiv_sample_pairs, seed=seed)
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
    return {
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


# ======================================================================
# Comparisons


def _same(a: np.ndarray, b: np.ndarray) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and np.array_equal(a, b, equal_nan=True)


def _assert_same_plan(new: CampaignPlan, old: CampaignPlan) -> None:
    assert new.pairs == old.pairs
    assert _same(new.scores, old.scores)
    assert new.candidates == old.candidates
    assert new.budget == old.budget
    assert new.breakdown == old.breakdown
    assert list(new.breakdown) == list(old.breakdown)


def _assert_same_quality(new, old: DenseQualityScores) -> None:
    assert new.nodes == old.nodes
    assert new.stale_after_rows == old.stale_after_rows
    assert new.weights == old.weights
    assert _same(new.scored_values(), old.scored_values())
    assert new.percentiles() == old.percentiles()
    assert new.percentiles((0.0, 33.3, 100.0)) == old.percentiles((0.0, 33.3, 100.0))
    assert new.stale_pairs() == old.stale_pairs()
    for top_n in (0, 1, 5, 10**6):
        assert new.worst(top_n) == old.worst(top_n)
    assert json.dumps(new.summary()) == json.dumps(old.summary())
    # Dense views, after the column readers (they are built on demand).
    assert _same(new.scores, old.scores)
    assert new.matrix is new.scores
    assert _same(new.age_rows, old.age_rows)
    assert list(new.components) == list(old.components) == list(COMPONENTS)
    for name in COMPONENTS:
        assert _same(new.components[name], old.components[name])
    assert not new.scores.flags.writeable
    for a in new.nodes:
        for b in new.nodes:
            assert new.score_for(a, b) == old.score_for(a, b)


def _assert_same_report(new: dict[str, Any], old: dict[str, Any]) -> None:
    # json.dumps is the strictest equality a report has: values, list
    # order, key order, and NaN == NaN.
    assert json.dumps(new) == json.dumps(old)


# ======================================================================
# Generated datasets


@dataclass
class Scenario:
    fingerprints: list[str]
    dataset: CampaignDataset
    #: The same dataset with the corruptions the scorecard looks for.
    corrupted: CampaignDataset
    positions: dict[str, tuple[float, float]]
    predicted_array: np.ndarray
    predicted_matrix: RttMatrix


def _record(rng: np.random.Generator, x: str, y: str, failed: bool) -> PairProvenance:
    if failed:
        return PairProvenance(
            x=x, y=y, status="failed", failure_category="timeout",
            samples_requested=int(rng.integers(0, 12)),
            retries=int(rng.integers(0, 4)),
        )
    requested = int(rng.integers(0, 12))
    kept = int(rng.integers(0, requested + 1))
    converged = bool(rng.random() < 0.4)
    return PairProvenance(
        x=x, y=y, status="measured", rtt_ms=float(rng.uniform(5.0, 300.0)),
        samples_requested=requested, samples_kept=kept,
        samples_saved=int(rng.integers(0, 6)) if converged else 0,
        stop_reason="converged" if converged else None,
        retries=int(rng.integers(0, 3)),
    )


def build_scenario(
    n: int, fraction: str, seed: int, provenance: bool = True
) -> Scenario:
    """A planner target set of ``n`` relays against a dataset that
    shares most of them, in another order, and names a few it does not;
    ``fraction`` of the dataset's pairs measured; history with failed-
    then-retried pairs, failed-only pairs, re-measured pairs, self-pair
    rows and rows naming nodes neither side knows."""
    rng = np.random.default_rng(seed)
    fingerprints = [f"T{k:03d}" for k in range(n)]
    shared = [fp for fp in fingerprints if rng.random() < 0.85] or fingerprints[:1]
    extras = [f"X{k:02d}" for k in range(int(rng.integers(0, 4)))]
    nodes = shared + extras
    rng.shuffle(nodes)
    m = len(nodes)
    matrix = RttMatrix(nodes)
    all_pairs = [(a, b) for a in range(m) for b in range(a + 1, m)]
    want = {
        "none": 0,
        "handful": min(len(all_pairs), int(rng.integers(1, 6))),
        "half": len(all_pairs) // 2,
        "complete": len(all_pairs),
    }[fraction]
    picks = (
        rng.choice(len(all_pairs), size=want, replace=False) if want else []
    )
    log = ProvenanceLog()
    for pick in picks:
        a, b = all_pairs[int(pick)]
        x, y = (nodes[a], nodes[b]) if rng.random() < 0.5 else (nodes[b], nodes[a])
        # Repeated values on purpose: ties in the disagreement axis.
        matrix.set(x, y, float(rng.choice([20.0, 55.5, 120.25, rng.uniform(1.0, 400.0)])))
        if not provenance or rng.random() < 0.15:
            continue  # matrix-only pair: measured, no history
        if rng.random() < 0.25:
            log.add(_record(rng, x, y, failed=True))  # failed, then retried
        log.add(_record(rng, x, y, failed=False))
        if rng.random() < 0.1:
            log.add(_record(rng, y, x, failed=False))  # re-measured later
    if provenance and m >= 2:
        for _ in range(int(rng.integers(0, 5))):  # failed only: no matrix entry
            a, b = rng.choice(m, size=2, replace=False)
            log.add(_record(rng, nodes[int(a)], nodes[int(b)], failed=True))
        for _ in range(int(rng.integers(0, 3))):  # self-pair rows
            a = nodes[int(rng.integers(0, m))]
            log.add(_record(rng, a, a, failed=bool(rng.random() < 0.5)))
        for _ in range(int(rng.integers(0, 3))):  # foreign-node rows
            log.add(_record(rng, "ZZ-foreign", nodes[0], failed=False))
            log.add(_record(rng, "ZZ-foreign", "ZZ-other", failed=True))
    dataset = CampaignDataset(matrix=matrix, provenance=log)

    values = matrix.copy_matrix()
    for _ in range(int(rng.integers(0, 4))):
        if m < 2:
            break
        a, b = (int(v) for v in rng.choice(m, size=2, replace=False))
        kind = rng.integers(0, 5)
        if kind == 0:
            values[a, b] = values[b, a] = -3.5
        elif kind == 1:
            values[a, b] = values[b, a] = 0.0
        elif kind == 2:
            values[a, b], values[b, a] = 40.0, 41.0
        elif kind == 3:
            values[a, b], values[b, a] = 40.0, np.nan
        else:
            values[a, b] = values[b, a] = 0.001  # under any light-time floor
    corrupted = CampaignDataset(
        matrix=RttMatrix.from_array(nodes, values), provenance=log
    )
    positions = {
        node: (float(rng.uniform(-60, 60)), float(rng.uniform(-170, 170)))
        for node in nodes
        if rng.random() < 0.8
    }

    predicted_array = rng.uniform(1.0, 400.0, size=(n, n))
    predicted_array[rng.random((n, n)) < 0.2] = np.nan
    predicted_matrix = RttMatrix(
        [fp for fp in fingerprints if rng.random() < 0.7] + ["P-only"]
    )
    known = predicted_matrix.nodes[:-1]
    for a in range(len(known)):
        for b in range(a + 1, len(known)):
            if rng.random() < 0.7:
                predicted_matrix.set(known[a], known[b], float(rng.uniform(1.0, 400.0)))
    return Scenario(
        fingerprints, dataset, corrupted, positions, predicted_array, predicted_matrix
    )


class _NodesAndMatrix:
    """The duck type the planner documents for ``quality=``."""

    def __init__(self, nodes: list[str], matrix: np.ndarray) -> None:
        self.nodes, self.matrix = nodes, matrix


def _reload_mmap(dataset: CampaignDataset, directory: str) -> CampaignDataset:
    path = Path(directory) / "dataset.npz"
    dataset.save(path)
    loaded = CampaignDataset.load(path, mmap=True)
    assert loaded.matrix.is_readonly
    return loaded


# ======================================================================
# The contract


@given(
    n=st.integers(2, 60),
    fraction=st.sampled_from(["none", "handful", "half", "complete"]),
    seed=st.integers(0, 2**32 - 1),
    provenance=st.booleans(),
    predicted=st.sampled_from([None, "array", "matrix"]),
    quality=st.sampled_from([None, "scores", "array", "duck"]),
    jitter=st.sampled_from([1e-6, 0.0, 0.5]),  # 0.5 crosses score steps
    min_score=st.sampled_from([0.0, 0.0, -0.5, 0.25, 0.95, 1.0, 1.7]),
    reweighted=st.booleans(),
    mmap=st.booleans(),
)
@settings(max_examples=120, deadline=None)
def test_plans_are_identical(
    n, fraction, seed, provenance, predicted, quality, jitter, min_score,
    reweighted, mmap,
):
    scenario = build_scenario(n, fraction, seed, provenance)
    fps = scenario.fingerprints
    with tempfile.TemporaryDirectory() as directory:
        dataset = (
            _reload_mmap(scenario.dataset, directory) if mmap else scenario.dataset
        )
        new_quality = old_quality = None
        if quality is not None:
            scores, dense = pair_quality(dataset), dense_pair_quality(dataset)
            if quality == "scores":
                new_quality, old_quality = scores, dense
            elif quality == "duck":
                new_quality = old_quality = _NodesAndMatrix(dense.nodes, dense.scores)
            else:  # bare array, aligned to the planner's fingerprints
                aligned = DensePlanner(fps, quality=dense)._quality
                new_quality = old_quality = aligned
        pred = {
            None: None,
            "array": scenario.predicted_array,
            "matrix": scenario.predicted_matrix,
        }[predicted]
        kwargs = dict(
            dataset=dataset,
            predicted=pred,
            weights=PlannerWeights(coverage=0.1) if reweighted else None,
            seed=seed % 1000,
            jitter=jitter,
        )
        new = CampaignPlanner(fps, quality=new_quality, **kwargs)
        old = DensePlanner(fps, quality=old_quality, **kwargs)
        everything = old.plan(min_score=min_score)
        _assert_same_plan(new.plan(min_score=min_score), everything)
        eligible = len(everything.pairs)
        for budget in {0, 1, 7, eligible // 2, max(0, eligible - 1), eligible, eligible + 3}:
            _assert_same_plan(
                new.plan(budget_pairs=budget, min_score=min_score),
                old.plan(budget_pairs=budget, min_score=min_score),
            )
        # No standing dataset at all: the cold start.
        _assert_same_plan(
            CampaignPlanner(fps, seed=seed % 1000, jitter=jitter).plan(budget_pairs=5),
            DensePlanner(fps, seed=seed % 1000, jitter=jitter).plan(budget_pairs=5),
        )


@given(
    n=st.integers(2, 60),
    fraction=st.sampled_from(["none", "handful", "half", "complete"]),
    seed=st.integers(0, 2**32 - 1),
    provenance=st.booleans(),
    stale_after=st.sampled_from([None, None, 1, 3, 40]),
    reweighted=st.booleans(),
    mmap=st.booleans(),
)
@settings(max_examples=80, deadline=None)
def test_quality_scores_are_identical(
    n, fraction, seed, provenance, stale_after, reweighted, mmap
):
    scenario = build_scenario(n, fraction, seed, provenance)
    weights = QualityWeights(support=0.2, history=2.0, retry_cap=1) if reweighted else None
    with tempfile.TemporaryDirectory() as directory:
        dataset = (
            _reload_mmap(scenario.dataset, directory) if mmap else scenario.dataset
        )
        _assert_same_quality(
            pair_quality(dataset, weights=weights, stale_after_rows=stale_after),
            dense_pair_quality(dataset, weights=weights, stale_after_rows=stale_after),
        )


@given(
    n=st.integers(2, 60),
    fraction=st.sampled_from(["none", "handful", "half", "complete"]),
    seed=st.integers(0, 2**32 - 1),
    provenance=st.booleans(),
    corrupted=st.booleans(),
    stale_after=st.sampled_from([None, None, 2]),
    tiv_sample_pairs=st.sampled_from([2000, 5]),
    listed=st.sampled_from([100, 2]),
    mmap=st.booleans(),
)
@settings(max_examples=100, deadline=None)
def test_scorecards_are_identical(
    n, fraction, seed, provenance, corrupted, stale_after, tiv_sample_pairs,
    listed, mmap,
):
    scenario = build_scenario(n, fraction, seed, provenance)
    source = scenario.corrupted if corrupted else scenario.dataset
    thresholds = HealthThresholds(
        stale_after_rows=stale_after, max_listed_anomalies=listed
    )
    with tempfile.TemporaryDirectory() as directory:
        dataset = _reload_mmap(source, directory) if mmap else source
        for positions in (None, scenario.positions):
            new = health_report(
                dataset, positions=positions, thresholds=thresholds,
                tiv_sample_pairs=tiv_sample_pairs, seed=seed % 7,
            )
            old = dense_health_report(
                dataset, positions=positions, thresholds=thresholds,
                tiv_sample_pairs=tiv_sample_pairs, seed=seed % 7,
            )
            _assert_same_report(new.to_dict(), old)
        assert tiv_rate(dataset.matrix, 5, seed % 7) == dense_tiv_rate(
            dataset.matrix, 5, seed % 7
        )
        assert tiv_rate(dataset.matrix) == dense_tiv_rate(dataset.matrix)


def test_tiv_rate_on_a_bare_array_with_infinities():
    # A bare array may spell "no path" as inf; only finite direct
    # estimates are pairs to check, exactly as before.
    rng = np.random.default_rng(3)
    values = rng.uniform(1.0, 100.0, size=(12, 12))
    values = (values + values.T) / 2.0
    values[rng.random((12, 12)) < 0.3] = np.nan
    values[2, 7] = values[7, 2] = np.inf
    for max_pairs in (2000, 4):
        assert tiv_rate(values, max_pairs, 1) == dense_tiv_rate(values, max_pairs, 1)


@given(n=st.integers(0, 40), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_slot_codec_names_the_upper_triangle_walk(n, seed):
    iu, ju = np.triu_indices(n, k=1)
    slots = np.arange(iu.size)
    assert np.array_equal(pair_slot(iu, ju, n), slots)
    i, j = slot_pair(slots, n)
    assert np.array_equal(i, iu) and np.array_equal(j, ju)
    picks = np.random.default_rng(seed).permutation(slots)[:5]
    i, j = slot_pair(picks, n)
    assert np.array_equal(i, iu[picks]) and np.array_equal(j, ju[picks])


@given(
    n=st.integers(2, 40),
    fraction=st.sampled_from(["none", "handful", "half", "complete"]),
    seed=st.integers(0, 2**32 - 1),
    mmap=st.booleans(),
)
@settings(max_examples=60, deadline=None)
def test_matrix_readers_walk_the_upper_triangle(n, fraction, seed, mmap):
    scenario = build_scenario(n, fraction, seed)
    with tempfile.TemporaryDirectory() as directory:
        dataset = (
            _reload_mmap(scenario.corrupted, directory) if mmap else scenario.corrupted
        )
        matrix = dataset.matrix
        iu, ju = np.triu_indices(len(matrix), k=1)
        upper = matrix.matrix[iu, ju]
        keep = ~np.isnan(upper)
        i, j, values = matrix.measured_entries()
        assert np.array_equal(i, iu[keep]) and np.array_equal(j, ju[keep])
        assert _same(values, upper[keep]) and type(values) is np.ndarray
        assert _same(matrix.values(), upper[keep])
        assert list(matrix.measured_pairs()) == [
            (matrix.nodes[a], matrix.nodes[b], float(v))
            for a, b, v in zip(iu[keep], ju[keep], upper[keep])
        ]


def test_the_benchmark_cycle_at_a_thousand_relays(tmp_path):
    """plan 100 cold → absorb → quality → plan 50 → absorb → save →
    mmap load → health, old against new at every step, on a dataset
    shaped like ``pipeline_fullnet``'s."""
    n, seed = 1000, 47
    fps = [f"{k:040X}" for k in range(n)]
    rng = np.random.default_rng(seed)

    def measure(pairs, failed_every):
        fresh, log = RttMatrix(fps), ProvenanceLog()
        for k, (x, y) in enumerate(pairs):
            if k % failed_every == failed_every - 1:
                log.add(_record(rng, x, y, failed=True))
                continue
            fresh.set(x, y, float(rng.uniform(5.0, 300.0)))
            log.add(_record(rng, x, y, failed=False))
        return fresh, log

    cold = CampaignPlanner(fps, seed=seed).plan(budget_pairs=100)
    _assert_same_plan(cold, DensePlanner(fps, seed=seed).plan(budget_pairs=100))
    assert cold.candidates == 499_500 and len(cold.pairs) == 100

    dataset = CampaignDataset(matrix=RttMatrix(fps))
    dataset.absorb(*measure(cold.pairs, failed_every=25))
    quality, dense = dataset.quality(), dense_pair_quality(dataset)
    assert quality.pair_scores.size == 100
    replan = CampaignPlanner(
        fps, dataset=dataset, seed=seed + 1, quality=quality
    ).plan(budget_pairs=50)
    _assert_same_plan(
        replan,
        DensePlanner(fps, dataset=dataset, seed=seed + 1, quality=dense).plan(
            budget_pairs=50
        ),
    )
    # The four pairs that failed outrank fresh coverage.
    assert replan.breakdown["failed"] == 4 and replan.scores[0] > replan.scores[-1]

    dataset.absorb(*measure(replan.pairs, failed_every=10))
    path = tmp_path / "cycle.npz"
    dataset.save(path)
    loaded = CampaignDataset.load(path, mmap=True)
    _assert_same_report(health_report(loaded).to_dict(), dense_health_report(loaded))
    new, old = loaded.quality(), dense_pair_quality(loaded)
    assert _same(new.scored_values(), old.scored_values())
    assert new.worst(20) == old.worst(20) and new.summary() == old.summary()
    assert _same(new.scores, old.scores) and _same(new.age_rows, old.age_rows)
