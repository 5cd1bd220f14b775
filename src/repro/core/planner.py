"""Budgeted campaign planning: measure the most valuable pairs first.

At full-network scale the paper's all-pairs sweep stops being a
realistic unit of work — ~6,500 relays is ~21M pairs — and Section 4.6
says it does not need to be: Ting estimates are stable over at least a
week, so a standing dataset only needs *incremental* refresh. The
related work points the same way (ShorTor consumes a pair matrix it
refreshes continuously; Imani et al. only need the latency-relevant
slice), so instead of ``itertools.combinations`` a campaign should run
from a **prioritized, budgeted pair list**.

:class:`CampaignPlanner` scores every unordered pair of the target
relay set against an existing :class:`~repro.core.dataset.CampaignDataset`
(or nothing, for a cold start) along four axes:

* **coverage** — the pair has no measured entry at all (or its last
  attempt failed); missing data beats everything else.
* **staleness** — how long ago the pair was last measured, read from
  the provenance log's insertion order (the only clock the log has:
  lower row → older measurement), rank-normalized to [0, 1].
* **disagreement** — |predicted − measured| / measured against a
  coordinate-model estimate (``apps/coordinates``' Vivaldi predictions),
  so measurement effort is steered to where the model is most wrong —
  the active-learning loop the roadmap sketches.
* **quality** — the data-quality deficit of the standing estimate
  (``repro.obs.health``'s per-pair scores), so noisy, retry-scarred,
  or heavily debiased estimates get refreshed ahead of clean ones.

The weighted sum plus a tiny seeded jitter (deterministic tie-breaking
that still spreads equal-score pairs instead of always favouring low
indices) orders the pairs, highest first, and the budget cuts the list.
The resulting :class:`CampaignPlan` feeds straight into
``ShardedCampaign(pairs=plan.pairs)``'s work-stealing chunk queue, and
the refreshed results fold back with ``CampaignDataset.absorb``.

The cost of a plan follows what the dataset *holds*, not the square of
the relay count: the axes are computed only for the pairs with a matrix
value or a provenance history (the dataset's sparse readers name them),
every other pair holds the one score an untouched pair gets, and the
budget is cut by selection rather than by sorting all ``n(n-1)/2``
scores. What stays proportional to the candidate count is the jitter —
one draw per slot, so that a pair's tie-break does not depend on which
other pairs happen to be measured.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.core.dataset import (
    CampaignDataset,
    RttMatrix,
    pair_slot,
    slot_pair,
    sorted_lookup,
)
from repro.util.errors import MeasurementError


@dataclass(frozen=True)
class PlannerWeights:
    """Relative priority of the scoring axes (each axis is in [0, 1])."""

    #: Pair has no measured matrix entry.
    coverage: float = 1.0
    #: Pair's most recent provenance record says "failed" (retry value).
    failure: float = 0.6
    #: Age of the last measurement, rank-normalized over the dataset.
    staleness: float = 0.3
    #: Predicted-vs-measured relative disagreement, clipped to [0, 1].
    disagreement: float = 0.8
    #: Data-quality deficit (1 − quality score) of the last estimate.
    quality: float = 0.4


@dataclass
class CampaignPlan:
    """An ordered, budgeted pair list plus the scoring that produced it."""

    #: Pairs in descending priority, cut to the budget.
    pairs: list[tuple[str, str]]
    #: Score per planned pair (aligned with :attr:`pairs`).
    scores: np.ndarray
    #: How many candidate pairs were scored before the cut.
    candidates: int
    #: The requested budget (``None`` = unbudgeted).
    budget: int | None
    #: Candidate counts per scoring axis, for reporting.
    breakdown: dict[str, int] = field(default_factory=dict)

    def summary(self) -> dict[str, Any]:
        """JSON-ready description of the plan."""
        return {
            "planned": len(self.pairs),
            "candidates": self.candidates,
            "budget": self.budget,
            "score_max": round(float(self.scores[0]), 6) if len(self.pairs) else None,
            "score_min": round(float(self.scores[-1]), 6) if len(self.pairs) else None,
            **{k: int(v) for k, v in self.breakdown.items()},
        }


def _stable_prefix(
    key: np.ndarray, contenders: int, budget: int | None
) -> np.ndarray:
    """The first ``budget`` positions of ``np.argsort(key, kind="stable")``
    (all ``contenders`` finite-key positions when the budget does not
    cut), without sorting what the budget throws away.

    When it cuts, a selection finds the budget-th smallest key, every
    position at or under it — boundary ties included — is a candidate,
    and the candidates are stably sorted: they come out of
    ``flatnonzero`` in position order, so equal keys keep the order the
    full stable sort gives them and the prefix is the same prefix.
    """
    if budget is None or budget >= contenders:
        return np.argsort(key, kind="stable")[:contenders]
    if budget == 0:
        return np.empty(0, dtype=np.int64)
    kth = np.partition(key, budget - 1)[budget - 1]
    candidates = np.flatnonzero(key <= kth)
    return candidates[np.argsort(key[candidates], kind="stable")][:budget]


class CampaignPlanner:
    """Produce a prioritized, budgeted pair list for a relay set.

    ``dataset`` is the standing measurement history to refresh (``None``
    plans a cold-start sweep where every pair is pure coverage).
    ``predicted`` supplies model estimates for disagreement scoring —
    an :class:`RttMatrix` or an ``n×n`` array aligned with
    ``fingerprints`` (e.g. ``VivaldiSystem.predict_matrix()``).
    ``quality`` supplies per-pair quality scores as a refresh axis —
    ``repro.obs.health``'s ``QualityScores`` (the dataset's own
    ``dataset.quality()``, read through its per-pair columns), anything
    else with ``.nodes`` + an ``n×n`` ``.matrix``, or a raw aligned
    array; low-quality estimates are refreshed first.

    Planning is fully deterministic: the same fingerprints, dataset,
    predictions, quality scores, weights, and seed produce the
    identical pair order.
    """

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
        if len(fingerprints) != len(set(fingerprints)):
            raise MeasurementError("planner fingerprints must be unique")
        self.fingerprints = list(fingerprints)
        self.dataset = dataset
        self.weights = weights if weights is not None else PlannerWeights()
        self.seed = seed
        self.jitter = jitter
        self._predicted = self._pair_reader(predicted, "prediction")
        self._quality = self._pair_reader(quality, "quality")

    # ------------------------------------------------------------------

    def _pair_reader(self, source: Any | None, what: str) -> Any | None:
        """``read(lo, hi)``: ``source``'s values at pairs of *our*
        fingerprint indices, NaN where it has none — gathered at the
        pairs asked for, never aligned into an ``n×n`` copy.

        Duck-typed: anything with ``.nodes`` is read by name (relays it
        does not know stay NaN) through its per-pair ``scores_at(i, j)``
        when it has one (``QualityScores``), else through its ``n×n``
        ``.matrix``; a bare array must already be aligned.
        """
        if source is None:
            return None
        n = len(self.fingerprints)
        nodes = getattr(source, "nodes", None)
        if nodes is None:
            array = np.asarray(source, dtype=float)
            if array.shape != (n, n):
                raise MeasurementError(
                    f"{what} matrix shape {array.shape} does not match "
                    f"{n} fingerprints"
                )
            return lambda lo, hi: array[lo, hi]
        index = {node: i for i, node in enumerate(nodes)}
        theirs = np.array(
            [index.get(fp, -1) for fp in self.fingerprints], dtype=np.int64
        )
        at = getattr(source, "scores_at", None)
        if at is None:
            dense = np.asarray(source.matrix, dtype=float)

            def at(a: np.ndarray, b: np.ndarray) -> np.ndarray:
                return dense[a, b]

        def read(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
            a, b = theirs[lo], theirs[hi]
            known = (a >= 0) & (b >= 0)
            values = np.full(lo.shape, np.nan)
            values[known] = at(a[known], b[known])
            return values

        return read

    def _touched(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The pairs the dataset says anything about: ``(slot, measured,
        staleness, failed)`` over every candidate with a matrix value or
        a provenance history, sorted by slot.

        ``measured`` is the last known RTT (NaN without one).
        ``staleness`` is the rank-normalized age of the pair's *latest*
        record — the oldest refreshable pair reads 1.0, the newest 0.0,
        a pair with no history NaN — and ``failed`` marks pairs whose
        latest record is a failure.
        """
        n = len(self.fingerprints)
        none = np.empty(0, dtype=np.int64)
        if self.dataset is None:
            return none, np.empty(0), np.empty(0), np.empty(0, dtype=bool)
        matrix, log = self.dataset.matrix, self.dataset.provenance
        ours = np.full(len(matrix), -1, dtype=np.int64)
        for k, fp in enumerate(self.fingerprints):
            if fp in matrix:
                ours[matrix.index_of(fp)] = k
        mi, mj, values = matrix.measured_entries()
        a, b = ours[mi], ours[mj]
        targeted = (a >= 0) & (b >= 0)
        a, b, values = a[targeted], b[targeted], values[targeted]
        valued = pair_slot(np.minimum(a, b), np.maximum(a, b), n)

        latest = log.latest_rows(self.fingerprints)
        pairs = latest.i < latest.j  # a self-pair record is no candidate
        storied = pair_slot(latest.i[pairs], latest.j[pairs], n)
        rows = latest.row[pairs]

        slot = np.union1d(valued, storied)
        measured = np.full(slot.shape, np.nan)
        measured[np.searchsorted(slot, valued)] = values
        staleness = np.full(slot.shape, np.nan)
        failed = np.zeros(slot.shape, dtype=bool)
        if rows.size:
            seen = np.searchsorted(slot, storied)
            age = rows.astype(float)
            lo, hi = float(age.min()), float(age.max())
            span = (hi - lo) or 1.0
            staleness[seen] = (hi - age) / span
            status_col, cat_ids = log.status_codes()
            failed[seen] = status_col[rows] == cat_ids.get("failed", -2)
        return slot, measured, staleness, failed

    def _score(
        self,
        measured: np.ndarray,
        staleness: np.ndarray,
        failed: np.ndarray,
        pred: np.ndarray | None,
        qual: np.ndarray | None,
    ) -> tuple[np.ndarray, int, int]:
        """The five-axis base score of some pairs, plus how many of
        them the disagreement and quality axes could read."""
        w = self.weights
        unmeasured = np.isnan(measured)
        score = w.coverage * unmeasured.astype(float)
        score += w.failure * failed.astype(float)
        # Measured pairs with no provenance history: age unknown, treat
        # as fully stale so matrix-only datasets still refresh.
        stale_term = np.where(np.isnan(staleness), 1.0, staleness)
        stale_term[unmeasured] = 0.0
        score += w.staleness * stale_term

        disagreement_n = 0
        if pred is not None:
            comparable = ~unmeasured & ~np.isnan(pred)
            rel = np.zeros(measured.shape)
            denom = np.maximum(measured[comparable], 1e-9)
            rel[comparable] = np.clip(
                np.abs(pred[comparable] - measured[comparable]) / denom, 0.0, 1.0
            )
            score += w.disagreement * rel
            disagreement_n = int(comparable.sum())

        quality_n = 0
        if qual is not None:
            scored = ~unmeasured & ~np.isnan(qual)
            deficit = np.zeros(measured.shape)
            # A pristine pair (quality 1.0) adds nothing; a rotten one
            # (quality 0.0) adds the full weight — refresh it first.
            deficit[scored] = np.clip(1.0 - qual[scored], 0.0, 1.0)
            score += w.quality * deficit
            quality_n = int(scored.sum())
        return score, disagreement_n, quality_n

    # ------------------------------------------------------------------

    def plan(
        self,
        budget_pairs: int | None = None,
        min_score: float = 0.0,
    ) -> CampaignPlan:
        """Score every candidate pair and cut to the budget.

        Pairs whose base score is not above ``min_score`` are dropped
        even under a generous budget — a fully fresh, well-predicted
        pair is not worth a probe. ``budget_pairs=None`` keeps every
        pair that clears ``min_score``; ``0`` is a legal empty plan; a
        negative or non-integer budget is refused.

        Only the pairs the dataset touches are scored one by one; every
        other slot holds the one score the same arithmetic gives an
        unmeasured pair with no history. The jitter vector is still one
        draw per candidate slot, so a plan does not depend on how many
        pairs happen to be touched.
        """
        if budget_pairs is not None and (
            not isinstance(budget_pairs, (int, np.integer)) or budget_pairs < 0
        ):
            raise MeasurementError(
                f"budget_pairs must be a non-negative integer or None, "
                f"got {budget_pairs!r}"
            )
        n = len(self.fingerprints)
        total = n * (n - 1) // 2
        slot, measured, staleness, failed = self._touched()
        lo, hi = slot_pair(slot, n)
        # One entry more than the touched pairs: a pair the dataset says
        # nothing about, whose score — by the same arithmetic — is what
        # every untouched slot holds.
        score, disagreement_n, quality_n = self._score(
            np.append(measured, np.nan),
            np.append(staleness, np.nan),
            np.append(failed, False),
            *(
                None if read is None else np.append(read(lo, hi), np.nan)
                for read in (self._predicted, self._quality)
            ),
        )
        score, untouched = score[:-1], float(score[-1])

        # Deterministic tie-breaking that still spreads equal-score
        # pairs: a tiny seeded jitter, far below any weight step. The
        # sort key is -(score + jitter), +inf where the base score does
        # not clear min_score.
        eligible = score > min_score
        key = np.random.default_rng(self.seed).random(total)
        key *= self.jitter
        if untouched > min_score:
            pool = None  # every slot competes
            ranked = score + key[slot]
            key += untouched
            key[slot] = ranked
            np.negative(key, out=key)
            key[slot[~eligible]] = np.inf
            contenders = total - int(slot.size) + int(eligible.sum())
        else:
            pool = slot[eligible]
            key = -(score[eligible] + key[pool])
            contenders = int(pool.size)
        order = _stable_prefix(key, contenders, budget_pairs)
        if pool is not None:
            order = pool[order]

        first, second = slot_pair(order, n)
        fps = self.fingerprints
        return CampaignPlan(
            pairs=[(fps[i], fps[j]) for i, j in zip(first.tolist(), second.tolist())],
            scores=sorted_lookup(slot, score, order, untouched),
            candidates=total,
            budget=budget_pairs,
            breakdown={
                "unmeasured": total - int((~np.isnan(measured)).sum()),
                "failed": int(failed.sum()),
                "with_history": int((~np.isnan(staleness)).sum()),
                "with_predictions": disagreement_n,
                "with_quality": quality_n,
            },
        )

    def __repr__(self) -> str:
        return (
            f"CampaignPlanner(relays={len(self.fingerprints)}, "
            f"dataset={'yes' if self.dataset else 'no'}, "
            f"predictions={'yes' if self._predicted is not None else 'no'})"
        )
