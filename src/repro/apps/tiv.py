"""Triangle inequality violations in the Tor overlay (Section 5.2.1).

A pair (s, d) exhibits a TIV when some relay r gives
``R(s, r) + R(r, d) < R(s, d)``: the detour through r beats the routed
"direct" path. TIVs are a routing phenomenon — geographic distance can
never violate the triangle inequality, which is the paper's argument
that measured RTTs (Ting), not geography (LASTor), must guide path
selection.

Paper findings these functions reproduce: 69% of the 50-node all-pairs
set has at least one TIV; the median best-detour saving is 7.5%; the top
decile saves 28% or more; TIVs are not confined to any RTT range
(Figure 15).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.dataset import RttMatrix, measured_upper
from repro.util.errors import ConfigurationError, MeasurementError


@dataclass(frozen=True)
class TivFinding:
    """The best detour for one violated pair."""

    src: str
    dst: str
    relay: str
    direct_rtt_ms: float
    detour_rtt_ms: float

    @property
    def savings_ms(self) -> float:
        """Absolute RTT saved by taking the detour."""
        return self.direct_rtt_ms - self.detour_rtt_ms

    @property
    def savings_fraction(self) -> float:
        """Relative RTT reduction from taking the detour (Figure 14)."""
        if self.direct_rtt_ms <= 0:
            raise MeasurementError("direct RTT must be positive")
        return self.savings_ms / self.direct_rtt_ms


def _matrix_and_nodes(
    matrix: RttMatrix | np.ndarray, require_complete: bool = True
) -> tuple[np.ndarray, list[str]]:
    if isinstance(matrix, RttMatrix):
        if require_complete and not matrix.is_complete:
            raise MeasurementError("TIV analysis needs a complete matrix")
        # Zero-copy: the analysis only reads, so the read-only view is
        # enough — no O(n^2) copy per call at full-network scale.
        return matrix.matrix, list(matrix.nodes)
    arr = np.asarray(matrix, dtype=float)
    n = arr.shape[0]
    if arr.ndim != 2 or arr.shape != (n, n):
        raise ConfigurationError("need a square RTT matrix")
    return arr, [str(i) for i in range(n)]


def tiv_rate(
    matrix: RttMatrix | np.ndarray,
    max_pairs: int = 2000,
    seed: int = 0,
) -> dict[str, float | bool]:
    """The TIV pair rate, tolerating missing entries and large matrices.

    The health scorecard's view of `tiv_summary`: unmeasured entries are
    simply excluded (a detour through an unmeasured relay never counts,
    and a pair with no direct estimate is not checked), and above
    ``max_pairs`` measured pairs a seeded uniform sample is checked
    instead of all of them — the ``sampled`` flag in the result says
    which happened, so a capped check is never mistaken for an
    exhaustive one. Exact (and identical to `tiv_summary`'s fraction)
    below the cap.
    """
    rtt, _ = _matrix_and_nodes(matrix, require_complete=False)
    n = rtt.shape[0]
    # Missing entries become +inf: an unmeasured detour leg can never
    # undercut a measured direct path, which is exactly "excluded".
    work = np.where(np.isnan(rtt), np.inf, rtt)
    np.fill_diagonal(work, np.inf)
    iu, ju, direct = measured_upper(rtt)
    measured = np.isfinite(direct)
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
    # Chunked so the (chunk × n) detour matrix stays small at any scale.
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


def find_tivs(matrix: RttMatrix | np.ndarray) -> list[TivFinding]:
    """The best-detour TIV for every violated pair (one finding per pair)."""
    rtt, nodes = _matrix_and_nodes(matrix)
    n = len(nodes)
    findings: list[TivFinding] = []
    for i in range(n):
        for j in range(i + 1, n):
            direct = rtt[i, j]
            detours = rtt[i, :] + rtt[:, j]
            detours[i] = np.inf
            detours[j] = np.inf
            best = int(np.argmin(detours))
            if detours[best] < direct:
                findings.append(
                    TivFinding(
                        src=nodes[i],
                        dst=nodes[j],
                        relay=nodes[best],
                        direct_rtt_ms=float(direct),
                        detour_rtt_ms=float(detours[best]),
                    )
                )
    return findings


def tiv_summary(matrix: RttMatrix | np.ndarray) -> dict[str, float]:
    """Headline numbers: TIV pair fraction, median and p90 savings."""
    rtt, nodes = _matrix_and_nodes(matrix)
    n = len(nodes)
    total_pairs = n * (n - 1) // 2
    if total_pairs == 0:
        raise MeasurementError("need at least two nodes")
    findings = find_tivs(matrix)
    if findings:
        savings = np.array([f.savings_fraction for f in findings])
        median_saving = float(np.median(savings))
        p90_saving = float(np.percentile(savings, 90))
    else:
        median_saving = 0.0
        p90_saving = 0.0
    return {
        "pairs": float(total_pairs),
        "tiv_pairs": float(len(findings)),
        "tiv_fraction": len(findings) / total_pairs,
        "median_savings_fraction": median_saving,
        "p90_savings_fraction": p90_saving,
    }


def detour_scatter(
    matrix: RttMatrix | np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Figure 15's point set: (direct RTT, best detour RTT) per TIV pair."""
    findings = find_tivs(matrix)
    direct = np.array([f.direct_rtt_ms for f in findings])
    detour = np.array([f.detour_rtt_ms for f in findings])
    return direct, detour
