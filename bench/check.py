"""Correctness gates: every function returns a list of problems (empty = pass).

The gates run on every invocation, after the timed repeats. A benchmark
number from a run that fails one is not a number — ``run.py`` reports
``correct: false`` and exits non-zero.
"""

from __future__ import annotations

import hashlib
from typing import Any, Sequence

import numpy as np

from bench.queries import reference_mismatch

#: Median |estimate − oracle| ceilings (ms), per campaign workload. The
#: driver feeds arbitrary seeds, so these are gross-breakage gates, set
#: from a survey of the worlds the seeds build (largest median seen:
#: dense 5.1 over 120 seeds, highacc 16.6 over 340 seeds of its 21
#: pairs — bandwidth-derived service delays are heavy-tailed and the
#: estimator cannot subtract them — pipeline 2.64 over 60 seeds, tightly
#: packed). A broken estimator misses by far more: timer-paced 2 ms
#: trains with service queues on read 93 ms (see README, findings).
EST_ERR_P50_CEILING_MS = {
    "allpairs_dense": 15.0,
    "highacc_serial": 40.0,
    "pipeline_fullnet": 5.0,
}

#: Serve answers re-derived by brute force per run.
REFERENCE_SAMPLES = 1_000


def matrix_hash(values: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(values).tobytes()).hexdigest()


#: Slack for results that crossed a fork. The sharded engine quantises
#: isolated estimates to 1e-6 ms so that float noise from differing
#: absolute event times (~1e-10 ms) vanishes — but an estimate sitting on
#: a rounding boundary still lands one step away now and then, and takes
#: an event or two with it (seed 6: one pair of 150 differs by 1e-6 ms
#: between the forked and the inline run, 54,005 vs 54,006 events). A
#: finding for a later issue; until then the pipeline's gates allow two
#: quantisation steps and one part in a thousand on counts.
FORK_ATOL_MS = 2e-6
FORK_COUNT_RTOL = 1e-3


def matrices_agree(a: np.ndarray, b: np.ndarray, atol_ms: float) -> bool:
    return a.shape == b.shape and np.allclose(
        a, b, rtol=0.0, atol=atol_ms, equal_nan=True
    )


def repeats_identical(label: str, first, other, across_fork: bool) -> list[str]:
    """Simulated statistics and counts must not move between repeats.

    ``first`` and ``other`` are two repeats' outcomes. Exactly equal
    hashes and counts, except for a workload whose results cross a fork
    (see :data:`FORK_ATOL_MS`).
    """
    problems = []
    if not across_fork:
        if first.fingerprint != other.fingerprint:
            problems.append(
                f"{label}: result hash {other.fingerprint[:12]} "
                f"!= {first.fingerprint[:12]}"
            )
    elif not matrices_agree(
        first.artifacts["values"], other.artifacts["values"], FORK_ATOL_MS
    ):
        problems.append(f"{label}: matrix differs by more than {FORK_ATOL_MS} ms")
    rtol = FORK_COUNT_RTOL if across_fork else 0.0
    for name in sorted(first.exact.keys() & other.exact.keys()):
        a, b = first.exact[name], other.exact[name]
        if abs(a - b) > rtol * abs(a):
            problems.append(f"{label}: {name} moved between repeats ({a!r} -> {b!r})")
    return problems


def campaign(
    workload: str,
    values: np.ndarray,
    attempted: int,
    measured: int,
    failures: int,
    legs_measured: int,
    relays_touched: int,
    est_err_p50_ms: float,
    est_err_ceiling_ms: float | None,
) -> list[str]:
    """The gates every campaign workload shares."""
    problems = []
    if not np.array_equal(values, values.T, equal_nan=True):
        problems.append(f"{workload}: matrix is not symmetric")
    if measured + failures != attempted:
        problems.append(
            f"{workload}: measured {measured} + failures {failures} "
            f"!= attempted {attempted}"
        )
    if legs_measured != relays_touched:
        problems.append(
            f"{workload}: {legs_measured} legs measured for "
            f"{relays_touched} relays touched"
        )
    if est_err_ceiling_ms is not None and not est_err_p50_ms <= est_err_ceiling_ms:
        problems.append(
            f"{workload}: median estimate error {est_err_p50_ms:.3f} ms "
            f"> ceiling {est_err_ceiling_ms} ms"
        )
    return problems


def sharded_equals_inline(sharded: np.ndarray, inline: np.ndarray) -> list[str]:
    if not matrices_agree(sharded, inline, FORK_ATOL_MS):
        return [
            "pipeline_fullnet: forked matrix differs from the force_inline "
            f"matrix by more than {FORK_ATOL_MS} ms"
        ]
    return []


def dataset_round_trip(
    saved_hash: str, loaded_hash: str, index_version: str
) -> list[str]:
    problems = []
    if loaded_hash != saved_hash:
        problems.append(
            "pipeline_fullnet: mmap-loaded content hash "
            f"{loaded_hash[:12]} != saved {saved_hash[:12]}"
        )
    if index_version != loaded_hash[:12]:
        problems.append(
            f"pipeline_fullnet: index version {index_version} is not the "
            f"content hash prefix {loaded_hash[:12]}"
        )
    return problems


def serve_answers(
    queries: Sequence[dict[str, Any]],
    answers: Sequence[dict[str, Any]],
    matrix: np.ndarray,
    nodes: list[str],
    samples: int = REFERENCE_SAMPLES,
) -> list[str]:
    """An evenly spaced sample of answers must equal brute-force numpy."""
    if len(answers) != len(queries):
        return [f"serve_mixed: {len(answers)} answers for {len(queries)} queries"]
    index_of = {node: i for i, node in enumerate(nodes)}
    step = max(1, len(queries) // samples)
    problems = []
    for position in range(0, len(queries), step):
        mismatch = reference_mismatch(
            queries[position], answers[position], matrix, index_of, nodes
        )
        if mismatch is not None:
            problems.append(f"serve_mixed: {mismatch}")
    return problems[:10]


def batch_equals_inline(
    inline: Sequence[dict[str, Any]], forked: Sequence[dict[str, Any]]
) -> list[str]:
    if list(forked) != list(inline):
        return ["serve_mixed: batch(workers=2) answers differ from inline answers"]
    return []
