"""Sample policies and minimum-filter estimation.

Ting's estimator is the *minimum* of many RTT samples per circuit
(Section 3.3): forwarding delays and queueing are strictly additive
noise, so the minimum converges on the propagation floor. Section 4.4
studies how fast: reaching the true 1000-sample minimum is slow, but
getting within 1 ms takes ~25x fewer probes at the median.

:func:`convergence_profile` reproduces that analysis for any sample
trace, and :class:`SamplePolicy` packages the speed/accuracy trade-off
(200 samples for high accuracy, ~10 for a 15-second measurement at ~5%
error — the Section 4.4 operating points).

:class:`AdaptiveSpec` turns the convergence analysis into a *live*
stopping rule: instead of a fixed count, a probe run terminates once its
running minimum has plateaued — no sample in the last ``patience``
probes improved the minimum by more than the declared tolerance — and
the spread of the ``confirm_k`` smallest samples confirms the minimum
is actually near its floor. :class:`ConvergenceTracker` is the
O(1)-per-sample engine behind it, designed for the echo client's
per-reply hot path (no numpy, no allocation). Early-stopped estimates
are *debiased* (:func:`debiased_min_estimate`): the gap to the full-cap
minimum is one-sided with a known logarithmic shape, so the estimator
subtracts its expectation instead of spending the declared tolerance
on it.
"""

from __future__ import annotations

import math
from bisect import insort
from dataclasses import dataclass

import numpy as np

from repro.util.errors import MeasurementError
from repro.util.units import Milliseconds

#: Floor for relative tolerances: a trace whose minimum approaches 0 ms
#: (co-located hosts) would otherwise demand improvements smaller than
#: ``0 * relative == 0`` — i.e. never plateau (and, in
#: :func:`samples_to_within`, declare the first sample converged). One
#: microsecond is far below both the simulator's delay resolution and
#: any real kernel timestamp.
RELATIVE_TOLERANCE_FLOOR_MS: Milliseconds = 1e-3


@dataclass(frozen=True)
class AdaptiveSpec:
    """Convergence-triggered stopping rule for one probe run.

    Exactly one of ``absolute_ms`` ("stop when the minimum has stopped
    moving by more than 1 ms") or ``relative`` ("... by more than 5% of
    the current minimum") must be set — the same two tolerance families
    Section 4.4 studies. A run stops once

    * at least ``min_samples`` replies have arrived, and
    * the running minimum has not fallen by more than the tolerance
      over the last ``patience`` replies — *cumulatively*: slow
      circuits descend in staircases of individually sub-tolerance
      steps, so the window compares against the minimum at the window's
      start, not step by step (a per-step test sleeps through a
      multi-ms staircase without ever seeing a "meaningful"
      improvement), and
    * the spread of the ``confirm_k`` smallest samples confirms the
      minimum is near its floor (see below).

    A plateau alone cannot distinguish "converged" from "high-jitter
    circuit whose minimum is still far above its floor" — the latter can
    sit still for tens of samples and then improve by several ms. The
    prefix does carry that information: RTT samples are the propagation
    floor plus additive queueing noise, and for i.i.d. noise the mean
    spacing of the lowest order statistics matches the minimum's
    expected excess over the floor. ``(x_(k) − x_(1)) / (k − 1)`` is
    therefore an online estimate of how much the minimum still has to
    fall; the tracker refuses to stop while it exceeds the tolerance.
    That gates exactly the runs that need more probes, which is what
    lets ``patience`` stay short for the well-behaved majority.

    The policy's ``samples`` field remains the hard cap (the fixed-count
    behaviour is recovered exactly when the stopping rule never fires).
    """

    absolute_ms: Milliseconds | None = None
    relative: float | None = None
    min_samples: int = 10
    patience: int = 30
    #: Extra plateau patience per millisecond of the running minimum.
    #: A circuit's floor shows only when *every* hop dodges queueing at
    #: once, and that per-sample probability decays with path length —
    #: so the quiet window needed to trust a minimum grows with the RTT
    #: being measured. Short circuits keep the base ``patience``; a
    #: 300 ms circuit at 0.15/ms waits through a ~45-sample-longer
    #: window before declaring convergence.
    patience_per_ms: float = 0.0
    #: Size of the order-statistics confirmation window; the run cannot
    #: stop before ``confirm_k`` samples have arrived.
    confirm_k: int = 5
    #: Safety factor on the confirmation: stop only once the estimated
    #: excess times this margin is within the tolerance. The
    #: mean-spacing estimate is unbiased for exponential noise but
    #: *under*-estimates the excess when the noise density vanishes at
    #: the floor — circuit jitter is a sum of per-hop terms, so the
    #: lowest order statistics bunch together several times tighter
    #: than the distance they still have to fall. Bounding the *worst*
    #: pair of a C(n,2) campaign also needs per-run miss probability
    #: well below 1/pairs, hence a margin rather than a point estimate.
    confirm_margin: float = 1.0
    #: Remaining-excess correction, as a fraction of the tolerance.
    #: A min-filter over sum-of-per-hop jitter converges like
    #: ``excess(n) ~ c * ln(cap / n)`` — every stop short of the cap
    #: leaves a *one-sided* gap above the full-cap minimum (the early
    #: trace is an exact prefix of the long one, so the gap is never
    #: negative). Reporting the raw minimum therefore wastes half the
    #: declared tolerance on a bias with a known sign and shape;
    #: :meth:`excess_correction_ms` subtracts the expected gap instead,
    #: recentering the error around zero. ``0.0`` (the default) keeps
    #: the raw minimum. The correction vanishes smoothly as the stop
    #: approaches the cap, so a run that never converges stays
    #: bit-identical to the fixed policy.
    debias: float = 0.0

    def __post_init__(self) -> None:
        if (self.absolute_ms is None) == (self.relative is None):
            raise MeasurementError("pass exactly one of absolute_ms / relative")
        if self.absolute_ms is not None and self.absolute_ms < 0:
            raise MeasurementError("absolute tolerance must be non-negative")
        if self.relative is not None and self.relative <= 0:
            raise MeasurementError("relative tolerance must be positive")
        if self.min_samples < 1:
            raise MeasurementError("min_samples must be >= 1")
        if self.patience < 1:
            raise MeasurementError("patience must be >= 1")
        if self.patience_per_ms < 0:
            raise MeasurementError("patience_per_ms must be non-negative")
        if self.confirm_k < 2:
            raise MeasurementError("confirm_k must be >= 2")
        if self.confirm_margin < 1.0:
            raise MeasurementError("confirm_margin must be >= 1")
        if self.debias < 0:
            raise MeasurementError("debias must be non-negative")

    @property
    def tolerance_label(self) -> str:
        """Human-readable tolerance, e.g. ``"1ms"`` or ``"5%"``."""
        if self.absolute_ms is not None:
            return f"{self.absolute_ms:g}ms"
        return f"{self.relative * 100:g}%"

    def tolerance_ms(self, current_min: Milliseconds) -> Milliseconds:
        """The improvement size that counts as *meaningful* right now.

        Relative tolerances scale with the current minimum and are
        clamped at :data:`RELATIVE_TOLERANCE_FLOOR_MS` so a near-zero
        floor cannot demand infinitesimal improvements forever.
        """
        if self.absolute_ms is not None:
            return self.absolute_ms
        return max(current_min * self.relative, RELATIVE_TOLERANCE_FLOOR_MS)

    def excess_correction_ms(
        self, kept: int, cap: int, minimum: Milliseconds
    ) -> Milliseconds:
        """Expected gap between this run's minimum and the full-cap one.

        The running minimum of i.i.d. floor-plus-additive-jitter samples
        whose density vanishes polynomially at the floor (any sum of
        per-hop exponential terms) decays like ``c * ln(cap / n)`` — the
        ratio of the remaining fall to the fall already logged per
        e-fold of samples is scale-free. The correction is that log
        term, scaled by ``debias`` times the declared tolerance,
        normalised so a stop right at ``min_samples`` gets the full
        ``debias`` fraction, and clamped to one tolerance so the
        corrected estimate can never undershoot the fixed-policy value
        by more than the accuracy the policy promises. Zero at the cap:
        a complete trace needs no correction.
        """
        if self.debias == 0.0 or kept >= cap:
            return 0.0
        span = math.log(cap / max(self.min_samples, 1))
        if span <= 0.0:
            return 0.0
        fraction = math.log(cap / kept) / span
        tolerance = self.tolerance_ms(minimum)
        return min(self.debias * tolerance * min(fraction, 1.0), tolerance)

    def make_tracker(self) -> "ConvergenceTracker":
        """A fresh per-run tracker. The echo client calls this rather
        than importing :class:`ConvergenceTracker` (``repro.core``
        imports the echo client; the reverse would be a cycle)."""
        return ConvergenceTracker(self)


class ConvergenceTracker:
    """O(1) per-sample plateau detector for one probe run.

    Feed each RTT to :meth:`update`; it returns ``True`` once the
    :class:`AdaptiveSpec` stopping rule is satisfied. Pure function of
    the sample sequence — no clocks, no RNG — which is what keeps
    adaptive campaigns shard-invariant under task isolation.
    """

    __slots__ = ("spec", "count", "minimum", "plateau", "anchor", "lowest")

    def __init__(self, spec: AdaptiveSpec) -> None:
        self.spec = spec
        self.count = 0
        self.minimum = float("inf")
        #: Samples since the plateau window opened.
        self.plateau = 0
        #: The running minimum when the current window opened; the
        #: window resets once the minimum falls more than the tolerance
        #: below it — a *cumulative* test, so a staircase of small steps
        #: adding up past the tolerance still resets.
        self.anchor = float("inf")
        #: The ``confirm_k`` smallest samples so far, ascending. Updated
        #: only when a sample beats the current k-th smallest, so the
        #: per-reply cost stays a single comparison once warm.
        self.lowest: list[float] = []

    def update(self, rtt_ms: Milliseconds) -> bool:
        """Absorb one sample; ``True`` means *stop now*."""
        self.count += 1
        if len(self.lowest) < self.spec.confirm_k:
            insort(self.lowest, rtt_ms)
        elif rtt_ms < self.lowest[-1]:
            self.lowest.pop()
            insort(self.lowest, rtt_ms)
        if self.count == 1:
            # The first sample defines the minimum; it neither improves
            # nor plateaus. patience >= 1, so this can never stop.
            self.minimum = rtt_ms
            self.anchor = rtt_ms
            return False
        if rtt_ms < self.minimum:
            self.minimum = rtt_ms
        if (self.anchor - self.minimum) > self.spec.tolerance_ms(self.minimum):
            self.anchor = self.minimum
            self.plateau = 0
        else:
            self.plateau += 1
        return (
            self.count >= self.spec.min_samples
            and self.plateau >= self.effective_patience()
            and self.floor_confirmed()
        )

    def replies_before_stop(self) -> int:
        """The fewest further replies after which :meth:`update` could say
        stop, whatever they measure (each grows the plateau by one at most)."""
        spec, count = self.spec, self.count
        return max(1, spec.min_samples - count, spec.confirm_k - count,
                   spec.patience - self.plateau)

    def effective_patience(self) -> float:
        """The quiet window this run must sustain before stopping.

        Scales with the running minimum (see
        :attr:`AdaptiveSpec.patience_per_ms`): the longer the circuit,
        the rarer an all-floor sample, the longer the plateau that
        counts as convergence.
        """
        return self.spec.patience + self.spec.patience_per_ms * self.minimum

    def floor_confirmed(self) -> bool:
        """Whether the k lowest samples place the minimum at its floor.

        The order-statistics gate from :class:`AdaptiveSpec`: the mean
        spacing of the ``confirm_k`` smallest samples estimates the
        minimum's remaining excess over the propagation floor; the run
        may only stop once that estimate is within the tolerance.
        """
        k = self.spec.confirm_k
        if len(self.lowest) < k:
            return False
        spread = (self.lowest[-1] - self.lowest[0]) / (k - 1)
        margin = self.spec.confirm_margin
        return spread * margin <= self.spec.tolerance_ms(self.minimum)


@dataclass(frozen=True)
class SamplePolicy:
    """How many echo samples to take per circuit, and how spaced.

    ``interval_ms=None`` selects serial ping-pong probing (each probe
    sent when the previous reply lands) — the paper's measurement loop,
    used when simulated wall-clock cost must be faithful.

    With ``adaptive`` set, ``samples`` becomes a *cap*: the probe run
    ends as soon as the running minimum plateaus per the
    :class:`AdaptiveSpec`, and the saved probes are reported on the
    result. ``adaptive=None`` (the default) preserves the historical
    fixed-count behaviour bit for bit.
    """

    samples: int = 200
    interval_ms: Milliseconds | None = 5.0
    timeout_ms: Milliseconds = 600_000.0
    adaptive: AdaptiveSpec | None = None

    def __post_init__(self) -> None:
        if self.samples < 1:
            raise MeasurementError("samples must be >= 1")
        if self.interval_ms is not None and self.interval_ms < 0:
            raise MeasurementError("interval must be non-negative")
        if self.adaptive is not None and self.adaptive.min_samples > self.samples:
            raise MeasurementError(
                "adaptive min_samples exceeds the policy's sample cap"
            )

    def for_leg(self) -> "SamplePolicy":
        """The policy leg circuits (``C_x``) run under.

        A leg estimate is shared across every pair involving that relay
        (the sequential measurer's leg cache; the parallel campaign's
        per-relay leg task), so a leg that stops early with a residual
        above its floor contaminates up to ``n - 1`` pair estimates at
        half weight each. Legs are only ``n`` of a campaign's
        ``C(n,2) + n`` probe runs (~3% of the fixed probe cost at 60
        relays), so adaptive policies exempt them from early stopping
        entirely: the shared quantity is measured at the full cap, and
        the convergence rule spends its risk only on the per-pair
        ``C_xy`` circuits. Fixed policies pass through unchanged.
        """
        if self.adaptive is None:
            return self
        return SamplePolicy(
            samples=self.samples,
            interval_ms=self.interval_ms,
            timeout_ms=self.timeout_ms,
        )

    @classmethod
    def serial(cls, samples: int = 200) -> "SamplePolicy":
        """Ping-pong pacing at a given sample count."""
        return cls(samples=samples, interval_ms=None)

    @classmethod
    def high_accuracy(cls) -> "SamplePolicy":
        """The paper's validated default: 200 samples per circuit."""
        return cls(samples=200)

    @classmethod
    def exhaustive(cls) -> "SamplePolicy":
        """The 1000-sample policy used for the Figure 3 ground-truthing."""
        return cls(samples=1000)

    @classmethod
    def fast(cls) -> "SamplePolicy":
        """The ~15-second operating point (accepting ~5% error)."""
        return cls(samples=10)

    @classmethod
    def adaptive_1ms(
        cls,
        max_samples: int = 200,
        min_samples: int = 10,
        patience: int = 30,
        debias: float = 1.2,
        interval_ms: Milliseconds | None = None,
    ) -> "SamplePolicy":
        """Stop once the minimum is plateaued at the 1 ms tolerance.

        The Section 4.4 headline operating point: within 1 ms of the
        long-run floor at a fraction of the probes. Defaults to the
        serial ping-pong loop: a convergence stop can only save probes
        that have not been sent yet, and a paced pipeline running ahead
        of the replies (interval smaller than the RTT) would have most
        of the cap on the wire before the first reply lands.
        """
        return cls(
            samples=max_samples,
            interval_ms=interval_ms,
            adaptive=AdaptiveSpec(
                absolute_ms=1.0,
                min_samples=min_samples,
                patience=patience,
                debias=debias,
            ),
        )

    @classmethod
    def adaptive_5pct(
        cls,
        max_samples: int = 200,
        min_samples: int = 10,
        patience: int = 30,
        debias: float = 1.2,
        interval_ms: Milliseconds | None = None,
    ) -> "SamplePolicy":
        """Stop once the minimum is plateaued at the 5% tolerance.

        Ping-pong paced, like :meth:`adaptive_1ms`.
        """
        return cls(
            samples=max_samples,
            interval_ms=interval_ms,
            adaptive=AdaptiveSpec(
                relative=0.05,
                min_samples=min_samples,
                patience=patience,
                debias=debias,
            ),
        )


def min_estimate(samples: list[Milliseconds] | np.ndarray) -> Milliseconds:
    """Ting's estimator: the minimum of the RTT samples."""
    arr = np.asarray(samples, dtype=float)
    if arr.size == 0:
        raise MeasurementError("cannot estimate from zero samples")
    if np.any(arr < 0):
        raise MeasurementError("negative RTT sample")
    return float(arr.min())


def debiased_min_estimate(
    samples: list[Milliseconds] | np.ndarray, policy: "SamplePolicy"
) -> Milliseconds:
    """The circuit estimate for a probe run under a given policy.

    Fixed policies (and adaptive specs with ``debias=0``) get the plain
    :func:`min_estimate`. Adaptive specs with a remaining-excess
    correction subtract :meth:`AdaptiveSpec.excess_correction_ms`,
    computed purely from the kept-sample count and the policy cap — a
    deterministic function of the trace, so shard workers and the
    single-process path agree exactly.
    """
    value = min_estimate(samples)
    spec = policy.adaptive
    if spec is None:
        return value
    return value - spec.excess_correction_ms(len(samples), policy.samples, value)


def running_minimum(samples: list[Milliseconds] | np.ndarray) -> np.ndarray:
    """The prefix-minimum sequence of a sample trace."""
    arr = np.asarray(samples, dtype=float)
    if arr.size == 0:
        raise MeasurementError("cannot compute running minimum of zero samples")
    return np.minimum.accumulate(arr)


def samples_to_within(
    samples: list[Milliseconds] | np.ndarray,
    absolute_ms: Milliseconds | None = None,
    relative: float | None = None,
) -> int:
    """How many samples until the running minimum is within a tolerance
    of the full-trace minimum.

    Exactly one of ``absolute_ms`` (e.g. 1.0 for "within 1 ms") or
    ``relative`` (e.g. 0.05 for "within 5%") must be given. Returns a
    1-based sample count.
    """
    if (absolute_ms is None) == (relative is None):
        raise MeasurementError("pass exactly one of absolute_ms / relative")
    prefix = running_minimum(samples)
    floor = prefix[-1]
    if absolute_ms is not None:
        threshold = floor + absolute_ms
    else:
        # A 0.0 ms floor would make the relative band empty (threshold
        # == floor), declaring every prefix sample "within tolerance";
        # clamp the band width like the live stopping rule does.
        threshold = floor + max(floor * relative, RELATIVE_TOLERANCE_FLOOR_MS)
    hits = np.nonzero(prefix <= threshold)[0]
    return int(hits[0]) + 1


def convergence_profile(
    samples: list[Milliseconds] | np.ndarray,
) -> dict[str, int]:
    """The Figure 6 statistics for one sample trace.

    Returns the number of samples needed to reach the measured minimum
    exactly, and to get within 1 ms / 1% / 5% / 10% of it.
    """
    arr = np.asarray(samples, dtype=float)
    return {
        "measured_min": samples_to_within(arr, absolute_ms=0.0),
        "within_1ms": samples_to_within(arr, absolute_ms=1.0),
        "within_1pct": samples_to_within(arr, relative=0.01),
        "within_5pct": samples_to_within(arr, relative=0.05),
        "within_10pct": samples_to_within(arr, relative=0.10),
    }
