"""Measurement campaigns: all-pairs matrices and stability tracking.

:class:`AllPairsCampaign` measures every pair in a relay set (in
randomized order, as the paper's validation did) and assembles an
:class:`~repro.core.dataset.RttMatrix`: the serial task order of
:class:`~repro.core.parallel.ParallelCampaign`, the one scheduler. With
leg caching the campaign needs one leg circuit per relay plus one pair
circuit per pair. :class:`ProbeBudget` caps a campaign's probes.

:class:`StabilityCampaign` re-measures a fixed pair set on a schedule
("once an hour over the course of a week", Section 4.6) and reports the
per-pair time series that Figures 9 and 10 summarize.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from repro.core.parallel import ParallelCampaign
from repro.core.sampling import SamplePolicy
from repro.core.ting import TingMeasurer
from repro.obs import NULL_EVENTS, EventBus
from repro.tor.directory import RelayDescriptor
from repro.util.errors import MeasurementError
from repro.util.units import Milliseconds


@dataclass
class ProbeBudget:
    """A campaign-wide cap on echo probes, spent round by round.

    DiProber (arXiv:2211.16751) frames relay probing as an
    estimation-budget problem; this is the campaign-level version of
    that idea. Rather than aborting when probes run out, the budget
    *degrades gracefully*: as the remaining fraction crosses 50% / 25% /
    10%, :meth:`policy_for` hands out policies with a widened adaptive
    tolerance (×2 / ×4 / ×8) and a shrunken sample cap (×½ / ×¼ / down
    to ``min_samples``), trading accuracy for coverage so the matrix
    still completes. Fixed policies degrade by sample count alone.

    The campaign calls :meth:`policy_for` at each task launch; its
    engine calls :meth:`spend` with the probes each round actually sent,
    so early-stopped runs stretch the budget further. Spend order makes
    degraded tasks depend on campaign history — a budgeted campaign is
    deterministic, but it is *not* shard-invariant (``ShardedCampaign``
    therefore does not take one).
    """

    total: int
    spent: int = 0
    #: Tasks launched with a degraded policy, for reporting.
    degraded_tasks: int = 0
    #: Live telemetry channel; campaigns wire their host's bus in so
    #: tier transitions surface as ``campaign``/``budget_degraded``.
    events: EventBus = field(default=NULL_EVENTS, repr=False, compare=False)

    #: (remaining-fraction floor, tolerance factor, sample-cap factor).
    #: The last tier's floor is below any reachable fraction so an
    #: exhausted budget still resolves to the cheapest policy.
    TIERS: tuple[tuple[float, float, float], ...] = (
        (0.50, 1.0, 1.0),
        (0.25, 2.0, 0.50),
        (0.10, 4.0, 0.25),
        (-1.0, 8.0, 0.0),
    )

    def __post_init__(self) -> None:
        if self.total < 1:
            raise MeasurementError("probe budget must be >= 1")
        # The tier the previous launch resolved to; transitions emit.
        self._last_tier = 0

    @property
    def remaining(self) -> int:
        return max(0, self.total - self.spent)

    @property
    def remaining_fraction(self) -> float:
        return self.remaining / self.total

    @property
    def exhausted(self) -> bool:
        return self.spent >= self.total

    def spend(self, probes: int) -> None:
        """Record probes actually sent by one finished probe round."""
        self.spent += probes

    def policy_for(self, policy: SamplePolicy) -> SamplePolicy:
        """The policy the next task should launch with, given what is
        left. Above half budget the policy passes through untouched."""
        fraction = self.remaining_fraction
        tier, tolerance_factor, cap_factor = 0, 1.0, 1.0
        for index, (floor, tol, cap) in enumerate(self.TIERS):
            if fraction > floor:
                tier, tolerance_factor, cap_factor = index, tol, cap
                break
        if tier != self._last_tier:
            self._last_tier = tier
            if self.events.enabled:
                self.events.warning(
                    "campaign",
                    "budget_degraded",
                    tier=tier,
                    remaining_fraction=round(fraction, 4),
                    tolerance_factor=tolerance_factor,
                    cap_factor=cap_factor,
                )
        if tolerance_factor == 1.0 and cap_factor == 1.0:
            return policy
        self.degraded_tasks += 1
        spec = policy.adaptive
        if spec is None:
            return replace(policy, samples=max(1, int(policy.samples * cap_factor)))
        samples = max(spec.min_samples, int(policy.samples * cap_factor))
        degraded = replace(
            spec,
            absolute_ms=(
                None if spec.absolute_ms is None
                else spec.absolute_ms * tolerance_factor
            ),
            relative=(
                None if spec.relative is None
                else spec.relative * tolerance_factor
            ),
        )
        return replace(policy, samples=samples, adaptive=degraded)


class AllPairsCampaign(ParallelCampaign):
    """Measures all pairs among ``relays`` with one Ting measurer.

    A task order of the one scheduler: no leg tasks (each leg is
    measured by the first pair that demands it, ``C_xy → C_x → C_y``),
    the pairs permuted by ``rng`` (in randomized order, as the paper's
    validation did), concurrency 1 — so every pair runs through
    ``measurer.measure_pair``. Failed pairs are re-attempted up to
    ``retries`` extra rounds, ``retry_delay_ms`` apart — relays on a
    churning network are often back within minutes — and more than
    ``max_failures`` failed attempts in all abort the campaign.
    """

    def __init__(
        self,
        measurer: TingMeasurer,
        relays: list[RelayDescriptor],
        policy: SamplePolicy | None = None,
        rng: np.random.Generator | None = None,
        max_failures: int | None = None,
        retries: int = 0,
        retry_delay_ms: Milliseconds = 60_000.0,
        budget: ProbeBudget | None = None,
    ) -> None:
        super().__init__(
            measurer.host, relays, policy=policy or measurer.policy,
            concurrency=1, budget=budget, legs=[],
        )
        if retries < 0:
            raise MeasurementError("retries must be non-negative")
        self._engine = measurer  # the caller's: its leg cache, its counters
        if rng is not None:
            pairs = self._task_lists()[1]
            self.pairs = [pairs[i] for i in rng.permutation(len(pairs))]
        self.max_failures = max_failures
        self.retries = retries
        self.retry_delay_ms = retry_delay_ms


@dataclass
class PairTimeSeries:
    """Repeated measurements of one pair over simulated time."""

    x_fingerprint: str
    y_fingerprint: str
    times_ms: list[Milliseconds] = field(default_factory=list)
    rtts_ms: list[Milliseconds] = field(default_factory=list)

    def coefficient_of_variation(self) -> float:
        """c_v = σ/μ over the series (Figure 9's metric)."""
        if len(self.rtts_ms) < 2:
            raise MeasurementError("need at least two measurements for c_v")
        values = np.asarray(self.rtts_ms)
        mean = values.mean()
        if mean == 0:
            return 0.0
        return float(values.std(ddof=0) / mean)

    def box_stats(self) -> dict[str, float]:
        """Median/quartiles/whiskers for Figure 10's box plots."""
        values = np.asarray(self.rtts_ms)
        if values.size == 0:
            raise MeasurementError("empty series")
        q1, median, q3 = np.percentile(values, [25, 50, 75])
        iqr = q3 - q1
        in_whisker = values[(values >= q1 - 1.5 * iqr) & (values <= q3 + 1.5 * iqr)]
        return {
            "median": float(median),
            "q1": float(q1),
            "q3": float(q3),
            "whisker_low": float(in_whisker.min()),
            "whisker_high": float(in_whisker.max()),
            "outliers": int(values.size - in_whisker.size),
        }


class StabilityCampaign:
    """Re-measures a pair set once per interval over a duration."""

    def __init__(
        self,
        measurer: TingMeasurer,
        pairs: list[tuple[RelayDescriptor, RelayDescriptor]],
        interval_ms: Milliseconds = 3_600_000.0,  # hourly
        rounds: int = 168,  # one week of hours
        policy: SamplePolicy | None = None,
    ) -> None:
        if not pairs:
            raise MeasurementError("need at least one pair")
        if rounds < 2:
            raise MeasurementError("need at least two rounds for stability")
        self.measurer = measurer
        self.pairs = list(pairs)
        self.interval_ms = interval_ms
        self.rounds = rounds
        self.policy = policy or measurer.policy

    def run(self) -> list[PairTimeSeries]:
        """Execute all rounds, advancing simulated time between them."""
        series = [
            PairTimeSeries(x.fingerprint, y.fingerprint) for x, y in self.pairs
        ]
        sim = self.measurer.host.sim
        epoch = sim.now
        for round_index in range(self.rounds):
            round_start = epoch + round_index * self.interval_ms
            if sim.now < round_start:
                sim.run(until=round_start)
            # Leg RTTs may drift between rounds; never reuse stale legs.
            self.measurer.invalidate_leg_cache()
            for (x, y), record in zip(self.pairs, series):
                try:
                    result = self.measurer.measure_pair(x, y, policy=self.policy)
                except MeasurementError:
                    continue  # pair temporarily unmeasurable this round
                record.times_ms.append(sim.now)
                record.rtts_ms.append(result.rtt_clamped_ms)
        return series
