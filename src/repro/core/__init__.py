"""Ting itself: the paper's primary contribution.

* :class:`MeasurementHost` — the paper's deployment: echo client ``s``,
  echo server ``d``, and two local Tor relays ``w`` and ``z``, all on one
  host ``h``.
* :class:`TingMeasurer` — builds circuits ``(w,x,y,z)``, ``(w,x,z)`` and
  ``(w,y,z)``, probes each through the echo service, applies the minimum
  filter and Equation (4) to estimate R(x, y).
* :class:`StrawmanMeasurer` — the Section 3.2 strawman (Tor circuit plus
  ICMP pings) that Ting supersedes; kept as an evaluated baseline.
* :class:`ForwardingDelayEstimator` — the Section 4.3 per-relay
  forwarding-delay estimation procedure.
* :class:`RttMatrix` / :class:`ParallelCampaign` — all-pairs datasets and
  the one campaign scheduler that produces them (:class:`AllPairsCampaign`
  is its serial task order; plus stability re-measurement over simulated
  days).
"""

from repro.core.measurement_host import MeasurementHost
from repro.core.sampling import (
    AdaptiveSpec,
    ConvergenceTracker,
    SamplePolicy,
    debiased_min_estimate,
    min_estimate,
    convergence_profile,
    samples_to_within,
)
from repro.core.campaign import ProbeBudget
from repro.core.ting import TingMeasurer, TingResult
from repro.core.strawman import StrawmanMeasurer, StrawmanResult
from repro.core.fwd_delay import ForwardingDelayEstimator, ForwardingDelayReport
from repro.core.dataset import RttMatrix
from repro.core.campaign import AllPairsCampaign, StabilityCampaign
from repro.core.parallel import CampaignReport, ParallelCampaign

__all__ = [
    "MeasurementHost",
    "AdaptiveSpec",
    "ConvergenceTracker",
    "ProbeBudget",
    "SamplePolicy",
    "debiased_min_estimate",
    "min_estimate",
    "convergence_profile",
    "samples_to_within",
    "TingMeasurer",
    "TingResult",
    "StrawmanMeasurer",
    "StrawmanResult",
    "ForwardingDelayEstimator",
    "ForwardingDelayReport",
    "RttMatrix",
    "AllPairsCampaign",
    "StabilityCampaign",
    "ParallelCampaign",
    "CampaignReport",
]
