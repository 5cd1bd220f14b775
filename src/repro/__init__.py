"""repro — a full reproduction of "Ting: Measuring and Exploiting
Latencies Between All Tor Nodes" (Cangialosi, Levin, Spring; IMC 2015).

The package layers as the paper's system does:

* :mod:`repro.netsim` — the Internet substrate: a deterministic
  discrete-event simulator with geographic propagation, policy routing
  (the source of triangle-inequality violations), per-network protocol
  policies, and packet/stream transport.
* :mod:`repro.tor` — a from-scratch Tor overlay: cells, onion crypto,
  directory/consensus, relays with queueing forwarding delays, an
  onion-proxy client, and a Stem-like controller.
* :mod:`repro.echo` — the TCP echo instrument Ting probes with.
* :mod:`repro.core` — Ting itself: the measurement host, the three-
  circuit procedure with min-filtering (Equation 4), the strawman
  baseline, forwarding-delay estimation, all-pairs campaigns.
* :mod:`repro.apps` — the Section 5 applications: deanonymization
  speedup, TIV hunting, long-but-quick circuits, coverage analysis.
* :mod:`repro.testbeds` — assembled worlds: the 31-relay PlanetLab
  ground-truth testbed and a live-Tor-shaped network.
* :mod:`repro.analysis` — the statistics the figures are built from.

Quickstart::

    from repro import PlanetLabTestbed, TingMeasurer, SamplePolicy

    testbed = PlanetLabTestbed.build(seed=2015, n_relays=8)
    ting = TingMeasurer(testbed.measurement, policy=SamplePolicy(samples=100))
    a, b = testbed.relay_pairs()[0]
    result = ting.measure_pair(a, b)
    print(f"R({a.nickname}, {b.nickname}) = {result.rtt_ms:.2f} ms")
"""

from repro.core import (
    AllPairsCampaign,
    ForwardingDelayEstimator,
    MeasurementHost,
    RttMatrix,
    SamplePolicy,
    StabilityCampaign,
    StrawmanMeasurer,
    TingMeasurer,
    TingResult,
)
from repro.apps import DeanonymizationSimulator, find_tivs, tiv_summary
from repro.obs import MetricsRegistry
from repro.testbeds import GeolocationDB, LiveTorTestbed, PlanetLabTestbed
from repro.util.errors import MeasurementError, ReproError

__version__ = "1.0.0"

__all__ = [
    "AllPairsCampaign",
    "DeanonymizationSimulator",
    "ForwardingDelayEstimator",
    "GeolocationDB",
    "LiveTorTestbed",
    "MeasurementHost",
    "MeasurementError",
    "MetricsRegistry",
    "PlanetLabTestbed",
    "ReproError",
    "RttMatrix",
    "SamplePolicy",
    "StabilityCampaign",
    "StrawmanMeasurer",
    "TingMeasurer",
    "TingResult",
    "find_tivs",
    "tiv_summary",
    "__version__",
]
