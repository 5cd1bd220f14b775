"""Shared benchmark infrastructure.

Every bench regenerates one of the paper's tables or figures and prints
a paper-vs-measured report. Scale is controlled by the ``REPRO_SCALE``
environment variable (default 1.0): the defaults are sized so the whole
suite finishes in tens of minutes on a laptop; set ``REPRO_SCALE=3`` (or
more) to approach the paper's full sample counts.

Expensive artifacts — the PlanetLab validation sweep and the live-network
all-pairs matrix — are built once per session and shared by the benches
that consume them, mirroring how the paper reuses its datasets across
sections.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pytest

from _config import scaled
from repro.core import shard
from repro.core.campaign import AllPairsCampaign
from repro.core.dataset import RttMatrix
from repro.core.sampling import SamplePolicy
from repro.core.ting import TingMeasurer
from repro.testbeds.livetor import LiveTorTestbed
from repro.testbeds.planetlab import PlanetLabTestbed


@pytest.fixture(autouse=True)
def no_kept_world(monkeypatch):
    """Each bench starts, and leaves, with no world kept by a forked
    ``ShardedCampaign.run`` (``repro.core.shard._kept``), so that a
    bench's builds and ``build_s`` do not depend on the benches before it."""
    monkeypatch.setattr(shard, "_kept", None)


@pytest.fixture
def report(capsys):
    """Print a figure/table report straight to the terminal."""

    def _report(text: str) -> None:
        with capsys.disabled():
            print("\n" + text + "\n")

    return _report


# ----------------------------------------------------------------------
# Shared expensive datasets


@dataclass
class ValidationSweep:
    """Ting vs ground truth over all testbed pairs (Figures 3, 4, 7)."""

    testbed: PlanetLabTestbed
    estimates: np.ndarray  # Ting estimates (paper's sample count tier)
    estimates_small: np.ndarray  # same pairs at the reduced tier
    pings: np.ndarray
    oracles: np.ndarray


@pytest.fixture(scope="session")
def validation_sweep() -> ValidationSweep:
    """The Figure 3/4/7 dataset: every pair measured at two sample tiers.

    Paper tiers are 1000 and 200 samples; the scaled defaults are 200 and
    50, which Section 4.4 shows are within the same accuracy envelope.
    """
    testbed = PlanetLabTestbed.build(seed=2015, n_relays=scaled(14, minimum=6))
    big = SamplePolicy(samples=scaled(200, minimum=50), interval_ms=3.0)
    small = SamplePolicy(samples=scaled(50, minimum=15), interval_ms=3.0)
    measurer = TingMeasurer(testbed.measurement)
    estimates, estimates_small, pings, oracles = [], [], [], []
    for a, b in testbed.relay_pairs():
        estimates.append(measurer.measure_pair(a, b, policy=big).rtt_ms)
        estimates_small.append(measurer.measure_pair(a, b, policy=small).rtt_ms)
        pings.append(testbed.ping_ground_truth(a, b, count=100))
        oracles.append(testbed.oracle_rtt(a, b))
    return ValidationSweep(
        testbed=testbed,
        estimates=np.array(estimates),
        estimates_small=np.array(estimates_small),
        pings=np.array(pings),
        oracles=np.array(oracles),
    )


@dataclass
class AllPairsDataset:
    """The Section 5 dataset: an all-pairs Ting matrix over live relays."""

    testbed: LiveTorTestbed
    matrix: RttMatrix
    bandwidths: np.ndarray


@pytest.fixture(scope="session")
def allpairs_dataset() -> AllPairsDataset:
    """The 50-node all-pairs matrix (Figure 11) feeding Figures 12-17.

    Paper: 50 random live relays, all 1225 pairs. Scaled default: 26
    relays (325 pairs) at 60 samples; REPRO_SCALE=2 reaches the paper's
    50 nodes.
    """
    n_nodes = scaled(26, minimum=12)
    testbed = LiveTorTestbed.build(seed=501, n_relays=max(n_nodes + 10, 60))
    rng = testbed.streams.get("allpairs.selection")
    relays = testbed.random_relays(n_nodes, rng)
    measurer = TingMeasurer(
        testbed.measurement,
        policy=SamplePolicy(samples=scaled(60, minimum=20), interval_ms=3.0),
        cache_legs=True,
    )
    campaign = AllPairsCampaign(measurer, relays, rng=rng)
    report = campaign.run()
    assert report.matrix.is_complete, "all-pairs campaign left holes"
    bandwidths = np.array([r.bandwidth_kbps for r in relays], dtype=float)
    return AllPairsDataset(
        testbed=testbed, matrix=report.matrix, bandwidths=bandwidths
    )
