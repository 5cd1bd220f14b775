#!/usr/bin/env python3
"""An operational Ting campaign: measure, cache to disk, re-check later.

Section 4.6 argues Ting's measurements are stable for at least a week,
so an all-pairs matrix can be measured once and cached. This example
runs a campaign, saves the matrix as a campaign dataset, reloads it, and verifies a
few pairs hours of simulated time later.

Run:  python examples/measurement_campaign.py
"""

import tempfile
from pathlib import Path

import numpy as np

from repro import LiveTorTestbed, SamplePolicy, TingMeasurer
from repro.core.campaign import AllPairsCampaign, StabilityCampaign
from repro.core.dataset import CampaignDataset


def main() -> None:
    testbed = LiveTorTestbed.build(seed=23, n_relays=50)
    rng = testbed.streams.get("example.selection")
    relays = testbed.random_relays(10, rng)
    measurer = TingMeasurer(
        testbed.measurement,
        policy=SamplePolicy(samples=40, interval_ms=3.0),
        cache_legs=True,
    )

    print("Running the all-pairs campaign (45 pairs) ...")
    report = AllPairsCampaign(measurer, relays, rng=rng).run()
    matrix = report.matrix
    print(f"  {report.pairs_measured} pairs measured in "
          f"{report.makespan_ms / 60000:.1f} simulated minutes")

    cache = Path(tempfile.gettempdir()) / "ting-allpairs.npz"
    CampaignDataset(matrix=matrix).save(cache)
    print(f"  matrix cached to {cache}")

    reloaded = CampaignDataset.load(cache).matrix
    assert reloaded.is_complete

    print("\nRe-measuring 3 pairs hourly to check stability ...")
    probe_pairs = [(relays[0], relays[1]), (relays[2], relays[3]), (relays[4], relays[5])]
    series = StabilityCampaign(
        measurer, probe_pairs, interval_ms=3_600_000.0, rounds=5
    ).run()

    print(f"{'pair':<24}{'cached (ms)':>12}{'median now':>12}{'c_v':>8}")
    for (a, b), record in zip(probe_pairs, series):
        cached = reloaded.get(a.fingerprint, b.fingerprint)
        print(f"{a.nickname}-{b.nickname:<12}{cached:>12.2f}"
              f"{np.median(record.rtts_ms):>12.2f}"
              f"{record.coefficient_of_variation():>8.3f}")

    print("\nLow coefficients of variation confirm the Section 4.6 result: "
          "cache and reuse.")


if __name__ == "__main__":
    main()
