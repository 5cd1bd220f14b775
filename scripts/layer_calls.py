#!/usr/bin/env python3
"""Program calls per pair, by layer, on the benchmark's campaign shapes.

    PYTHONPATH=src python3 scripts/layer_calls.py [--seed 47]

Counts the Python frames entered in the program's own modules
(``repro.*``, dataclass-generated methods included) under
``sys.setprofile``, as ``tests/tor/test_cell_path_calls.py`` does, and
splits them by the module that owns each frame into layers: engine,
link/transport, relay, tor client, flight, crypto, draws, echo, pair
state machine, scheduler, shard, obs and the rest. Three runs, each
world built outside the count and the collector off inside it:

* ``pipeline_fullnet``'s cold and refresh runs (``bench/workloads.py``'s
  sizes and policies: 1,000 relays, the planner's 100 then 50 pairs),
  run inline on one world;
* ``allpairs_dense`` (20 relays, concurrency 16).

Prints one table: program calls per attempted pair per layer and run,
then the totals and the simulator events per pair.
"""

from __future__ import annotations

import argparse
import gc
import sys
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from bench.workloads import SPARE_RELAYS, WORKERS, AllPairsDense, PipelineFullnet  # noqa: E402
from repro.core.dataset import CampaignDataset, RttMatrix  # noqa: E402
from repro.core.parallel import ParallelCampaign  # noqa: E402
from repro.core.planner import CampaignPlanner  # noqa: E402
from repro.core.shard import ShardedCampaign  # noqa: E402
from repro.testbeds.livetor import LiveTorTestbed  # noqa: E402

#: Each layer and the module prefixes whose frames it owns.
LAYERS = (
    ("engine", ("repro.netsim.engine",)),
    ("link/transport", ("repro.netsim",)),
    ("relay", ("repro.tor.relay", "repro.tor.directory")),
    ("tor client", ("repro.tor.client", "repro.tor.control", "repro.tor.pathsel")),
    ("flight", ("repro.tor.flight",)),
    ("crypto", ("repro.tor.crypto", "repro.tor.cells")),
    ("draws", ("repro.util.rng",)),
    ("echo", ("repro.echo",)),
    ("pair state machine", ("repro.core.ting",)),
    ("scheduler", ("repro.core.parallel", "repro.core.campaign")),
    ("shard", ("repro.core.shard", "repro.util.cpus")),
    ("obs", ("repro.obs",)),
)
OTHER = "other"


def _layer(module: str) -> str | None:
    """The layer whose frames ``module``'s are (the first prefix that
    matches, so the engine is taken out of ``repro.netsim`` first)."""
    if not module.startswith("repro."):
        return None
    for name, prefixes in LAYERS:
        if any(module == p or module.startswith(p + ".") for p in prefixes):
            return name
    return OTHER


def counted(run, sim) -> tuple[Counter, object]:
    """``run()`` under the profiler: program calls per layer (and the
    simulator's events, as ``"events"``), and what it returned."""
    layers: Counter = Counter()
    owners: dict = {}

    def profile(frame, event, arg) -> None:
        if event != "call":
            return
        code = frame.f_code
        layer = owners.get(code, False)
        if layer is False:
            layer = owners[code] = _layer(frame.f_globals.get("__name__", ""))
        if layer is not None:
            layers[layer] += 1

    gc.collect()
    gc.disable()
    events = sim.events_processed
    sys.setprofile(profile)
    try:
        report = run()
    finally:
        sys.setprofile(None)
        gc.enable()
    layers["events"] = sim.events_processed - events
    return layers, report


def pipeline_runs(seed: int) -> list[tuple[str, Counter, object]]:
    """The pipeline's cold run, then its quality-steered refresh, inline."""
    size = PipelineFullnet.sizes["full"]
    world = LiveTorTestbed.build(seed=seed, n_relays=size["relays"] + SPARE_RELAYS)
    relays = world.random_relays(size["relays"], world.streams.get("bench.campaign"))
    fingerprints = [d.fingerprint for d in relays]

    def campaign(pairs, policy):
        return ShardedCampaign(
            lambda: world, fingerprints, policy=policy, workers=WORKERS, pairs=pairs,
            observe=True, force_inline=True,
        ).run

    plan = CampaignPlanner(fingerprints, seed=seed).plan(budget_pairs=size["cold"])
    cold_layers, cold = counted(campaign(plan.pairs, PipelineFullnet.cold_policy), world.sim)
    dataset = CampaignDataset(matrix=RttMatrix(fingerprints))
    dataset.absorb(cold.matrix, provenance=cold.provenance)
    replan = CampaignPlanner(
        fingerprints, dataset=dataset, seed=seed + 1, quality=dataset.quality()
    ).plan(budget_pairs=size["refresh"])
    refresh_layers, refresh = counted(
        campaign(replan.pairs, PipelineFullnet.refresh_policy), world.sim
    )
    return [("cold", cold_layers, cold), ("refresh", refresh_layers, refresh)]


def dense_run(seed: int) -> tuple[str, Counter, object]:
    """``allpairs_dense``: every pair of 20 relays, 16 at a time."""
    relays = AllPairsDense.sizes["full"]["relays"]
    world = LiveTorTestbed.build(seed=seed, n_relays=relays + SPARE_RELAYS)
    chosen = world.random_relays(relays, world.streams.get("bench.campaign"))
    layers, report = counted(ParallelCampaign(
        world.measurement, chosen, policy=AllPairsDense.policy, concurrency=16
    ).run, world.sim)
    return "dense", layers, report


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=47)
    seed = parser.parse_args(argv).seed
    runs = [*pipeline_runs(seed), dense_run(seed)]
    pairs = [report.pairs_attempted for _, _, report in runs]
    names = [name for name, _ in LAYERS] + [OTHER]
    print(f"program calls per pair, seed {seed} "
          f"(pairs: {', '.join(f'{n} {p}' for (n, _, _), p in zip(runs, pairs))})")
    print(f"{'layer':<20}" + "".join(f"{name:>12}" for name, _, _ in runs))
    for layer in names:
        print(f"{layer:<20}" + "".join(
            f"{counts[layer] / p:>12.1f}" for (_, counts, _), p in zip(runs, pairs)))
    print(f"{'total':<20}" + "".join(
        f"{sum(counts[layer] for layer in names) / p:>12.1f}"
        for (_, counts, _), p in zip(runs, pairs)))
    print(f"{'events':<20}" + "".join(
        f"{counts['events'] / p:>12.1f}" for (_, counts, _), p in zip(runs, pairs)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
