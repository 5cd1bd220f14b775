"""BENCHMARK.json, the metric catalogue and what run.py prints stay in step."""

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

from bench.metrics import END_TO_END, PER_LAYER

ROOT = Path(__file__).resolve().parents[2]
RUN = [sys.executable, str(ROOT / "bench" / "run.py"), "--smoke", "--no-history"]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

#: Counters of things that must not happen: zero on every workload is the
#: healthy reading, not a misspelt name.
ZERO_WHEN_HEALTHY = {
    "netsim.engine.heap_compactions",
    "tor.client.circuits_failed",
    "tor.client.stream_failures",
    "echo.client.probes_lost",
    "obs.health.checks_failed",
}


def _last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def manifest() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def smoke(tmp_path_factory) -> tuple[str, dict]:
    """One full ``--smoke`` invocation: every workload, untraced then traced."""
    path = tmp_path_factory.mktemp("bench") / "smoke.json"
    done = subprocess.run(
        RUN + ["--json", str(path)], capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    return done.stdout, json.loads(path.read_text())


def test_manifest_matches_catalogue(manifest):
    listed = [(m["name"], m["unit"], m["better"]) for m in manifest["end_to_end"]]
    assert listed == list(END_TO_END)
    listed = [(m["name"], m["unit"], m["better"]) for m in manifest["per_layer"]]
    assert listed == list(PER_LAYER)
    assert all(0 <= m["bound"] <= 0.25 for m in manifest["end_to_end"])
    names = [m["name"] for m in manifest["end_to_end"] + manifest["per_layer"]]
    names += [w["name"] for w in manifest["workloads"]]
    assert len(set(names)) == len(names)
    assert all(NAME.fullmatch(name) for name in names)


def test_every_metric_is_printed_by_name_for_every_workload(manifest, smoke):
    stdout, doc = smoke
    assert set(doc["workloads"]) == {w["name"] for w in manifest["workloads"]}
    for run in doc["workloads"].values():
        assert run["correct"] and run["failed"] == 0 and run["attempted"] >= 1
        for kind in ("end_to_end", "per_layer"):
            assert list(run[kind]) == [m["name"] for m in manifest[kind]]
            for metric in manifest[kind]:
                assert run[kind][metric["name"]]["unit"] == metric["unit"]
    for metric in manifest["end_to_end"] + manifest["per_layer"]:
        assert re.search(rf"^{re.escape(metric['name'])} ", stdout, re.MULTILINE)


def test_end_to_end_metrics_are_never_zero(smoke):
    for run in smoke[1]["workloads"].values():
        assert all(entry["value"] > 0 for entry in run["end_to_end"].values())


def test_every_layer_metric_is_produced_somewhere(smoke):
    runs = smoke[1]["workloads"].values()
    silent = {
        name for name, _, _ in PER_LAYER
        if all(run["per_layer"][name]["value"] == 0 for run in runs)
    }
    assert silent <= ZERO_WHEN_HEALTHY


def test_serve_workload_constructs_no_simulator(smoke):
    layer = smoke[1]["workloads"]["serve_mixed"]["per_layer"]
    assert layer["netsim.engine.events"]["value"] == 0
    assert layer["tor.relay.cells_processed"]["value"] == 0


@pytest.mark.parametrize("trace, kind", [("0", "end_to_end"), ("1", "per_layer")])
def test_driver_invocation_prints_the_contract_line(manifest, trace, kind):
    done = subprocess.run(
        RUN + ["--workload", "highacc_serial", "--seed", "7", "--seconds", "1",
               "--trace", trace],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    line = _last_json(done.stdout)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0
    assert list(line["metrics"]) == [m["name"] for m in manifest[kind]]
    assert all(set(v) == {"value", "unit"} for v in line["metrics"].values())
