#!/usr/bin/env python3
"""The mutation ledger: one-line mutants that the tests must kill.

    python3 scripts/mutants.py TREE [ID ...]

TREE is a directory, copied (without ``.git`` and caches), or a git
revision, exported with ``git archive`` (the committed files only).
Each mutant of :data:`LEDGER` (or only the ``ID``s given) is applied to
that copy, one at a time, and never to TREE itself. The copy's own
tests then run once unmutated, which must pass, and once per mutant:

    python -m pytest -x -q -p mutants tests/contract tests/core/test_shard*.py
        tests/obs/test_health.py

``-p mutants`` loads this file as a pytest plugin. Its
:func:`pytest_configure` loads a Hypothesis profile that finds a
falsifying example but does not shrink it (``phases=[explicit,
generate]``, ``database=None``): shrinking is for reading a failure, not
for finding one, and a shrinking differential can spend minutes on one
mutant. No test is edited. No bytecode is written, so a mutant that
keeps its file's size and mtime cannot run from a stale ``.pyc``.

Printed per mutant: its verdict (``killed``, ``SURVIVED``, ``TIMEOUT``
past :data:`CAP_S`, ``STALE`` when its text does not occur exactly once
in its file, ``ERROR`` when the run neither passed nor named a failing
test), the seconds it took and the first test that failed; then the
totals. Exit status 1 on anything but ``killed``: a mutant whose text
moved must be restated, not skipped. ``tests/test_mutants.py`` checks in
tier-1 that each mutant's text occurs once and that the file it makes
compiles (a SyntaxError would fail every test and read as a kill).
"""

from __future__ import annotations

import os
import re
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

#: Wall seconds one mutant's test run may take.
CAP_S = 300.0

#: What runs against each mutant, in this order (globs, in the tree).
TESTS = ("tests/contract", "tests/core/test_shard*.py", "tests/obs/test_health.py")


@dataclass(frozen=True)
class Mutant:
    """Replace ``old`` (which must occur exactly once) by ``new`` in ``path``."""

    id: str
    path: str
    old: str
    new: str


LEDGER = (
    # ROADMAP item 3's table: its live mutants.
    Mutant("eq4_leg_y", "src/repro/core/ting.py",
           "leg_y.estimate_ms / 2.0", "leg_y.estimate_ms / 2.1"),
    Mutant("min_takes_last", "src/repro/core/sampling.py",
           "return float(arr.min())", "return float(arr[-1])"),
    Mutant("teardown_keeps_wiring", "src/repro/tor/relay.py",
           "        self.fabric._wiring += 1\n", ""),
    Mutant("rekey_buffer_pos_0", "src/repro/util/rng.py",
           "source._pos.value = 4", "source._pos.value = 0"),
    Mutant("merge_probes_twice", "src/repro/core/shard.py",
           "report.probes_sent += result.probes_sent",
           "report.probes_sent += result.probes_sent * (2 if result.shard_index == 0 else 1)"),
    Mutant("take_back_no_give_back", "src/repro/tor/flight.py",
           "untouched = self.give_back()", "untouched = True"),
    # Item 3(a).
    Mutant("refused_flight_keeps_draws", "src/repro/tor/flight.py",
           "        self.give_back()\n        return False", "        return False"),
    Mutant("result_left_unpickled", "src/repro/util/cpus.py",
           'send(("result", index, work(job, next_task, send)))',
           'channel.put(("result", index, work(job, next_task, send)))'),
    # What the deleted worker-count copies guarded.
    Mutant("leg_cache_worker_order", "src/repro/core/shard.py",
           "leg_estimates = {fp: measured[fp] for fp in order if fp in measured}",
           "leg_estimates = dict(measured)"),
    Mutant("absorb_unsorted", "src/repro/core/shard.py",
           'for payload in sorted(mine, key=lambda p: p["chunk"]):',
           "for payload in mine:"),
    Mutant("rebuilt_leg_silent", "src/repro/core/shard.py",
           "                if chunk.legs_measured:", "                if False:"),
    Mutant("bus_not_cleared", "src/repro/core/shard.py",
           "        host.events.clear()", "        pass"),
    Mutant("leg_rows_retagged", "src/repro/core/dataset.py",
           '(self._legs, dict(snap["legs"]), leg_shard),',
           '(self._legs, dict(snap["legs"]), shard),'),
    Mutant("progress_adds", "src/repro/obs/events.py",
           "self._workers[shard, worker] = {**_IDLE, **totals}",
           "self._workers[shard, worker] = {**_IDLE, **{k: v if k == 'in_flight' else "
           "v + self._workers.get((shard, worker), _IDLE)[k] for k, v in totals.items()}}"),
    Mutant("legs_total_replaced", "src/repro/core/shard.py",
           "report.legs_measured += result.legs_measured",
           "report.legs_measured = result.legs_measured"),
    Mutant("leg_chunks_max", "src/repro/core/shard.py",
           "chunks=sum(r.chunks for r in results),",
           "chunks=max(r.chunks for r in results),"),
    Mutant("hits_uncounted", "src/repro/core/ting.py",
           'host.metrics.inc("ting.leg_cache_hits" if hit else "ting.leg_cache_misses")',
           'host.metrics.inc("ting.leg_cache_misses") if not hit else None'),
    Mutant("isolations_uncounted", "src/repro/core/parallel.py",
           '                self.host.metrics.inc("campaign.task_isolations")\n', ""),
    Mutant("claims_replaced", "src/repro/core/shard.py",
           "telemetry.pairs_total += len(items)", "telemetry.pairs_total = len(items)"),
)


def pytest_configure(config) -> None:
    """Find a falsifying example, do not shrink it (``-p mutants``)."""
    from hypothesis import Phase, settings

    settings.register_profile(
        "mutants", phases=[Phase.explicit, Phase.generate], database=None
    )
    settings.load_profile("mutants")


def export(spec: str, target: Path) -> None:
    """Directory ``spec`` copied to ``target``, or revision ``spec`` exported."""
    if Path(spec).is_dir():
        shutil.copytree(spec, target, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".pytest_cache", ".hypothesis", ".benchmarks"))
        return
    target.mkdir()
    archive = subprocess.run(
        ["git", "-C", str(REPO), "archive", spec], check=True, capture_output=True
    ).stdout
    subprocess.run(["tar", "-x", "-C", str(target)], input=archive, check=True)


def run_tests(root: Path) -> tuple[str, float, str]:
    """The tests of ``root`` under the no-shrink profile: a verdict
    (``passed``, ``failed``, ``timeout``, ``error``), seconds and the
    first failing test (else the output's last line)."""
    tests = [str(p.relative_to(root)) for pattern in TESTS for p in sorted(root.glob(pattern))]
    env = dict(os.environ, PYTHONPATH=f"src{os.pathsep}{Path(__file__).resolve().parent}",
               PYTHONDONTWRITEBYTECODE="1")
    command = [sys.executable, "-m", "pytest", "-x", "-q", "-rfE", "-p", "mutants",
               "-p", "no:cacheprovider", *tests]
    started = time.monotonic()
    process = subprocess.Popen(command, cwd=root, env=env, stdout=subprocess.PIPE,
                               stderr=subprocess.STDOUT, text=True, start_new_session=True)
    try:
        out, _ = process.communicate(timeout=CAP_S)
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)  # forked workers too
        process.communicate()
        return "timeout", time.monotonic() - started, ""
    seconds = time.monotonic() - started
    first = re.search(r"^(?:FAILED|ERROR) (\S+)", out, re.MULTILINE)
    if process.returncode == 0:
        return "passed", seconds, ""
    if process.returncode in (1, 2) and first:
        return "failed", seconds, first.group(1)
    return "error", seconds, out.strip().splitlines()[-1] if out.strip() else ""


def main(argv: list[str]) -> int:
    if not argv or argv[0].startswith("-"):
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    spec, ids = argv[0], argv[1:]
    known = {mutant.id for mutant in LEDGER}
    if set(ids) - known:
        print(f"unknown mutant(s): {sorted(set(ids) - known)}", file=sys.stderr)
        return 2
    chosen = [mutant for mutant in LEDGER if not ids or mutant.id in ids]
    with tempfile.TemporaryDirectory(prefix="mutants-") as scratch:
        root = Path(scratch) / "tree"
        export(spec, root)
        verdict, seconds, detail = run_tests(root)
        print(f"{'(unmutated)':<28} {verdict:<9} {seconds:6.1f} s  {detail}", flush=True)
        if verdict != "passed":
            print("the unmutated tests must pass first", file=sys.stderr)
            return 1
        tally: dict[str, int] = {}
        total = 0.0
        for mutant in chosen:
            path = root / mutant.path
            text = path.read_text() if path.exists() else ""
            if text.count(mutant.old) != 1:
                verdict, seconds, detail = "STALE", 0.0, (
                    f"{mutant.path}: text occurs {text.count(mutant.old)} times")
            else:
                path.write_text(text.replace(mutant.old, mutant.new))
                try:
                    verdict, seconds, detail = run_tests(root)
                finally:
                    path.write_text(text)
                verdict = {"failed": "killed", "passed": "SURVIVED",
                           "timeout": "TIMEOUT", "error": "ERROR"}[verdict]
            tally[verdict] = tally.get(verdict, 0) + 1
            total += seconds
            print(f"{mutant.id:<28} {verdict:<9} {seconds:6.1f} s  {detail}", flush=True)
    counts = ", ".join(f"{n} {v.lower()}" for v, n in sorted(tally.items()))
    print(f"{len(chosen)} mutants: {counts}; {total:.0f} s")
    return 0 if set(tally) <= {"killed"} else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
