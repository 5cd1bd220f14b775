"""The mutation ledger (``scripts/mutants.py``) against the tree it mutates.

A mutant whose text moved would test nothing, so its text must occur
exactly once in its file; a mutant that is no Python would fail every
test at import and read as a kill, so the file it makes must compile.
Checked here for every mutant, in seconds, not only by the ledger run.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("mutants", ROOT / "scripts" / "mutants.py")
mutants = sys.modules["mutants"] = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(mutants)
LEDGER = {mutant.id: mutant for mutant in mutants.LEDGER}


def test_the_ledger_names_15_or_more_mutants_once_each():
    assert len(LEDGER) == len(mutants.LEDGER) >= 15


@pytest.mark.parametrize("mutant", LEDGER.values(), ids=LEDGER)
def test_a_mutants_text_occurs_once_in_its_file(mutant):
    assert (ROOT / mutant.path).read_text().count(mutant.old) == 1


@pytest.mark.parametrize("mutant", LEDGER.values(), ids=LEDGER)
def test_a_mutated_file_still_compiles(mutant):
    text = (ROOT / mutant.path).read_text()
    assert mutant.new != mutant.old
    compile(text.replace(mutant.old, mutant.new), mutant.path, "exec")
