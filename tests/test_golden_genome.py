"""Absolute pins for the genome-space search methods
(``tests/golden/genome.json``).

Each case re-runs a small seeded search and must reproduce the committed
best cost, genome, assignments, counters and history hash exactly.
Regenerate with ``PYTHONPATH=src python tests/golden/generate_genome.py``
(it prints the diff) only when a change is meant to move results.
"""

from __future__ import annotations

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.search import method_names

_SPEC = importlib.util.spec_from_file_location(
    "golden_genome",
    Path(__file__).resolve().parent / "golden" / "generate_genome.py")
golden_genome = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(golden_genome)

PINS = golden_genome.load()


def test_pinned_cases_match_the_generator():
    assert sorted(PINS) == sorted(golden_genome.case_names())


def test_every_genome_method_is_pinned():
    assert sorted(golden_genome.BUDGETS) == sorted(method_names("genome"))


@pytest.mark.parametrize("key", golden_genome.case_names())
def test_golden(key):
    assert golden_genome.run_case(key) == PINS[key]


#: Runs one pinned case with scipy unimportable (``None`` in
#: ``sys.modules`` makes every ``import scipy...`` raise ImportError) and
#: prints its pins as JSON.
WITHOUT_SCIPY = """
import importlib.util, json, sys
sys.modules["scipy"] = None
import repro
spec = importlib.util.spec_from_file_location("golden_genome", sys.argv[1])
golden_genome = importlib.util.module_from_spec(spec)
spec.loader.exec_module(golden_genome)
print(json.dumps(golden_genome.run_case(sys.argv[2])))
"""


def test_bayesian_runs_without_scipy():
    """The GP solve and expected improvement need numpy alone."""
    key = "slice8/bayesian/seed0"
    env = dict(os.environ, PYTHONPATH=str(Path(repro.__file__).parents[1]))
    completed = subprocess.run(
        [sys.executable, "-c", WITHOUT_SCIPY, _SPEC.origin, key],
        capture_output=True, text=True, env=env, timeout=300)
    assert completed.returncode == 0, completed.stderr
    assert json.loads(completed.stdout.splitlines()[-1]) == PINS[key]
