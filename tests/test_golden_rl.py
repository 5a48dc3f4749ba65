"""Absolute pins for the RL search methods (``tests/golden/rl.json``).

Each case re-runs a small seeded search and must reproduce the committed
best cost, assignments, counters, history hash and -- for direct agent
runs -- the final parameter bytes, exactly.  Regenerate with
``PYTHONPATH=src python tests/golden/generate_rl.py`` (it prints the
diff) only when a change is meant to move results.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "golden_rl", Path(__file__).resolve().parent / "golden" / "generate_rl.py")
golden_rl = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(golden_rl)

PINS = golden_rl.load()


def test_pinned_cases_match_the_generator():
    assert sorted(PINS) == sorted(golden_rl.case_names())


@pytest.mark.parametrize("key", golden_rl.case_names())
def test_golden(key):
    assert golden_rl.run_case(key) == PINS[key]
