"""The paper scorecard (``benchmarks/scorecard.py``) on shrunken cells.

Every claim runs at two seeds on a few layers and a few epochs, twice:
each must print a table and verdicts, and the two documents must be
byte-identical.  The committed ``SCORECARD.json`` must hold exactly the
card's claims and verdicts, and DESIGN.md's substitutions must list
exactly the verdicts that cite them.
"""

from __future__ import annotations

import dataclasses
import importlib.util
import math
import re
import sys
from pathlib import Path

import pytest

from repro.costmodel import CostModel

ROOT = Path(__file__).resolve().parent.parent


def _load_card():
    spec = importlib.util.spec_from_file_location(
        "scorecard", ROOT / "benchmarks" / "scorecard.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


card = _load_card()

CLAIMS = {claim.name: claim for claim in card.CLAIMS}


def _first(name, count):
    return CLAIMS[name].rows[:count]


#: claim -> the cells tier-1 runs: one or two rows, 4-layer slices and a
#: few epochs.  Table IV keeps an IoT row and Table IX a cloud row, so
#: every verdict has cells to judge.
SMALL = {
    "table3": dict(rows=_first("table3", 1), layer_slice=4, budget=8),
    "table4": dict(rows=(("latency", "area", "iot"),), layer_slice=4,
                   budget=8),
    "table5": dict(rows=_first("table5", 2), layer_slice=4, budget=6),
    "table6": dict(rows=_first("table6", 2), layer_slice=4, budget=6),
    "table7": dict(rows=_first("table7", 1), layer_slice=4, budget=8,
                   finetune=2),
    "table8": dict(rows=_first("table8", 1), layer_slice=4, budget=8,
                   finetune=2),
    "table9": dict(rows=(("cloud", 10), ("iot", 12)), layer_slice=4,
                   budget=6),
    "fig4": dict(rows=_first("fig4", 1)),
    "fig5": dict(layer_slice=4),
    "fig6": dict(rows=(100,), layer_slice=4, budget=3),
    "fig7": dict(layer_slice=4, budget=8),
    "fig8": dict(layer_slice=4, budget=6),
    "fig9": dict(layer_slice=4, budget=8, finetune=2),
    "fig10": dict(layer_slice=4, budget=8, finetune=2),
    "ablation-local-ga": dict(rows=_first("ablation-local-ga", 2),
                              layer_slice=4, budget=8, finetune=2),
    "ablation-reward": dict(rows=_first("ablation-reward", 2),
                            layer_slice=4, budget=6),
}


def _small_claims():
    return [dataclasses.replace(claim, **SMALL[claim.name])
            for claim in card.CLAIMS]


@pytest.fixture(scope="module")
def two_runs():
    cost_model = CostModel()
    runs = []
    for _ in range(2):
        printed = []
        document = card.run_card(_small_claims(), seeds=(0, 1),
                                 cost_model=cost_model, out=printed.append)
        runs.append((document, "\n".join(printed)))
    return runs


def test_every_claim_has_small_cells():
    assert set(SMALL) == set(CLAIMS)


def test_each_claim_prints_a_table_and_its_verdicts(two_runs):
    document, printed = two_runs[0]
    assert set(document["claims"]) == set(CLAIMS)
    for claim in _small_claims():
        entry = document["claims"][claim.name]
        assert set(entry["verdicts"]) == {v.name for v in claim.verdicts}
        assert list(entry["results"]) == (["0", "1"] if claim.seeded
                                          else ["0"])
        text = card.describe(claim, entry)
        assert text in printed
        assert len(text.splitlines()) > len(claim.verdicts)
        for verdict in entry["verdicts"].values():
            assert verdict["held"] + len(verdict["failing"]) \
                == verdict["seeds"]
            assert verdict["pass"] == (not verdict["failing"])


def test_two_runs_write_identical_documents(two_runs):
    (first, _), (second, _) = two_runs
    assert card.render(first) == card.render(second)


def test_committed_card_holds_exactly_the_claims():
    stored = card.load()
    assert stored["seeds"] == list(card.SEEDS)
    assert set(stored["claims"]) == {claim.name for claim in card.CLAIMS}
    for claim in card.CLAIMS:
        entry = stored["claims"][claim.name]
        assert set(entry["verdicts"]) == {v.name for v in claim.verdicts}
        assert entry["cells"]["budget"] == claim.budget
        assert entry["cells"]["layer_slice"] == claim.layer_slice
        for verdict in claim.verdicts:
            assert entry["verdicts"][verdict.name]["substitutions"] \
                == list(verdict.substitutions)


def test_design_substitutions_list_the_verdicts_citing_them():
    """Each substitution of DESIGN.md ends with the card's verdicts that
    rest on it, and every verdict citing it is listed there."""
    design = (ROOT / "DESIGN.md").read_text()
    sections = re.split(r"^### (\d)\. ", design, flags=re.MULTILINE)[1:]
    listed = {}
    for number, body in zip(sections[::2], sections[1::2]):
        line = body.split("**Scorecard verdicts**", 1)[1].split("):", 1)[1]
        listed[int(number)] = set(
            re.findall(r"`([\w.-]+/[\w.-]+)`", line.split("\n\n", 1)[0]))
    cited = {number: set() for number in listed}
    for claim in card.CLAIMS:
        for verdict in claim.verdicts:
            for number in verdict.substitutions:
                cited[number].add(f"{claim.name}/{verdict.name}")
    assert listed == cited


def test_diff_reports_a_one_ulp_change():
    stored = card.load()
    changed = card.load()
    row = changed["claims"]["fig4"]["results"]["0"]["layer12_conv"]
    before = row["latency min"]
    row["latency min"] = math.nextafter(before, math.inf)
    assert card.diff(stored, changed) == [
        f"~ claims/fig4/results/0/layer12_conv/latency min: {before!r} -> "
        f"{row['latency min']!r}"]
