"""The summary rules of ``benchmarks/ab_pairs.py`` on synthetic pairs:
the gain rule (nine tenths of the pairs won, ties counting for neither
side, a median gap wider than A's IQR) and the no-regression verdicts
against a metric's ``bound``, and the exit code a gate reads."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "ab_pairs",
    Path(__file__).resolve().parent.parent / "benchmarks" / "ab_pairs.py")
ab_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(ab_pairs)

LOWER = {"name": "search_s", "better": "lower", "bound": 0.2}
HIGHER = {"name": "jobs_per_s", "better": "higher", "bound": 0.2}


def _row(a, b, entry=LOWER):
    pairs = [{"a": {"metrics": {entry["name"]: x}},
              "b": {"metrics": {entry["name"]: y}}} for x, y in zip(a, b)]
    (row,) = ab_pairs.summarize(pairs, [entry])
    return row


def test_nine_of_ten_wins_with_a_wide_gap_is_a_gain():
    a = [10.0, 10.1, 10.2, 10.0, 10.1, 10.2, 10.0, 10.1, 10.2, 10.1]
    b = [8.0] * 9 + [10.5]
    row = _row(a, b)
    assert (row["wins"], row["losses"], row["ties"]) == (9, 1, 0)
    assert row["gain"]
    assert row["bound"] == 0.2


def test_eight_of_ten_wins_is_not_a_gain():
    a = [10.0] * 10
    b = [8.0] * 8 + [10.5] * 2
    row = _row(a, b)
    assert (row["wins"], row["losses"]) == (8, 2)
    assert not row["gain"]


def test_ties_count_for_neither_side():
    a = [10.0] * 10
    row = _row(a, [8.0] * 9 + [10.0])
    assert (row["wins"], row["losses"], row["ties"]) == (9, 0, 1)
    assert row["gain"]
    row = _row(a, [8.0] * 8 + [10.0] * 2)
    assert (row["wins"], row["losses"], row["ties"]) == (8, 0, 2)
    assert not row["gain"]


def test_gain_needs_a_median_gap_wider_than_a_iqr():
    a = [9.0, 11.0] * 5           # median 10, IQR 2
    b = [x - 1.0 for x in a]      # wins every pair, gap 1
    row = _row(a, b)
    assert row["wins"] == 10
    assert row["a_iqr"] == 2.0
    assert not row["gain"]
    row = _row(a, [x - 3.0 for x in a])
    assert row["gain"]


def test_higher_is_better_direction():
    a = [3.0] * 10
    row = _row(a, [3.5] * 10, HIGHER)
    assert row["wins"] == 10 and row["gain"]
    assert row["verdict"] == "ok"


def test_worse_beyond_the_bound():
    row = _row([10.0] * 6, [12.5] * 6)
    assert row["verdict"] == "worse"
    row = _row([3.0] * 6, [2.3] * 6, HIGHER)
    assert row["verdict"] == "worse"


def test_worse_within_the_bound_is_ok_when_a_is_tight():
    row = _row([10.0, 10.1] * 3, [11.5] * 6)
    assert row["losses"] == 6
    assert row["verdict"] == "ok"


def test_spread_wider_than_the_bound_is_unresolved():
    a = [6.0, 14.0] * 3           # median 10, IQR 8 > 0.2 * 10
    row = _row(a, [10.5] * 6)
    assert row["verdict"] == "unresolved"


def test_wide_spread_is_ok_when_every_b_run_beats_every_a_run():
    a = [6.0, 14.0] * 3
    row = _row(a, [5.0, 5.5] * 3)
    assert row["verdict"] == "ok"


@pytest.mark.parametrize("b_value, code", [(10.0, 0), (13.0, 1)])
def test_exit_code_is_1_only_when_a_metric_reads_worse(
        tmp_path, monkeypatch, capsys, b_value, code):
    """A script or CI step can gate on the exit code: 13 s against 10 s
    is worse than the 20% bound, an equal run is ok."""
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(
        {"run_seconds": 1, "end_to_end": [LOWER]}))
    b_side = tmp_path / "b"
    b_side.mkdir()

    def run(checkout, workload, seed, seconds):
        value = b_value if checkout == b_side.resolve() else 10.0
        return {"passes": 1, "metrics": {"search_s": value}}

    monkeypatch.setattr(ab_pairs, "run", run)
    assert ab_pairs.main(["--a", str(tmp_path), "--b", str(b_side),
                          "--workload", "w", "--seed", "1",
                          "--pairs", "3"]) == code
    verdict = capsys.readouterr().out.splitlines()[-1].split()[-1]
    assert verdict == ("worse" if code else "ok")
