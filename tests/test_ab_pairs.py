"""The summary rules of ``benchmarks/ab_pairs.py`` on synthetic pairs:
the gain rule (nine tenths of the pairs won, ties counting for neither
side, a median gap wider than A's IQR) and the no-regression verdicts
against a metric's ``bound``, the exit code a gate reads, and the
header that names what each side ran on."""

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


def _checkouts(tmp_path, monkeypatch, b_value=10.0):
    """A's ``BENCHMARK.json`` in ``tmp_path``, B's checkout in
    ``tmp_path / "b"``, and a fake ``run`` that reads ``search_s`` 10 on
    A and ``b_value`` on B, with a run record of each side's own."""
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(
        {"run_seconds": 1, "end_to_end": [LOWER]}))
    b_side = tmp_path / "b"
    b_side.mkdir()

    def run(checkout, workload, seed, seconds):
        on_b = checkout == b_side.resolve()
        return {"passes": 1, "git_commit": "b" * 40 if on_b else "a" * 40,
                "cpu_count": 4 if on_b else 2, "numpy": "2.4.6",
                "metrics": {"search_s": b_value if on_b else 10.0}}

    monkeypatch.setattr(ab_pairs, "run", run)
    return ["--a", str(tmp_path), "--b", str(b_side), "--workload", "w",
            "--seed", "1", "--pairs", "3"]


@pytest.mark.parametrize("b_value, code", [(10.0, 0), (13.0, 1)])
def test_exit_code_is_1_only_when_a_metric_reads_worse(
        tmp_path, monkeypatch, capsys, b_value, code):
    """A script or CI step can gate on the exit code: 13 s against 10 s
    is worse than the 20% bound, an equal run is ok."""
    assert ab_pairs.main(_checkouts(tmp_path, monkeypatch, b_value)) == code
    verdict = capsys.readouterr().out.splitlines()[-1].split()[-1]
    assert verdict == ("worse" if code else "ok")


def test_header_names_each_side_commit_cpu_count_and_numpy(
        tmp_path, monkeypatch, capsys):
    """An uploaded table says what ran where, from the run records."""
    assert ab_pairs.main(_checkouts(tmp_path, monkeypatch)) == 0
    lines = capsys.readouterr().out.splitlines()
    assert (f"A={tmp_path.resolve()}: git_commit {'a' * 40}, cpu_count 2, "
            "numpy 2.4.6") in lines
    assert (f"B={(tmp_path / 'b').resolve()}: git_commit {'b' * 40}, "
            "cpu_count 4, numpy 2.4.6") in lines
