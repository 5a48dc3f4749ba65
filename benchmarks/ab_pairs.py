"""Alternating A/B pairs of the end-to-end benchmark on two checkouts.

    git worktree add ../parent HEAD~1
    python3 benchmarks/ab_pairs.py --a ../parent --b . \\
        --workload baselines-mbv2-cloud --seed 7301 --pairs 10

Pair ``i`` runs ``e2ebench/run.py --workload W --seed SEED+i --seconds S
--trace 0`` in checkout A and in checkout B, one after the other (never
side by side: both pin themselves to the same CPU), with A first on even
pairs and B first on odd ones.  ``S`` is ``run_seconds`` from A's
``BENCHMARK.json``, so both sides run as long as the benchmark does.
Each pair prints as one JSON line (every run's metrics, pass count,
``git_commit``, ``cpu_count`` and numpy version) when it finishes.  The
summary's header names each side's checkout with the ``git_commit``,
``cpu_count`` and numpy version of its first run.  The summary then
gives, for every end-to-end metric, each side's median and
interquartile range, B's wins, losses and ties (by the
metric's ``better`` direction in A's ``BENCHMARK.json``), and whether B
clears the gain rule: at least nine tenths of the pairs won, ties counting
for neither side, and a median gap wider than A's IQR.  It also gives the
metric's ``bound`` from that file and the no-regression verdict: ``worse``
when B's median is worse than A's by more than ``bound`` times A's
median; else ``unresolved`` when A's IQR exceeds that margin and not
every B run beats every A run; else ``ok``.  The script exits 1 when any
metric reads ``worse`` and 0 otherwise.  A failed run stops the script
with its stderr.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

#: Run-record fields that say what ran and where.
PROVENANCE = ("git_commit", "cpu_count", "numpy")


def run(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced benchmark run: its metrics, pass count and
    :data:`PROVENANCE`."""
    command = [sys.executable, "e2ebench/run.py", "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds),
               "--trace", "0"]
    done = subprocess.run(command, cwd=checkout, capture_output=True,
                          text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or len(lines) < 2:
        raise SystemExit(f"{checkout}: {' '.join(command)} exited "
                         f"{done.returncode}\n{done.stderr}")
    record = json.loads(lines[-2])["run_record"]
    result = json.loads(lines[-1])
    if result["failed"]:
        raise SystemExit(f"{checkout}: seed {seed} failed: "
                         f"{record['problems']}")
    return {"passes": record["passes"],
            **{key: record[key] for key in PROVENANCE},
            "metrics": {name: entry["value"]
                        for name, entry in result["metrics"].items()}}


def quartiles(values: list) -> tuple:
    """(first quartile, median, third quartile)."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    low, median, high = statistics.quantiles(values, n=4,
                                             method="inclusive")
    return low, median, high


def summarize(pairs: list, end_to_end: list) -> list:
    """One summary row per end-to-end metric of ``BENCHMARK.json``."""
    rows = []
    for entry in end_to_end:
        name, bound = entry["name"], entry["bound"]
        a = [pair["a"]["metrics"][name] for pair in pairs]
        b = [pair["b"]["metrics"][name] for pair in pairs]
        sign = 1 if entry["better"] == "lower" else -1
        wins = sum(sign * (x - y) > 0 for x, y in zip(a, b))
        losses = sum(sign * (x - y) < 0 for x, y in zip(a, b))
        a_low, a_median, a_high = quartiles(a)
        b_low, b_median, b_high = quartiles(b)
        gap = sign * (a_median - b_median)
        margin = bound * abs(a_median)
        every_b_beats_every_a = all(sign * (x - y) > 0
                                    for x in a for y in b)
        if -gap > margin:
            verdict = "worse"
        elif a_high - a_low > margin and not every_b_beats_every_a:
            verdict = "unresolved"
        else:
            verdict = "ok"
        rows.append({
            "metric": name, "bound": bound,
            "a_median": a_median, "a_iqr": a_high - a_low,
            "b_median": b_median, "b_iqr": b_high - b_low,
            "wins": wins, "losses": losses,
            "ties": len(pairs) - wins - losses,
            "gain": wins * 10 >= 9 * len(pairs) and gap > a_high - a_low,
            "verdict": verdict,
        })
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--a", type=Path, required=True,
                        help="baseline checkout (the parent)")
    parser.add_argument("--b", type=Path, required=True,
                        help="checkout under test (the change)")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True,
                        help="seed of the first pair; pair i runs seed+i")
    parser.add_argument("--pairs", type=int, required=True)
    args = parser.parse_args(argv)

    benchmark = json.loads((args.a / "BENCHMARK.json").read_text())
    seconds = benchmark["run_seconds"]
    sides = {"a": args.a.resolve(), "b": args.b.resolve()}
    pairs = []
    for index in range(args.pairs):
        seed = args.seed + index
        order = ("a", "b") if index % 2 == 0 else ("b", "a")
        pair = {"seed": seed, "first": order[0]}
        for side in order:
            pair[side] = run(sides[side], args.workload, seed, seconds)
        pairs.append(pair)
        print(json.dumps(pair), flush=True)

    rows = summarize(pairs, benchmark["end_to_end"])
    print(f"\n{args.workload}: {len(pairs)} pairs, seeds {args.seed}.."
          f"{args.seed + len(pairs) - 1}, {seconds:g} s runs")
    for side in ("a", "b"):
        print(f"{side.upper()}={sides[side]}: " + ", ".join(
            f"{key} {pairs[0][side][key]}" for key in PROVENANCE))
    print("passes per run: A " + " ".join(
        str(pair["a"]["passes"]) for pair in pairs) + " | B " + " ".join(
        str(pair["b"]["passes"]) for pair in pairs))
    print(f"{'metric':<22}{'A median':>12}{'A IQR':>10}{'B median':>12}"
          f"{'B IQR':>10}  B wins/losses/ties  gain  bound  verdict")
    for row in rows:
        print(f"{row['metric']:<22}{row['a_median']:>12.4g}"
              f"{row['a_iqr']:>10.3g}{row['b_median']:>12.4g}"
              f"{row['b_iqr']:>10.3g}  {row['wins']:>6}/{row['losses']}/"
              f"{row['ties']:<10}{'yes' if row['gain'] else 'no':<6}"
              f"{row['bound']:<7g}{row['verdict']}")
    return 1 if any(row["verdict"] == "worse" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
