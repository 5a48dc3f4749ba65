"""Trend gate: fail the bench job when perf artifacts regress.

Compares freshly generated ``BENCH_*.json`` files at the repo root
against a baseline snapshot (the committed artifacts, captured before
the benches overwrite them) and exits non-zero when any **dimensionless**
metric regresses by more than the tolerance (default 20%).

Only ratios are gated -- speedups, overheads -- never absolute
seconds: CI runners and dev machines differ wildly in clock speed, but a
"batched kernel is 11x faster than scalar" claim should survive any
host.  Higher is better for every gated metric except those listed in
``LOWER_IS_BETTER``.

Usage (mirrors the CI bench job)::

    cp BENCH_*.json /tmp/bench-baseline/       # before the benches
    PYTHONPATH=src python -m pytest benchmarks/bench_*.py ...
    python benchmarks/bench_trend_gate.py --baseline /tmp/bench-baseline

A metric missing from the baseline (first run after adding it) is
reported and skipped; a metric missing from the *fresh* artifact fails
the gate -- the recording regressed, which is exactly what this script
exists to catch.  A metric present on either side but holding a
**non-numeric sentinel** (``"no_crossover"`` where a bench found no
crossover on a host, for example) is explicitly
``skipped`` and logged, never silently ignored and never a failure:
sentinels are legitimate recordings, not missing data.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

#: (file, dotted path) -> dimensionless metric to gate.  Extend this
#: list when a bench starts recording a new ratio worth protecting.
GATED_METRICS = [
    ("BENCH_costmodel.json", "speedup"),
    ("BENCH_rl.json", "speedup_envs_8"),
    ("BENCH_service.json", "submit_overhead_x"),
]

#: Dotted paths where a larger fresh value is the regression.
LOWER_IS_BETTER = {"submit_overhead_x"}

DEFAULT_TOLERANCE = 0.20

def _lookup(document: dict, dotted: str):
    """The raw value at ``dotted`` or ``None`` when the path is absent.
    Non-numeric sentinels (``"no_crossover"``) are returned verbatim so
    the gate can log them as skipped instead of silently ignoring
    them."""
    node = document
    for key in dotted.split("."):
        if not isinstance(node, dict) or key not in node:
            return None
        node = node[key]
    return node


def _is_number(value) -> bool:
    # bool is an int subclass but is never a perf ratio.
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def check_trends(fresh_dir: pathlib.Path, baseline_dir: pathlib.Path,
                 tolerance: float = DEFAULT_TOLERANCE) -> list:
    """Return a list of (metric, baseline, fresh, verdict) rows;
    verdict is one of ``ok`` / ``REGRESSED`` / ``new-metric`` /
    ``MISSING`` / ``skipped`` (a non-numeric sentinel on either
    side -- logged, never a failure)."""
    rows = []
    cache = {}

    def load(root, name):
        key = (root, name)
        if key not in cache:
            path = root / name
            cache[key] = (json.loads(path.read_text())
                          if path.exists() else None)
        return cache[key]

    for filename, dotted in GATED_METRICS:
        label = f"{filename}:{dotted}"
        fresh_doc = load(fresh_dir, filename)
        base_doc = load(baseline_dir, filename)
        fresh = _lookup(fresh_doc, dotted) if fresh_doc else None
        base = _lookup(base_doc, dotted) if base_doc else None
        if fresh is None:
            rows.append((label, base, fresh, "MISSING"))
        elif not _is_number(fresh) or (base is not None
                                       and not _is_number(base)):
            # A sentinel recording (e.g. "no_crossover") on either side
            # means the ratio is not comparable on this host: skip it
            # explicitly rather than treating it as missing or ok.
            rows.append((label, base, fresh, "skipped"))
        elif base is None:
            rows.append((label, base, fresh, "new-metric"))
        elif dotted in LOWER_IS_BETTER:
            limit = base * (1.0 + tolerance)
            rows.append((label, base, fresh,
                         "ok" if fresh <= limit else "REGRESSED"))
        else:
            limit = base * (1.0 - tolerance)
            rows.append((label, base, fresh,
                         "ok" if fresh >= limit else "REGRESSED"))
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Gate BENCH_*.json dimensionless metrics against a "
                    "baseline snapshot.")
    parser.add_argument("--baseline", required=True, type=pathlib.Path,
                        help="directory holding the baseline BENCH_*.json "
                             "(the committed artifacts)")
    parser.add_argument("--fresh", type=pathlib.Path,
                        default=pathlib.Path(__file__).resolve().parents[1],
                        help="directory holding the fresh artifacts "
                             "(default: repo root)")
    parser.add_argument("--tolerance", type=float,
                        default=DEFAULT_TOLERANCE,
                        help="allowed fractional regression "
                             "(default: 0.20)")
    args = parser.parse_args(argv)

    rows = check_trends(args.fresh, args.baseline, args.tolerance)
    width = max(len(label) for label, *_ in rows)
    failed = False
    def fmt(value) -> str:
        if value is None:
            return "-"
        return f"{value:.3f}" if _is_number(value) else str(value)

    for label, base, fresh, verdict in rows:
        base_s = fmt(base)
        fresh_s = fmt(fresh)
        print(f"{label:<{width}}  baseline={base_s:>8}  "
              f"fresh={fresh_s:>8}  {verdict}")
        failed |= verdict in ("REGRESSED", "MISSING")
    if failed:
        print(f"\ntrend gate FAILED (tolerance "
              f"{args.tolerance:.0%}) -- a gated metric regressed or "
              f"went missing", file=sys.stderr)
        return 1
    print(f"\ntrend gate passed (tolerance {args.tolerance:.0%})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
