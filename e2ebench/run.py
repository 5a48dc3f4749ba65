"""Run one benchmark workload and print its metrics as JSON.

    python3 e2ebench/run.py --workload confuciux-mbv2-iot --seed 1 \\
        --seconds 15 --trace 0

Run from a checkout of the repository: the program is imported from its
``src/``.  With ``--trace 0`` the last line of stdout carries every
end-to-end metric; with ``--trace 1`` one untraced and one traced pass
run and it carries every per-layer metric instead.  The line before it
is the run record (machine, versions, budgets, raw timings, failures).
Exits 2 when the program is missing.

The process pins itself to one CPU, and every host time it reports is
rescaled to reference speed by :class:`speed.SpeedProbe` sampling that
CPU during the interval (see ``speed.py`` for why).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

from metrics import END_TO_END, per_layer  # noqa: E402
from speed import SpeedProbe  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

#: Fresh interpreters timed for ``setup_s``; their median is reported.
SETUP_PROBES = 3


def measure_setup(name: str, seed: int, scratch: Path) -> list:
    """Wall intervals from process start to ``ready`` for fresh
    interpreters running the workload's set-up."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    intervals = []
    for _ in range(SETUP_PROBES):
        started = time.perf_counter()
        with subprocess.Popen(
                [sys.executable, str(HERE / "probe.py"), name, str(seed),
                 str(scratch)],
                env=env, stdout=subprocess.PIPE, text=True) as child:
            line = child.stdout.readline()
            ready = time.perf_counter()
            child.stdout.read()
            code = child.wait(timeout=60)
        if line.strip() != "ready" or code != 0:
            raise RuntimeError(f"set-up probe exited {code} before ready")
        intervals.append((started, ready))
    return intervals


def tail(latencies: list) -> tuple:
    """``(value, label)``: the highest percentile with at least 10
    samples beyond it, or the maximum when that percentile would not lie
    above the median (fewer than 21 samples)."""
    ordered = sorted(latencies)
    count = len(ordered)
    if count < 21:
        return ordered[-1], "max"
    return ordered[count - 11], f"p{100 * (count - 10) / count:.1f}"


def geomean(values: list) -> float:
    return math.exp(sum(math.log(value) for value in values) / len(values))


def signature(result) -> tuple:
    return (result.best_cost, tuple(result.history), result.evaluations,
            result.episodes)


def check_passes(passes: list) -> list:
    """Correctness problems over all passes: the gate on the first pass,
    and exact agreement of every later pass with it."""
    import gate

    first = passes[0]
    problems = list(first.errors) + first.check()
    for outcome in first.outcomes.values():
        problems.extend(gate.check(*outcome))
    for later in passes[1:]:
        problems.extend(later.errors)
        problems.extend(later.check())
        for key, outcome in later.outcomes.items():
            reference = first.outcomes.get(key)
            if reference is None or signature(reference[4]) \
                    != signature(outcome[4]):
                problems.append(f"{key}: result differs between passes")
    return problems


def git_commit():
    """The checkout's commit, or ``None`` outside a git work tree."""
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: the program is missing ({SRC / 'repro'})",
              file=sys.stderr)
        return 2
    # Serial executor, default kernel, envs=1: no deploy-time overrides.
    for key in [key for key in os.environ if key.startswith("REPRO_")]:
        del os.environ[key]
    # One CPU for this process and its children, so the speed probe
    # samples the CPU the workload runs on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    sys.path.insert(0, str(SRC))
    scratch = ROOT / ".e2ebench_tmp" / str(os.getpid())
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        with SpeedProbe() as probe:
            setup = ([] if args.trace
                     else measure_setup(args.workload, args.seed, scratch))
            workload = WORKLOADS[args.workload](args.seed, str(scratch))
            record, result = measure(workload, args.seconds, args.trace,
                                     setup, probe)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    for problem in record["problems"]:
        print(f"FAILED: {problem}", file=sys.stderr)
    print(json.dumps({"run_record": record}))
    print(json.dumps(result))
    return 0


def measure(workload, seconds: float, trace: bool, setup: list,
            probe: SpeedProbe) -> tuple:
    """Run ``workload`` (not yet set up) for about ``seconds``; returns
    the run record and the result object ``main`` prints last.
    ``setup`` holds the set-up probes' wall intervals (trace 0 only)."""
    import numpy
    import repro

    workload.setup()
    workload.close()
    record = {
        "workload": workload.name, "seed": workload.seed,
        "traced": bool(trace), "budgets": workload.describe(),
        "cpu_count": os.cpu_count(),
        "cpus_used": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__, "repro": repro.__version__,
        "git_commit": git_commit(),
    }
    if trace:
        metrics, passes, problems = traced(workload, probe)
    else:
        started = time.perf_counter()
        passes = [workload.run_pass()]
        while (time.perf_counter() - started
               + statistics.median(p.interval[1] - p.interval[0]
                                   for p in passes) <= seconds):
            passes.append(workload.run_pass())
        metrics = end_to_end(passes, setup, probe, record)
        problems = []
        if not record["searches"] - record["infeasible"]:
            problems.append("no search found a feasible design")
    record["speed_factor"] = probe.mean_factor()
    problems = check_passes(passes) + problems
    attempted = sum(len(p.jobs) + len(p.errors) for p in passes)
    record.update(passes=len(passes), problems=problems)
    return record, {
        "correct": not problems,
        "attempted": max(attempted, len(problems), 1),
        "failed": len(problems), "metrics": metrics}


def end_to_end(passes: list, setup: list, probe: SpeedProbe,
               record: dict) -> dict:
    latencies = [probe.scaled(*job) for p in passes for job in p.jobs]
    durations = [probe.scaled(*p.interval) for p in passes]
    tail_s, label = tail(latencies)
    outcomes = passes[0].outcomes.values()
    by_method = {}
    for _, method, _, _, result in outcomes:
        if result.best_cost is not None:
            by_method.setdefault(method, []).append(result.best_cost)
    feasible = [cost for costs in by_method.values() for cost in costs]
    record.update(
        latency_tail={"percentile": label, "samples": len(latencies)},
        searches=len(outcomes), infeasible=len(outcomes) - len(feasible),
        best_cost_by_method={m: geomean(v) for m, v in by_method.items()},
        setup_wall_s=[end - start for start, end in setup],
        pass_wall_s=[p.interval[1] - p.interval[0] for p in passes])
    values = {
        "setup_s": statistics.median(probe.scaled(*i) for i in setup),
        "search_s": statistics.median(durations),
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "jobs_per_s": len(latencies) / sum(durations),
        "job_latency_p50_ms": 1000 * statistics.median(latencies),
        "job_latency_tail_ms": 1000 * tail_s,
        "best_cost": geomean(feasible) if feasible else 0.0,
    }
    return {name: {"value": values[name], "unit": END_TO_END[name][0]}
            for name in END_TO_END}


def traced(workload, probe: SpeedProbe):
    """One untraced and one traced pass; per-layer metrics of the
    traced one."""
    import layers
    from tracer import Tracer

    untraced = workload.run_pass()
    tracer = Tracer()
    layers.install(tracer)
    try:
        tracer.enabled = True
        try:
            pass_ = workload.run_pass()
        finally:
            tracer.enabled = False
        counters = dict(pass_.counters)
        base = probe.scaled(*untraced.interval)
        counters["trace.overhead_share"] = (
            probe.scaled(*pass_.interval) - base) / base
        values = layers.values(tracer, counters)
        problems = [f"span {name} recorded no call"
                    for name in layers.unfired(tracer, workload.name)]
    finally:
        tracer.restore()
    units = {name: unit for name, (unit, _, _) in per_layer().items()}
    metrics = {name: {"value": value, "unit": units[name]}
               for name, value in values.items()}
    return metrics, [untraced, pass_], problems


if __name__ == "__main__":
    sys.exit(main())
