"""Perf tracker: parallel speedup of sharded population evaluation.

Takes the ``BENCH_costmodel.json`` workload (20 MobileNet-V2 layers x a
random design-point population) and times one big
``evaluate_population`` batch through the process backend at 1 / 2 / 4
workers, verifying bit-identical results against the serial kernel.
Writes ``BENCH_parallel.json`` at the repo root::

    {"serial_s": ..., "cpu_count": ...,
     "process": {"1": ..., "2": ..., "4": ...},
     "speedup_process_4": ...,
     "break_even": {"sizes": {batch: {"serial_s": ..., "process_s": ...}},
                    "batch": ..., "per_worker": ...,
                    "default_min_batch_per_worker": ...},
     "fault_tolerance": {"crash_free": {...}, "faulted": {...},
                         "recovery_overhead_x": ...}}

The ``break_even`` section measures the adaptive-dispatch crossover:
the smallest batch for which sharding across 2 worker processes beats
the in-process kernel.  ``break_even.batch`` / ``break_even.per_worker``
record the measured crossover, or the explicit sentinel
``"no_crossover"`` when no timed batch size shards profitably (the
1-CPU dev container, for instance) -- never ``null``; the schema is
asserted below so regressions in the recording fail the bench.
``SearchSpec.dispatch_min_batch`` / ``$REPRO_DISPATCH_MIN`` default to
the built-in ``DEFAULT_DISPATCH_MIN_BATCH``; these numbers are how that
constant is re-measured when the kernel or the IPC path changes.

The ``fault_tolerance`` section is the receipt behind PERFORMANCE.md's
"supervision is free when nothing fails" claim: a crash-free session
through the supervised process pool must report **zero** retries,
respawns, and timeouts in its execution provenance (asserted, not just
recorded -- the supervision loop touching the hot path would show up
here first), and a session recovering from an injected worker kill is
timed against it so the recovery overhead stays a number, not folklore.

Process sharding only buys wall-clock when there are cores to shard
onto: the acceptance bar (>= 2x at 4 process workers) is asserted when
the machine has >= 4 CPUs and recorded either way, so the perf
trajectory stays comparable across hosts.  The population is larger than the cost
model bench's 512 (sharding has per-batch IPC overhead that the paper's
population sizes would hide in noise) -- the *workload definition*
(model, layers, genome distribution) is identical.
"""

from __future__ import annotations

import gc
import json
import os
import pathlib
import time

import numpy as np

from repro.core.constraints import platform_constraint
from repro.core.evaluator import DesignPointEvaluator
from repro.core.reporting import format_table
from repro.costmodel import CostModel
from repro.env.spaces import ActionSpace
from repro.models import get_model
from repro.parallel import make_backend

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]

NUM_LAYERS = 20
POPULATION = 4096
WORKER_COUNTS = (1, 2, 4)
REPEATS = 3
#: Populations timed for the adaptive-dispatch break-even (elements =
#: population x NUM_LAYERS).
BREAK_EVEN_POPULATIONS = (4, 16, 64, 256, 1024)
BREAK_EVEN_WORKERS = 2


def _population(space, num_layers, size, seed):
    rng = np.random.default_rng(seed)
    return [
        [int(g) for g in rng.integers(space.num_levels, size=2 * num_layers)]
        for _ in range(size)
    ]


def _time_population(evaluator, genomes):
    best = float("inf")
    outcomes = None
    for _ in range(REPEATS):
        gc.collect()
        started = time.perf_counter()
        outcomes = evaluator.evaluate_population(genomes)
        best = min(best, time.perf_counter() - started)
    return best, outcomes


def test_parallel_scaling(save_report):
    layers = get_model("mobilenet_v2")[:NUM_LAYERS]
    space = ActionSpace.build("dla")
    constraint = platform_constraint(layers, "dla", "area", "cloud",
                                     CostModel(), space)
    genomes = _population(space, NUM_LAYERS, POPULATION, seed=0)

    def make_evaluator(backend=None):
        model = CostModel()
        model.set_executor(backend)
        return DesignPointEvaluator(layers, "latency", constraint, model,
                                    space, dataflow="dla")

    serial_s, reference = _time_population(make_evaluator(), genomes)

    timings = {}
    for workers in WORKER_COUNTS:
        with make_backend("process", workers) as backend:
            evaluator = make_evaluator(backend)
            # Warm-up spawns the pool and ships the layer table so the
            # measurement sees steady-state generations.
            evaluator.evaluate_population(genomes[:32])
            seconds, outcomes = _time_population(evaluator, genomes)
        timings[str(workers)] = seconds
        for want, got in zip(reference, outcomes):
            assert want.cost == got.cost
            assert want.feasible == got.feasible

    # ---- adaptive-dispatch break-even: small-batch crossover ----------
    break_even_sizes = {}
    break_even_batch = None
    with make_backend("process", BREAK_EVEN_WORKERS) as backend:
        evaluator = make_evaluator(backend)
        evaluator.evaluate_population(genomes[:32])  # warm the pool
        serial_evaluator = make_evaluator()
        for population in BREAK_EVEN_POPULATIONS:
            subset = genomes[:population]
            small_serial_s, _ = _time_population(serial_evaluator, subset)
            process_s, _ = _time_population(evaluator, subset)
            batch_elements = population * NUM_LAYERS
            break_even_sizes[str(batch_elements)] = {
                "serial_s": small_serial_s,
                "process_s": process_s,
            }
            if break_even_batch is None and process_s <= small_serial_s:
                break_even_batch = batch_elements

    # ---- fault tolerance: supervision overhead and recovery cost ------
    from repro.parallel import FaultPlan, ParallelCoordinator
    from repro.search import SearchSession, SearchSpec

    def _timed_session(fault_plan=None):
        spec = SearchSpec(model="mobilenet_v2", method="ga", budget=40,
                          seed=5, layer_slice=NUM_LAYERS,
                          executor="process", workers=2,
                          dispatch_min_batch=0)
        coordinator = ParallelCoordinator("process", workers=2,
                                          fault_plan=fault_plan,
                                          degrade=False)
        started = time.perf_counter()
        outcome = SearchSession(spec).run(callbacks=[coordinator])
        seconds = time.perf_counter() - started
        execution = outcome.provenance["execution"]
        return seconds, outcome.best_cost, execution

    # The explicit empty plan pins a fault-free pool even when the
    # environment carries a $REPRO_FAULTS plan.
    crash_free_s, crash_free_cost, crash_free_exec = _timed_session(
        FaultPlan())
    faulted_s, faulted_cost, faulted_exec = _timed_session(
        FaultPlan(kill_worker=[(0, 0)]))

    # Supervision must be invisible when nothing fails: the poll loop
    # and retry accounting may not touch the crash-free hot path.
    assert crash_free_exec["retries"] == 0
    assert crash_free_exec["respawns"] == 0
    assert crash_free_exec["timeouts"] == 0
    # Recovery must be invisible in the *results*: one killed worker
    # later, the session still lands on the identical best cost.
    assert faulted_cost == crash_free_cost
    assert faulted_exec["respawns"] == 1

    fault_tolerance = {
        "crash_free": {"seconds": crash_free_s, **crash_free_exec},
        "faulted": {"seconds": faulted_s, **faulted_exec},
        "recovery_overhead_x": faulted_s / crash_free_s,
    }

    from repro.parallel import DEFAULT_DISPATCH_MIN_BATCH

    cpu_count = os.cpu_count() or 1
    speedup_process_4 = serial_s / timings["4"]
    rows = [["serial", "-", f"{serial_s * 1e3:.2f} ms", "1.00x"]]
    for workers in WORKER_COUNTS:
        seconds = timings[str(workers)]
        rows.append(["process", str(workers), f"{seconds * 1e3:.2f} ms",
                     f"{serial_s / seconds:.2f}x"])
    # The measured crossover, or an explicit sentinel when sharding never
    # won -- the JSON must always say which, not degrade to null.
    NO_CROSSOVER = "no_crossover"
    if break_even_batch is None:
        break_even_batch = break_even_per_worker = NO_CROSSOVER
    else:
        break_even_per_worker = break_even_batch // BREAK_EVEN_WORKERS
    break_even_rows = [
        [batch, f"{record['serial_s'] * 1e3:.3f} ms",
         f"{record['process_s'] * 1e3:.3f} ms",
         "process" if record["process_s"] <= record["serial_s"]
         else "in-process"]
        for batch, record in break_even_sizes.items()
    ]
    save_report("bench_parallel_scaling", format_table(
        ["backend", "workers", "batch time", "speedup"], rows,
        title=f"population {POPULATION} x {NUM_LAYERS} layers on "
              f"{cpu_count} CPU(s), bit-identical across backends")
        + "\n\n" + format_table(
        ["batch elements", "in-process", f"process x"
         f"{BREAK_EVEN_WORKERS}", "winner"], break_even_rows,
        title=f"adaptive-dispatch break-even (measured crossover: "
              f"{break_even_batch}, shipped default: "
              f"{DEFAULT_DISPATCH_MIN_BATCH}/worker)")
        + "\n\n" + format_table(
        ["run", "session time", "retries", "respawns"],
        [["crash-free", f"{crash_free_s:.3f} s",
          str(crash_free_exec["retries"]),
          str(crash_free_exec["respawns"])],
         ["1 worker killed", f"{faulted_s:.3f} s",
          str(faulted_exec["retries"]),
          str(faulted_exec["respawns"])]],
        title=f"fault tolerance (recovery overhead "
              f"{faulted_s / crash_free_s:.2f}x, identical best cost)"))

    payload = {
        "serial_s": serial_s,
        "cpu_count": cpu_count,
        "population": POPULATION,
        "num_layers": NUM_LAYERS,
        "process": timings,
        "speedup_process_4": speedup_process_4,
        "break_even": {
            "sizes": break_even_sizes,
            "batch": break_even_batch,
            "per_worker": break_even_per_worker,
            "default_min_batch_per_worker": DEFAULT_DISPATCH_MIN_BATCH,
        },
        "fault_tolerance": fault_tolerance,
    }

    # Schema: the crossover fields are an int batch size or the explicit
    # sentinel, in lockstep -- a null here means the recording regressed.
    break_even = payload["break_even"]
    assert set(break_even["sizes"]) \
        == {str(p * NUM_LAYERS) for p in BREAK_EVEN_POPULATIONS}
    for record in break_even["sizes"].values():
        assert isinstance(record["serial_s"], float)
        assert isinstance(record["process_s"], float)
    if break_even["batch"] == NO_CROSSOVER:
        assert break_even["per_worker"] == NO_CROSSOVER
    else:
        assert isinstance(break_even["batch"], int)
        assert break_even["per_worker"] \
            == break_even["batch"] // BREAK_EVEN_WORKERS
    assert isinstance(break_even["default_min_batch_per_worker"], int)

    (REPO_ROOT / "BENCH_parallel.json").write_text(
        json.dumps(payload, indent=2) + "\n")

    # The scaling bar only means something with cores to scale onto.
    if cpu_count >= 4:
        assert speedup_process_4 >= 2.0, (
            f"expected >= 2x at 4 workers on {cpu_count} CPUs, got "
            f"{speedup_process_4:.2f}x")
