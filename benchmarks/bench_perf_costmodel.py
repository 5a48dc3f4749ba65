"""Perf tracker: scalar-loop vs batched population evaluation.

Times evaluating a whole search population against the analytical cost
model on a fixed workload (20 MobileNet-V2 layers x 512 random design
points, cold caches) and writes ``BENCH_costmodel.json`` at the repo
root:

    {"scalar_s": ..., "batched_s": ..., "speedup": ..., "cpu_count": ...}

so the perf trajectory is tracked across changes.  The batched engine
must beat the scalar loop by >= 10x on this workload (the acceptance bar
of the change that introduced it).  Bit parity of every returned cost is
asserted while we are at it.
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

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]

NUM_LAYERS = 20
POPULATION = 512
#: Repetitions per path; the minimum is reported (standard perf practice:
#: the floor is the honest number, the rest is GC/scheduler jitter).
REPEATS = 3


def _make_evaluator(layers, space, constraint):
    """A fresh evaluator around a fresh (cold-cache) cost model."""
    return DesignPointEvaluator(layers, "latency", constraint, CostModel(),
                                space, dataflow="dla")


def _population(space, num_layers, size, seed):
    rng = np.random.default_rng(seed)
    return [
        [int(g) for g in rng.integers(space.num_levels, size=2 * num_layers)]
        for _ in range(size)
    ]


def test_perf_costmodel(save_report):
    layers = get_model("mobilenet_v2")[:NUM_LAYERS]
    space = ActionSpace.build("dla")
    constraint = platform_constraint(layers, "dla", "area", "cloud",
                                     CostModel(), space)
    genomes = _population(space, NUM_LAYERS, POPULATION, seed=0)

    scalar_s = float("inf")
    for _ in range(REPEATS):
        scalar_eval = _make_evaluator(layers, space, constraint)
        gc.collect()
        started = time.perf_counter()
        scalar_outcomes = [scalar_eval.evaluate_genome(g) for g in genomes]
        scalar_s = min(scalar_s, time.perf_counter() - started)

    batched_s = float("inf")
    for _ in range(REPEATS):
        batched_eval = _make_evaluator(layers, space, constraint)
        gc.collect()
        started = time.perf_counter()
        batched_outcomes = batched_eval.evaluate_population(genomes)
        batched_s = min(batched_s, time.perf_counter() - started)

    for scalar, batched in zip(scalar_outcomes, batched_outcomes):
        assert scalar.cost == batched.cost
        assert scalar.feasible == batched.feasible
        assert scalar.used == batched.used

    speedup = scalar_s / batched_s

    payload = {
        "scalar_s": scalar_s,
        "batched_s": batched_s,
        "speedup": speedup,
        "cpu_count": os.cpu_count() or 1,
    }
    (REPO_ROOT / "BENCH_costmodel.json").write_text(
        json.dumps(payload, indent=2) + "\n")

    save_report("perf_costmodel", format_table(
        ["path", "wall time (s)", "points/s"],
        [
            ["scalar loop", f"{scalar_s:.4f}",
             f"{POPULATION / scalar_s:.0f}"],
            ["batched", f"{batched_s:.4f}",
             f"{POPULATION / batched_s:.0f}"],
            ["speedup", f"{speedup:.1f}x", ""],
        ],
        title=f"Cost-model perf -- {NUM_LAYERS} layers x {POPULATION} "
              f"points, cold cache",
    ))
    assert speedup >= 10.0, (
        f"batched path only {speedup:.1f}x faster than the scalar loop"
    )
