"""Perf tracker: scalar-loop vs batched vs fused population evaluation.

Times the repository's hottest path -- evaluating a whole search
population against the analytical cost model -- on a fixed workload
(20 MobileNet-V2 layers x 512 random design points, cold caches) and
writes ``BENCH_costmodel.json`` at the repo root:

    {"scalar_s": ..., "batched_s": ..., "speedup": ...,
     "fused_s": ..., "fused_speedup_x": ..., "fused32_speedup_x": ...}

so the perf trajectory is tracked across future PRs.  The batched engine
must beat the scalar loop by >= 10x on this workload (the acceptance bar
of the PR that introduced it), and the fused tensor program must beat
the batched kernel by >= 1.5x on the kernel-level population batch
(the bar of the PR that introduced the fused kernels; ``fused32`` is
recorded but not gated).  Bit parity of every returned cost is asserted while we are at
it.
"""

from __future__ import annotations

import gc
import json
import pathlib
import time

import numpy as np

from repro.core.constraints import platform_constraint
from repro.core.evaluator import DesignPointEvaluator
from repro.core.reporting import format_table
from repro.costmodel import (
    DEFAULT_HW,
    CostModel,
    LayerTable,
    STYLE_INDEX,
    compile_program,
    evaluate_with_kernel,
)
from repro.env.spaces import ActionSpace
from repro.models import get_model

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]

NUM_LAYERS = 20
POPULATION = 512
#: Repetitions per path; the minimum is reported (standard perf practice:
#: the floor is the honest number, the rest is GC/scheduler jitter).
REPEATS = 3
#: Kernel-level timings are ~1ms per call, so take many more samples.
KERNEL_REPEATS = 30


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

    # ------------------------------------------------------------------
    # Kernel-level: the batched reference vs the fused tensor programs
    # on one (population x layers) single-style batch -- the exact call
    # the searches spend their time in.
    # ------------------------------------------------------------------
    table = LayerTable.build(layers)
    rng = np.random.default_rng(1)
    batch_n = POPULATION * NUM_LAYERS
    layer_idx = np.tile(np.arange(NUM_LAYERS), POPULATION)
    style_idx = np.full(batch_n, STYLE_INDEX["dla"], dtype=np.int64)
    pes = rng.integers(1, 600, size=batch_n)
    l1 = rng.integers(1, 12_000, size=batch_n)

    def _time_kernel(fn):
        fn()  # warm scratch buffers / JIT before the clock starts
        best = float("inf")
        gc.collect()
        for _ in range(KERNEL_REPEATS):
            started = time.perf_counter()
            fn()
            best = min(best, time.perf_counter() - started)
        return best

    kernel_batched_s = _time_kernel(lambda: evaluate_with_kernel(
        "batched", DEFAULT_HW, table, layer_idx, style_idx, pes, l1))

    kernel_rows = [["batched kernel", f"{kernel_batched_s * 1e3:.3f}", ""]]
    kernel_speedups = {}
    for kind in ("fused", "fused32"):
        program = compile_program(DEFAULT_HW, table, kind)
        seconds = _time_kernel(lambda: program.evaluate(
            layer_idx, style_idx, pes, l1))
        kernel_speedups[f"{kind}_s"] = seconds
        kernel_speedups[f"{kind}_speedup_x"] = kernel_batched_s / seconds
        kernel_rows.append([f"{kind} kernel", f"{seconds * 1e3:.3f}",
                            f"{kernel_batched_s / seconds:.2f}x"])

    # The fused float64 program must be bit-identical to the reference.
    reference = evaluate_with_kernel("batched", DEFAULT_HW, table,
                                     layer_idx, style_idx, pes, l1)
    fused_program = compile_program(DEFAULT_HW, table, "fused")
    fused_report = fused_program.evaluate(layer_idx, style_idx, pes, l1)
    assert np.array_equal(reference.latency_cycles,
                          fused_report.latency_cycles)
    assert np.array_equal(reference.energy_nj, fused_report.energy_nj)

    # ------------------------------------------------------------------
    # MIX fast path: a batch mixing all three dataflow styles, where the
    # fused program compacts each style's rows instead of planning every
    # style over the full tensor (the old where-lattice ran ~0.66x the
    # batched kernel here).
    # ------------------------------------------------------------------
    mix_style_idx = rng.integers(0, 3, size=batch_n)
    mix_batched_s = _time_kernel(lambda: evaluate_with_kernel(
        "batched", DEFAULT_HW, table, layer_idx, mix_style_idx, pes, l1))
    mix_fused_s = _time_kernel(lambda: fused_program.evaluate(
        layer_idx, mix_style_idx, pes, l1))
    mix_speedup_x = mix_batched_s / mix_fused_s
    kernel_rows.append(["batched kernel (MIX)",
                        f"{mix_batched_s * 1e3:.3f}", ""])
    kernel_rows.append(["fused kernel (MIX)", f"{mix_fused_s * 1e3:.3f}",
                        f"{mix_speedup_x:.2f}x"])

    mix_reference = evaluate_with_kernel(
        "batched", DEFAULT_HW, table, layer_idx, mix_style_idx, pes, l1)
    mix_report = fused_program.evaluate(layer_idx, mix_style_idx, pes, l1)
    assert np.array_equal(mix_reference.latency_cycles,
                          mix_report.latency_cycles)
    assert np.array_equal(mix_reference.energy_nj, mix_report.energy_nj)
    assert np.array_equal(mix_reference.tile_k, mix_report.tile_k)

    payload = {
        "scalar_s": scalar_s,
        "batched_s": batched_s,
        "speedup": speedup,
        "kernel_batched_s": kernel_batched_s,
        "mix_batched_s": mix_batched_s,
        "mix_fused_s": mix_fused_s,
        "mix_speedup_x": mix_speedup_x,
        **kernel_speedups,
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
    save_report("perf_costmodel_kernels", format_table(
        ["kernel", "wall time (ms)", "vs batched"],
        kernel_rows,
        title=f"Kernel-level -- one dla batch of {batch_n} points",
    ))

    assert speedup >= 10.0, (
        f"batched path only {speedup:.1f}x faster than the scalar loop"
    )
    assert kernel_speedups["fused_speedup_x"] >= 1.5, (
        f"fused program only {kernel_speedups['fused_speedup_x']:.2f}x "
        f"faster than the batched kernel"
    )
    assert mix_speedup_x >= 1.0, (
        f"fused MIX path only {mix_speedup_x:.2f}x the batched kernel "
        f"on a mixed-style batch"
    )
