"""Determinism suite: parallel execution is bit-identical to serial.

The contract of :mod:`repro.parallel` is that an execution backend may
change *where* a batch is evaluated but never *what* comes back: for a
fixed seed, a session's :class:`SessionResult` must be bit-identical
across ``executor`` in {serial, process} and ``workers`` in {1, 2, 4}
for every registered method that routes through the batched population
evaluator.  This file is the lockdown: it runs the full
matrix per batchable method, plus property-style randomized round-trips
of the shared-memory path itself (including empty, size-1, and
constraint-violating populations).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.core.constraints import ResourceConstraint
from repro.core.serialization import search_result_to_dict
from repro.costmodel import CostModel
from repro.env.spaces import ActionSpace
from repro.models import get_model
from repro.parallel import (
    FaultPlan,
    ParallelCoordinator,
    ProcessBackend,
    make_backend,
    shard_bounds,
)
from repro.search import SearchSession, SearchSpec, list_methods

EXECUTOR_MATRIX = [("serial", 1), ("serial", 2), ("serial", 4),
                   ("process", 1), ("process", 2), ("process", 4)]

#: Small-but-real budgets per method kind so the matrix stays fast while
#: every method still exercises batched population evaluation.
_BUDGETS = {"genome": 40, "two-stage": (6, 3)}


def _batchable_names():
    return [info.name for info in list_methods() if info.batchable]


def _spec(method: str, executor: str, workers: int) -> SearchSpec:
    info = repro.get_method(method)
    if info.kind == "two-stage":
        budget, finetune = _BUDGETS["two-stage"]
    else:
        budget, finetune = _BUDGETS["genome"], None
    # dispatch_min_batch=0 forces sharding: the matrix must exercise the
    # workers even for the small test batches the adaptive fallback
    # would otherwise keep in-process.
    return SearchSpec(model="mobilenet_v2", method=method, budget=budget,
                      finetune=finetune, seed=11, layer_slice=4,
                      executor=executor, workers=workers,
                      dispatch_min_batch=0)


def _comparable(session_result) -> dict:
    """The result as a dict, minus wall-clock noise."""
    data = search_result_to_dict(session_result.result)
    data.pop("wall_time_s", None)
    data["stopped_early"] = session_result.stopped_early
    return data


@pytest.mark.parametrize("method", _batchable_names())
def test_session_results_bit_identical_across_backends(method):
    """Every batchable method: 2 executors x 3 worker counts, one
    answer."""
    reference = None
    for executor, workers in EXECUTOR_MATRIX:
        outcome = SearchSession(_spec(method, executor, workers)).run()
        observed = _comparable(outcome)
        if reference is None:
            reference = observed
        else:
            assert observed == reference, (
                f"{method}: {executor}x{workers} diverged from serial")


# ----------------------------------------------------------------------
# Kill-a-worker-mid-batch parity: recovery is invisible in the results
# ----------------------------------------------------------------------
#: (method, envs, executor) cells of the crash-recovery matrix -- one GA
#: and one episodic-RL method, scalar and vectorized stepping.  Kill
#: batches are kept low so they land inside even the GA's short
#: sharded-batch run.
CRASH_MATRIX = [("ga", 1, "process"), ("reinforce", 1, "process"),
                ("reinforce", 8, "process")]


@pytest.mark.parametrize("method,envs,executor", CRASH_MATRIX)
def test_session_identical_after_workers_killed_mid_batch(method, envs,
                                                          executor):
    """A fault plan killing two worker processes mid-search changes
    nothing in the SessionResult -- best cost, assignments, full
    RNG-driven history, cache hits -- versus the crash-free serial run;
    only the recovery counters in provenance betray that anything
    happened."""
    base = dict(model="mobilenet_v2", method=method, budget=24, seed=7,
                layer_slice=4, envs=envs, dispatch_min_batch=0)
    reference = SearchSession(SearchSpec(executor="serial", **base)).run()
    plan = FaultPlan(kill_worker=[(0, 0), (1, 1)])
    coordinator = ParallelCoordinator(executor, workers=2,
                                      fault_plan=plan, degrade=False)
    recovered = SearchSession(
        SearchSpec(executor=executor, workers=2, **base)
    ).run(callbacks=[coordinator])
    assert _comparable(recovered) == _comparable(reference)
    assert recovered.result.cache_hits == reference.result.cache_hits
    execution = recovered.provenance["execution"]
    assert execution["respawns"] == 2
    assert execution["retries"] >= 2
    assert execution["degraded_to"] is None


def test_reinforce_planned_episodes_match_scalar_stepping():
    """The batched-epoch REINFORCE path (the one parallel backends
    shard) is bit-identical to per-step scalar calls, including RNG
    consumption around mid-episode constraint violations."""
    layers = get_model("mobilenet_v2")[:5]
    results = {}
    for flag in (False, True):
        pipeline = repro.ConfuciuX(
            layers, platform="iot", seed=13,
            reinforce_kwargs={"batch_episodes": flag})
        results[flag] = pipeline._run(global_epochs=12,
                                      finetune_generations=0)
    scalar, planned = results[False], results[True]
    assert scalar.trace == planned.trace
    assert scalar.best_cost == planned.best_cost
    assert scalar.best_assignments == planned.best_assignments
    assert (scalar.global_result.evaluations
            == planned.global_result.evaluations)


def test_power_constrained_env_stays_on_scalar_path():
    """Power budgets need full per-layer reports to detect violations,
    so planned episodes must refuse rather than silently diverge."""
    task = SearchSpec(model="mobilenet_v2", constraint_kind="power",
                      layer_slice=4).task()
    cost_model = CostModel()
    env = task.make_env(cost_model, task.constraint(cost_model))
    assert not env.plan_supported()
    with pytest.raises(RuntimeError, match="power"):
        env.begin_plan()


# ----------------------------------------------------------------------
# Shared-memory round-trip properties
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def shm_setup():
    """One persistent 2-worker process backend plus serial/parallel
    evaluator pairs over the same task (area- and resource-constrained)."""
    layers = get_model("mobilenet_v2")[:5]
    space = ActionSpace.build("dla")
    backend = ProcessBackend(workers=2)

    def make_pair(constraint):
        from repro.core.evaluator import DesignPointEvaluator

        serial = DesignPointEvaluator(layers, "latency", constraint,
                                      CostModel(), space, dataflow="dla")
        parallel_model = CostModel()
        parallel_model.set_executor(backend)
        parallel = DesignPointEvaluator(layers, "latency", constraint,
                                        parallel_model, space,
                                        dataflow="dla")
        return serial, parallel

    from repro.core.constraints import platform_constraint

    area = platform_constraint(layers, "dla", "area", "iot", CostModel(),
                               space)
    pairs = {
        "area": make_pair(area),
        # Caps tight enough that random populations straddle the
        # feasibility boundary (violating genomes must round-trip too).
        "resource": make_pair(ResourceConstraint(max_pes=150,
                                                 max_l1_bytes=3000)),
    }
    yield pairs
    backend.shutdown()
    assert backend.alive_workers == 0


@settings(max_examples=20, deadline=None)
@given(
    kind=st.sampled_from(["area", "resource"]),
    data=st.data(),
)
def test_random_populations_round_trip_through_workers(shm_setup, kind,
                                                       data):
    """Random populations -- any size, any feasibility mix -- come back
    from the worker shards exactly as the in-process path computes
    them."""
    serial, parallel = shm_setup[kind]
    size = data.draw(st.integers(min_value=0, max_value=33))
    seed = data.draw(st.integers(min_value=0, max_value=2**32 - 1))
    rng = np.random.default_rng(seed)
    genomes = [
        [int(g) for g in rng.integers(serial.space.num_levels,
                                      size=serial.genome_length)]
        for _ in range(size)
    ]
    expected = serial.evaluate_population(genomes)
    observed = parallel.evaluate_population(genomes)
    assert len(expected) == len(observed) == size
    for want, got in zip(expected, observed):
        assert got.cost == want.cost
        assert got.feasible == want.feasible
        assert got.used == want.used
        assert got.report.latency_cycles == want.report.latency_cycles
        assert got.report.energy_nj == want.report.energy_nj
        assert got.report.area_um2 == want.report.area_um2
        assert got.report.power_mw == want.report.power_mw


def test_empty_and_single_populations(shm_setup):
    """The degenerate batch sizes the sharding logic must not mangle."""
    serial, parallel = shm_setup["area"]
    assert parallel.evaluate_population([]) == []
    genome = [0] * serial.genome_length
    [want] = serial.evaluate_population([genome])
    [got] = parallel.evaluate_population([genome])
    assert (got.cost, got.feasible, got.used) == (want.cost, want.feasible,
                                                  want.used)


def test_shard_bounds_partition_every_batch():
    """Shards tile [0, batch) exactly: no gaps, no overlap, no empties."""
    for batch in (1, 2, 3, 7, 64, 1001):
        for shards in (1, 2, 4, 16, batch + 5):
            bounds = shard_bounds(batch, shards)
            assert bounds[0][0] == 0 and bounds[-1][1] == batch
            assert all(lo < hi for lo, hi in bounds)
            assert all(prev[1] == nxt[0]
                       for prev, nxt in zip(bounds, bounds[1:]))
            assert len(bounds) <= min(shards, batch)


def test_worker_error_propagates_with_context():
    """A worker failure surfaces as a RuntimeError naming the worker,
    and the pool survives for the next (valid) batch."""
    from repro.costmodel.batched import LayerTable

    layers = get_model("mobilenet_v2")[:3]
    table = LayerTable.build(layers)
    backend = ProcessBackend(workers=2)
    try:
        model = CostModel()
        model.set_executor(backend)
        bad_table = LayerTable.build(layers)
        # Sabotage: layer_idx beyond the table shipped to workers is the
        # cheapest reproducible in-worker failure.  Bypass the validated
        # entry point to hit the worker directly.
        with pytest.raises(RuntimeError, match="worker"):
            backend.evaluate(model.hw, bad_table,
                             np.array([99], dtype=np.int64),
                             np.array([0], dtype=np.int64),
                             np.array([4], dtype=np.int64),
                             np.array([64], dtype=np.int64))
        # Pool still serves correct batches afterwards.
        report = model.batched.evaluate(table,
                                        np.array([0, 1, 2], dtype=np.int64),
                                        0,
                                        np.array([4, 8, 16],
                                                 dtype=np.int64),
                                        np.array([64, 64, 64],
                                                 dtype=np.int64))
        assert len(report) == 3
    finally:
        backend.shutdown()
    assert backend.alive_workers == 0
