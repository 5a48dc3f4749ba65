"""Perf tracker: lockstep episode waves vs scalar RL stepping.

Times the episodic-RL hot path -- rolling whole training epochs through
the HW-assignment environment -- on the ``BENCH_costmodel.json`` workload
(the first 20 MobileNet-V2 layers) for the scalar one-step-at-a-time loop
and for lockstep waves at ``envs`` in {2, 4, 8}
(:class:`~repro.env.vector.VectorHWAssignmentEnv`: one batched cost call
and one batched policy forward per wave).  Writes ``BENCH_rl.json`` at
the repo root::

    {"method": ..., "episodes": ..., "num_layers": ...,
     "scalar_s": ..., "scalar_eps_per_s": ...,
     "envs": {"2": {"seconds": ..., "eps_per_s": ..., "speedup": ...},
              "4": ..., "8": ...},
     "speedup_envs_8": ..., "cpu_count": ...}

The speedup is pure kernel/forward vectorization -- no IPC, no extra
processes -- so it holds on a single CPU (like the cost-model bench);
the acceptance bar is >= 3x epoch throughput at ``envs=8``.  A one-env
wave run is also checked against the scalar loop for identical results
(the full bit-parity matrix lives in tests/test_rl_vector_parity.py).

Run it with ``OPENBLAS_NUM_THREADS=1``, as CI does: numpy's OpenBLAS
otherwise runs a second thread, and the ``envs=8`` timing then depends
on a free second core.  The configurations run in interleaved rounds and
each reports its fastest run, so a burst of load on a shared host slows
one run of every configuration instead of every run of one.

Lockstep waves change *which* episodes are sampled for ``envs > 1``
(reproducibly per seed -- see the RNG contract in API.md), so this bench
compares throughput, not search quality.
"""

from __future__ import annotations

import gc
import json
import os
import pathlib
import time

from repro.core.constraints import platform_constraint
from repro.core.reporting import format_table
from repro.costmodel import CostModel
from repro.env.spaces import ActionSpace
from repro.env.vector import VectorHWAssignmentEnv
from repro.models import get_model
from repro.search.registry import get_method

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]

NUM_LAYERS = 20
EPISODES = 48
ENV_COUNTS = (2, 4, 8)
METHOD = "a2c"
SEED = 0
#: Interleaved rounds, each running every configuration once; each
#: configuration reports its minimum.
ROUNDS = 5


def _run_once(info, layers, space, constraint, envs):
    """One full training run (fresh agent, fresh env); returns
    (seconds, SearchResult)."""
    method = info.factory(seed=SEED)
    cost_model = CostModel()
    env = VectorHWAssignmentEnv(
        _make_env(layers, space, constraint, cost_model), envs) \
        if envs else _make_env(layers, space, constraint, cost_model)
    gc.collect()
    started = time.perf_counter()
    result = method.search(env, EPISODES)
    return time.perf_counter() - started, result


def _make_env(layers, space, constraint, cost_model):
    from repro.env.environment import HWAssignmentEnv

    return HWAssignmentEnv(layers, space, "latency", constraint, cost_model,
                           dataflow="dla")


def test_rl_throughput(save_report):
    layers = get_model("mobilenet_v2")[:NUM_LAYERS]
    space = ActionSpace.build("dla")
    constraint = platform_constraint(layers, "dla", "area", "cloud",
                                     CostModel(), space)
    info = get_method(METHOD)

    configurations = (None,) + ENV_COUNTS
    best_s = dict.fromkeys(configurations, float("inf"))
    results = {}
    for _ in range(ROUNDS):
        for envs in configurations:
            seconds, results[envs] = _run_once(info, layers, space,
                                               constraint, envs)
            best_s[envs] = min(best_s[envs], seconds)
    scalar_s, scalar_result = best_s[None], results[None]

    # One-env waves must reproduce the scalar run exactly.
    _, one_env_result = _run_once(info, layers, space, constraint, 1)
    assert one_env_result.best_cost == scalar_result.best_cost
    assert one_env_result.history == scalar_result.history
    assert one_env_result.evaluations == scalar_result.evaluations

    timings = {}
    for envs in ENV_COUNTS:
        assert results[envs].episodes == EPISODES
        timings[str(envs)] = {
            "seconds": best_s[envs],
            "eps_per_s": EPISODES / best_s[envs],
            "speedup": scalar_s / best_s[envs],
        }

    speedup_envs_8 = timings["8"]["speedup"]
    rows = [["scalar", f"{scalar_s * 1e3:.1f} ms",
             f"{EPISODES / scalar_s:.0f}", "1.00x"]]
    for envs in ENV_COUNTS:
        record = timings[str(envs)]
        rows.append([f"envs={envs}", f"{record['seconds'] * 1e3:.1f} ms",
                     f"{record['eps_per_s']:.0f}",
                     f"{record['speedup']:.2f}x"])
    save_report("rl_throughput", format_table(
        ["stepping", "wall time", "epochs/s", "speedup"], rows,
        title=f"{METHOD} x {EPISODES} epochs on {NUM_LAYERS} MobileNet-V2 "
              f"layers (one batched cost call per wave; envs=1 "
              f"bit-identical to scalar)"))

    payload = {
        "method": METHOD,
        "episodes": EPISODES,
        "num_layers": NUM_LAYERS,
        "scalar_s": scalar_s,
        "scalar_eps_per_s": EPISODES / scalar_s,
        "envs": timings,
        "speedup_envs_8": speedup_envs_8,
        "cpu_count": os.cpu_count() or 1,
    }
    (REPO_ROOT / "BENCH_rl.json").write_text(
        json.dumps(payload, indent=2) + "\n")

    # Kernel vectorization, not parallelism: the bar holds on any host.
    assert speedup_envs_8 >= 3.0, (
        f"expected >= 3x epoch throughput at envs=8, got "
        f"{speedup_envs_8:.2f}x")
