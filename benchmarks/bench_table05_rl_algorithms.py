"""Table V: comparison against state-of-the-art RL algorithms.

All 14 rows of the paper (MobileNet-V2, ResNet-50, MnasNet cells), columns
A2C / ACKTR / PPO2 / DDPG / SAC / TD3 / Con'X(global), reporting the
converged objective value, the search effort (environment evaluations and
wall time), and the memory overhead row.
"""

from __future__ import annotations

from repro.core.reporting import format_table
from repro.experiments import TaskSpec, compare_methods, default_epochs
from repro.experiments.lp_study import display_columns, rl_comparison_methods

LAYER_SLICE = 12

ROWS = [
    ("mobilenet_v2", "latency", "area", "iot"),
    ("mobilenet_v2", "latency", "area", "iotx"),
    ("mobilenet_v2", "latency", "power", "iot"),
    ("mobilenet_v2", "latency", "power", "iotx"),
    ("mobilenet_v2", "energy", "area", "iot"),
    ("mobilenet_v2", "energy", "power", "iot"),
    ("resnet50", "latency", "area", "cloud"),
    ("resnet50", "latency", "power", "cloud"),
    ("resnet50", "energy", "area", "cloud"),
    ("resnet50", "energy", "power", "cloud"),
    ("mnasnet", "latency", "area", "iot"),
    ("mnasnet", "latency", "power", "iot"),
    ("mnasnet", "energy", "area", "iot"),
    ("mnasnet", "energy", "power", "iot"),
]


def test_table05_rl_algorithms(benchmark, cost_model, save_report):
    epochs = default_epochs(80)
    # Resolved at run time so methods registered after import (e.g. by a
    # plugin conftest) join the grid automatically.
    methods = rl_comparison_methods()

    def run():
        table = []
        memory = {name: 0 for name in methods}
        outcomes = []
        for model, objective, kind, platform in ROWS:
            task = TaskSpec(model=model, dataflow="dla",
                            objective=objective, constraint_kind=kind,
                            platform=platform, layer_slice=LAYER_SLICE)
            results = compare_methods(task, methods, epochs,
                                      cost_model=cost_model)
            row = [f"{model} {objective} {kind}:{platform}"]
            for name in methods:
                result = results[name]
                row.append(f"{result.format_cost()} ({result.wall_time_s:.1f}s)")
                memory[name] = max(memory[name], result.memory_bytes)
            table.append(row)
            outcomes.append(results)
        table.append(
            ["memory overhead (MB)"]
            + [f"{memory[name] / 1e6:.1f}" for name in methods])
        return table, outcomes

    table, outcomes = benchmark.pedantic(run, rounds=1, iterations=1)
    headers = ["task"] + display_columns(methods)
    save_report("table05_rl_algorithms", format_table(
        headers, table,
        title=f"Table V -- RL algorithm comparison, Eps={epochs}, "
              f"first {LAYER_SLICE} layers (value (wall time))",
    ))

    # Shape checks: Con'X feasible everywhere; at least as good as the
    # median competitor on most rows; actor-critic memory exceeds Con'X.
    wins = 0
    for results in outcomes:
        conx = results["reinforce"]
        assert conx.feasible
        others = sorted(r.best_cost for name, r in results.items()
                        if name != "reinforce" and r.best_cost is not None)
        if not others or conx.best_cost <= others[len(others) // 2]:
            wins += 1
    assert wins >= len(outcomes) // 2
    memory_row = table[-1]
    conx_memory = float(memory_row[1 + methods.index("reinforce")])
    ddpg_memory = float(memory_row[1 + methods.index("ddpg")])
    assert conx_memory < ddpg_memory  # replay buffers dominate (paper: 2.1
    #                                   vs 13.9+ MB)
