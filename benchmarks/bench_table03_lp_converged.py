"""Table III: converged LP solutions -- GA vs PPO2 vs Con'X(global).

All 18 (model, dataflow, platform) rows of the paper, objective = minimum
end-to-end latency under an area constraint.  Models are sliced to their
first 16 layers by default so the whole grid runs in minutes; set
``REPRO_EPOCHS`` (and edit ``LAYER_SLICE``) for fuller runs.
"""

from __future__ import annotations

from repro.core.reporting import format_table
from repro.experiments import TaskSpec, compare_methods, default_epochs
from repro.experiments.lp_study import TABLE3_METHODS, format_row

LAYER_SLICE = 16

#: The paper's 18 rows: (model, dataflow, platform).
ROWS = [
    ("mobilenet_v2", "dla", "iot"),
    ("mobilenet_v2", "eye", "iotx"),
    ("mobilenet_v2", "shi", "iotx"),
    ("mnasnet", "dla", "cloud"),
    ("mnasnet", "eye", "iotx"),
    ("mnasnet", "shi", "iotx"),
    ("resnet50", "dla", "cloud"),
    ("resnet50", "eye", "cloud"),
    ("resnet50", "shi", "cloud"),
    ("gnmt", "dla", "iotx"),
    ("gnmt", "eye", "iot"),
    ("gnmt", "shi", "iot"),
    ("transformer", "dla", "iotx"),
    ("transformer", "eye", "iot"),
    ("transformer", "shi", "iot"),
    ("ncf", "dla", "iotx"),
    ("ncf", "eye", "cloud"),
    ("ncf", "shi", "iot"),
]


def test_table03_lp_converged(benchmark, cost_model, save_report):
    epochs = default_epochs(200)

    def run():
        table = []
        outcomes = []
        for model, dataflow, platform in ROWS:
            task = TaskSpec(model=model, dataflow=dataflow,
                            platform=platform, layer_slice=LAYER_SLICE)
            results = compare_methods(task, TABLE3_METHODS, epochs,
                                      cost_model=cost_model)
            label = f"{model}-{dataflow} {platform}"
            table.append(format_row(label, results, TABLE3_METHODS))
            outcomes.append(results)
        return table, outcomes

    table, outcomes = benchmark.pedantic(run, rounds=1, iterations=1)
    save_report("table03_lp_converged", format_table(
        ["model-dataflow platform", "GA", "PPO2", "Con'X (global)"],
        table,
        title=f"Table III -- LP converged latency (cycles), Eps={epochs}, "
              f"first {LAYER_SLICE} layers",
    ))

    # Shape checks: Con'X always feasible (the paper: GA NANs under tight
    # constraints, Con'X never does), and wins or stays competitive on a
    # majority of rows.  Individual rows are noisy at scaled-down budgets,
    # so the quality claim is asserted in aggregate.
    competitive = 0
    for results in outcomes:
        conx = results["reinforce"]
        assert conx.feasible
        others = [results[m].best_cost for m in ("ga", "ppo2")
                  if results[m].best_cost is not None]
        if not others or conx.best_cost <= min(others) * 1.5:
            competitive += 1
    assert competitive >= len(outcomes) // 2
