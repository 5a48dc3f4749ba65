"""Table VI: dataflow-HW co-automation.

For each (model, platform) row, compares Con'X(global) with the three fixed
dataflow styles against Con'X-MIX, which also picks a style per layer.
"""

from __future__ import annotations

from repro.core.reporting import format_table
from repro.experiments import TaskSpec, default_epochs
from repro.experiments.runner import compare_methods

LAYER_SLICE = 12

ROWS = [
    ("mobilenet_v2", "iot"),
    ("mobilenet_v2", "iotx"),
    ("mnasnet", "cloud"),
    ("mnasnet", "iot"),
    ("resnet50", "cloud"),
    ("resnet50", "iot"),
    ("resnet50", "iotx"),
    ("gnmt", "cloud"),
    ("ncf", "cloud"),
    ("ncf", "iot"),
]


def run_cell(cost_model, model, platform, dataflow, epochs, mix=False):
    task = TaskSpec(model=model, dataflow=dataflow, platform=platform,
                    mix=mix, layer_slice=LAYER_SLICE)
    results = compare_methods(task, ["reinforce"], epochs,
                              cost_model=cost_model)
    return results["reinforce"]


def test_table06_mix(benchmark, cost_model, save_report):
    epochs = default_epochs(120)

    def run():
        table = []
        outcomes = []
        for model, platform in ROWS:
            cells = {}
            for dataflow in ("dla", "shi", "eye"):
                cells[dataflow] = run_cell(cost_model, model, platform,
                                           dataflow, epochs)
            cells["mix"] = run_cell(cost_model, model, platform, "dla",
                                    epochs, mix=True)
            table.append([
                f"{model} {platform}",
                cells["dla"].format_cost(),
                cells["shi"].format_cost(),
                cells["eye"].format_cost(),
                cells["mix"].format_cost(),
            ])
            outcomes.append(cells)
        return table, outcomes

    table, outcomes = benchmark.pedantic(run, rounds=1, iterations=1)
    save_report("table06_mix", format_table(
        ["model platform", "Con'X-dla", "Con'X-shi", "Con'X-eye",
         "Con'X-MIX"],
        table,
        title=f"Table VI -- dataflow-HW co-automation (latency, cycles), "
              f"Eps={epochs}, first {LAYER_SLICE} layers",
    ))

    # Shape check: MIX is competitive with the best fixed style on most
    # rows (the paper: MIX improves 4%..69% over the best fixed).
    competitive = 0
    for cells in outcomes:
        fixed = [cells[s].best_cost for s in ("dla", "shi", "eye")
                 if cells[s].best_cost is not None]
        if cells["mix"].best_cost is not None and fixed:
            if cells["mix"].best_cost <= min(fixed) * 1.5:
                competitive += 1
    assert competitive >= len(outcomes) // 2
