"""Table IV: optimization-method comparison across platform constraints.

MobileNet-V2, NVDLA-style, LP deployment.  14 rows: {latency, energy} x
{area, power} x {Unlimited, Cloud, IoT, IoTx} (the paper omits the
unlimited-power rows, keeping 14).  Columns: Grid, Random, SA, GA, Bayesian
optimization, Con'X(global).
"""

from __future__ import annotations

from repro.core.reporting import format_table
from repro.experiments import TaskSpec, compare_methods, default_epochs
from repro.experiments.lp_study import (
    classic_optimizer_methods,
    display_columns,
    format_row,
)

LAYER_SLICE = 16

ROWS = [
    ("latency", "area", "unlimited"),
    ("latency", "area", "cloud"),
    ("latency", "area", "iot"),
    ("latency", "area", "iotx"),
    ("latency", "power", "cloud"),
    ("latency", "power", "iot"),
    ("latency", "power", "iotx"),
    ("energy", "area", "unlimited"),
    ("energy", "area", "cloud"),
    ("energy", "area", "iot"),
    ("energy", "area", "iotx"),
    ("energy", "power", "cloud"),
    ("energy", "power", "iot"),
    ("energy", "power", "iotx"),
]


def test_table04_optimizers(benchmark, cost_model, save_report):
    epochs = default_epochs(150)
    # Resolved at run time so methods registered after import (e.g. by a
    # plugin conftest) join the grid automatically.
    methods = classic_optimizer_methods()

    def run():
        table = []
        outcomes = []
        for objective, kind, platform in ROWS:
            task = TaskSpec(model="mobilenet_v2", dataflow="dla",
                            objective=objective, constraint_kind=kind,
                            platform=platform, layer_slice=LAYER_SLICE)
            results = compare_methods(task, methods, epochs,
                                      cost_model=cost_model)
            label = f"{objective} {kind}:{platform}"
            table.append(format_row(label, results, methods))
            outcomes.append(((objective, kind, platform), results))
        return table, outcomes

    table, outcomes = benchmark.pedantic(run, rounds=1, iterations=1)
    save_report("table04_optimizers", format_table(
        ["objective constraint"] + display_columns(methods),
        table,
        title=f"Table IV -- optimizer comparison, MobileNet-V2 "
              f"(first {LAYER_SLICE} layers), NVDLA-style, LP, Eps={epochs}",
    ))

    # Shape checks mirroring the paper's qualitative claims.
    for (objective, kind, platform), results in outcomes:
        conx = results["reinforce"]
        assert conx.feasible, f"Con'X infeasible at {kind}:{platform}"
        feasible_baselines = [r.best_cost for name, r in results.items()
                              if name != "reinforce"
                              and r.best_cost is not None]
        if platform in ("iot", "iotx") and feasible_baselines:
            # Under tight budgets Con'X should be at least competitive.
            assert conx.best_cost <= min(feasible_baselines) * 2.0
