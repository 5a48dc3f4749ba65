"""Fig. 8: the per-layer dataflow + resource assignment chosen by MIX.

Runs Con'X-MIX on the full 52-layer MobileNet-V2 under the IoT area budget
and renders the per-layer style letters with the PE and buffer bars.
"""

from __future__ import annotations

from repro import explore
from repro.core.joint import dataflow_assignment_table, style_histogram
from repro.core.reporting import ascii_bars, format_table
from repro.experiments import default_epochs
from repro.models import get_model


def test_fig08_mix_assignment(benchmark, cost_model, save_report):
    layers = get_model("mobilenet_v2")
    epochs = default_epochs(150)

    def run():
        return explore(model="mobilenet_v2", method="confuciux", mix=True,
                       objective="latency", constraint_kind="area",
                       platform="iot", seed=0, budget=epochs, finetune=0,
                       cost_model=cost_model).detail

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    assert result.best_cost is not None, "MIX found no feasible assignment"

    rows = dataflow_assignment_table(result, layers)
    histogram = style_histogram(rows)
    letters = " ".join(row["letter"] for row in rows)
    pes = [row["pes"] for row in rows]
    bufs = [row["l1_bytes"] for row in rows]

    report = format_table(
        ["metric", "value"],
        [
            ["best latency (cycles)", f"{result.best_cost:.2E}"],
            ["style histogram", str(histogram)],
            ["per-layer styles", letters],
        ],
        title=f"Fig. 8 -- Con'X-MIX per-layer assignment, MobileNet-V2, "
              f"IoT area, Eps={epochs}",
    )
    report += "\n\nPEs per layer:\n" + ascii_bars(
        pes, labels=[str(r["layer"]) for r in rows])
    report += "\n\nBuffer bytes per layer:\n" + ascii_bars(
        bufs, labels=[str(r["layer"]) for r in rows])
    save_report("fig08_mix_assignment", report)

    # Shape checks: all 52 layers assigned; more than one style in play
    # (the paper's MIX strategy mixes styles across layers).
    assert len(rows) == 52
    assert len(histogram) >= 2
