"""Solution analysis and report rendering (Fig. 10, utilization reports).

Turns a converged design point into the figures the paper draws: the area
breakdown across PE / L1 / L2 / NoC, the per-layer PE and buffer bars, and
a plain-text table renderer shared by the benches.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.evaluator import RawAssignment
from repro.costmodel.batched import ordered_sum
from repro.costmodel.estimator import CostModel
from repro.costmodel.report import ModelCostReport
from repro.models.layers import Layer


def solution_report(
    layers: Sequence[Layer],
    assignments: Sequence[RawAssignment],
    cost_model: CostModel,
    dataflow: Optional[str] = None,
) -> ModelCostReport:
    """Re-evaluate a solution to obtain its full per-layer reports."""
    return cost_model.evaluate_model(layers, assignments, dataflow=dataflow)


def area_breakdown_fractions(report: ModelCostReport) -> Dict[str, float]:
    """Fig. 10's pie chart: fraction of total area per component."""
    breakdown = report.area_breakdown()
    total = ordered_sum(breakdown.values())
    if total <= 0:
        raise ValueError("report has no area")
    return {key: value / total for key, value in breakdown.items()}


def per_layer_assignment(
    assignments: Sequence[RawAssignment],
) -> Tuple[List[int], List[int]]:
    """Fig. 10's bottom bars: (PEs per layer, L1 bytes per layer)."""
    return ([a[0] for a in assignments], [a[1] for a in assignments])


def format_table(headers: Sequence[str], rows: Sequence[Sequence],
                 title: Optional[str] = None) -> str:
    """Render an aligned plain-text table (the benches' output format)."""
    columns = [str(h) for h in headers]
    rendered = [[str(cell) for cell in row] for row in rows]
    widths = [len(col) for col in columns]
    for row in rendered:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines: List[str] = []
    if title:
        lines.append(title)
    lines.append("  ".join(col.ljust(w) for col, w in zip(columns, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in rendered:
        lines.append("  ".join(cell.ljust(w)
                               for cell, w in zip(row, widths)))
    return "\n".join(lines)


def ascii_bars(values: Sequence[float], width: int = 40,
               labels: Optional[Sequence[str]] = None) -> str:
    """Quick horizontal bar chart for per-layer figures in the benches."""
    peak = max(values) if values else 1.0
    if peak <= 0:
        peak = 1.0
    lines = []
    for i, value in enumerate(values):
        label = labels[i] if labels else str(i + 1)
        bar = "#" * max(1, int(round(width * value / peak)))
        lines.append(f"{label:>12s} |{bar}")
    return "\n".join(lines)
