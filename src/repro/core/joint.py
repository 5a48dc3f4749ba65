"""Dataflow-HW co-automation: the MIX strategy (paper Section IV-D).

Rather than fixing one dataflow style, the agent makes three decisions per
layer -- PEs, Buffers, *and* style.  A ``confuciux`` session with
``mix=True`` runs that search; this module tabulates the per-layer style
assignment of its result, which Fig. 8 visualizes.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.core.confuciux import ConfuciuXResult
from repro.models.layers import Layer

#: Single-letter labels used under Fig. 8's x-axis.
STYLE_LETTERS = {"dla": "D", "shi": "S", "eye": "E"}


def dataflow_assignment_table(
    result: ConfuciuXResult, layers: Sequence[Layer]
) -> List[Dict]:
    """Per-layer rows of Fig. 8: layer number, style letter, PEs, Buffers.

    Raises:
        ValueError: if the result has no feasible solution or was not
            produced by a MIX search (assignments carry no style).
    """
    assignments = result.best_assignments
    if assignments is None:
        raise ValueError("result has no feasible solution")
    rows: List[Dict] = []
    for index, (layer, assignment) in enumerate(zip(layers, assignments),
                                                start=1):
        if len(assignment) != 3:
            raise ValueError("not a MIX result: assignment lacks a style")
        pes, l1_bytes, style = assignment
        rows.append({
            "layer": index,
            "name": layer.name,
            "type": layer.layer_type.name,
            "style": style,
            "letter": STYLE_LETTERS.get(style, "?"),
            "pes": pes,
            "l1_bytes": l1_bytes,
        })
    return rows


def style_histogram(rows: Sequence[Dict]) -> Dict[str, int]:
    """How many layers chose each style (summary used by tests/benches)."""
    counts: Dict[str, int] = {}
    for row in rows:
        counts[row["style"]] = counts.get(row["style"], 0) + 1
    return counts
