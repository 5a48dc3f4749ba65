"""Per-layer study for the LS deployment (paper Section IV-B, Fig. 5).

For Layer Sequential deployment one design point serves every layer, so the
study has three parts:

* exhaustive 12x12 contours of latency/energy over the action pairs for
  individual layers (the heatmaps of Fig. 5),
* the two common heuristics the paper contrasts -- A: configure for the
  most compute-intensive layer; B: the uniform pair that best optimizes the
  end-to-end model, and
* per-layer optimal pairs, showing no single pair suits all layers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from repro.costmodel.batched import (
    STYLE_INDEX,
    LayerTable,
    population_totals,
)
from repro.costmodel.estimator import CostModel
from repro.env.spaces import ActionSpace
from repro.models.layers import Layer
from repro.objectives import CostTotals, resolve_objective


def _action_pair_grid(space: ActionSpace) -> Tuple[np.ndarray, np.ndarray]:
    """The exhaustive L x L action-pair grid as flat (pes, l1) vectors,
    PE level outermost (row-major, matching the scalar loop order)."""
    pes = np.repeat(np.asarray(space.pe_levels, dtype=np.int64),
                    space.num_levels)
    l1_bytes = np.tile(np.asarray(space.buf_levels, dtype=np.int64),
                       space.num_levels)
    return pes, l1_bytes


def layer_contour(layer: Layer, dataflow: str, objective: str,
                  cost_model: CostModel,
                  space: ActionSpace) -> np.ndarray:
    """Exhaustive (PE level, Buffer level) objective grid for one layer.

    The full grid is one batched estimator call (bit-identical to the old
    per-pair scalar loop).
    """
    pes, l1_bytes = _action_pair_grid(space)
    batch = cost_model.evaluate_layer_batch(layer, dataflow, pes, l1_bytes)
    return batch.objective(objective).reshape(space.num_levels,
                                              space.num_levels)


def best_action_pair(grid: np.ndarray) -> Tuple[int, int, float]:
    """(pe level index, buffer level index, value) of the grid minimum."""
    flat = int(np.argmin(grid))
    pe_idx, buf_idx = divmod(flat, grid.shape[1])
    return pe_idx, buf_idx, float(grid[pe_idx, buf_idx])


def plateau_fraction(grid: np.ndarray, tolerance: float = 0.01) -> float:
    """Fraction of pairs within ``tolerance`` of their row minimum -- a
    measure of the over-provisioning plateaus visible in Fig. 5."""
    minima = grid.min(axis=1, keepdims=True)
    flat = np.abs(grid - minima) <= tolerance * minima
    return float(flat.mean())


def most_compute_intensive(layers: Sequence[Layer]) -> int:
    """Index of the layer with the most MACs (Heuristic A's anchor)."""
    return int(np.argmax([layer.macs for layer in layers]))


def uniform_cost(layers: Sequence[Layer], dataflow: str, objective: str,
                 cost_model: CostModel, pes: int, l1_bytes: int) -> float:
    """End-to-end LS cost of one shared design point."""
    report = cost_model.evaluate_model_ls(layers, pes, l1_bytes, dataflow)
    return report.objective(objective)


@dataclass(frozen=True)
class HeuristicOutcome:
    """A heuristic's chosen pair and its end-to-end cost."""

    pe_idx: int
    buf_idx: int
    pes: int
    l1_bytes: int
    end_to_end_cost: float


def heuristic_a(layers: Sequence[Layer], dataflow: str, objective: str,
                cost_model: CostModel,
                space: ActionSpace) -> HeuristicOutcome:
    """Heuristic A: size for the most compute-intensive layer."""
    anchor = layers[most_compute_intensive(layers)]
    grid = layer_contour(anchor, dataflow, objective, cost_model, space)
    pe_idx, buf_idx, _ = best_action_pair(grid)
    pes, l1_bytes = space.pe_levels[pe_idx], space.buf_levels[buf_idx]
    cost = uniform_cost(layers, dataflow, objective, cost_model, pes,
                        l1_bytes)
    return HeuristicOutcome(pe_idx, buf_idx, pes, l1_bytes, cost)


def uniform_sweep(layers: Sequence[Layer], dataflow: str, objective: str,
                  cost_model: CostModel, space: ActionSpace) -> np.ndarray:
    """End-to-end LS cost of every uniform action pair as an (L, L) grid.

    All L^2 design points x N layers are evaluated as a single batched
    call; row ``pe_idx``, column ``buf_idx`` matches
    :func:`uniform_cost` on the corresponding pair exactly.
    """
    style = STYLE_INDEX[dataflow]
    table = LayerTable.build(layers)
    num_layers = len(layers)
    pairs_pes, pairs_l1 = _action_pair_grid(space)
    num_pairs = len(pairs_pes)
    pes = np.repeat(pairs_pes, num_layers)
    l1_bytes = np.repeat(pairs_l1, num_layers)
    layer_idx = np.tile(np.arange(num_layers, dtype=np.int64), num_pairs)
    figures = cost_model.batched.evaluate(table, layer_idx, style, pes,
                                          l1_bytes).figures()
    totals = population_totals(figures.reshape(4, num_pairs, num_layers),
                               "ls")
    cost = np.asarray(resolve_objective(objective).evaluate(
        CostTotals(*totals)), dtype=np.float64)
    return cost.reshape(space.num_levels, space.num_levels)


def heuristic_b(layers: Sequence[Layer], dataflow: str, objective: str,
                cost_model: CostModel,
                space: ActionSpace) -> HeuristicOutcome:
    """Heuristic B: the uniform pair minimizing end-to-end cost
    (exhaustive over the L^2 uniform configurations, evaluated as one
    batched sweep; ties resolve to the first pair in PE-major order,
    exactly as the old scalar scan did)."""
    grid = uniform_sweep(layers, dataflow, objective, cost_model, space)
    pe_idx, buf_idx, cost = best_action_pair(grid)
    return HeuristicOutcome(pe_idx, buf_idx, space.pe_levels[pe_idx],
                            space.buf_levels[buf_idx], cost)


def per_layer_optima(layers: Sequence[Layer], dataflow: str, objective: str,
                     cost_model: CostModel, space: ActionSpace
                     ) -> List[Tuple[int, int, float]]:
    """The per-layer optimal pairs Con'X finds in the LS study."""
    optima = []
    for layer in layers:
        grid = layer_contour(layer, dataflow, objective, cost_model, space)
        optima.append(best_action_pair(grid))
    return optima
