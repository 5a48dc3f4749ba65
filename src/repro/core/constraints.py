"""Platform constraints (paper Table II).

The budget scale is *measured*, not hand-set: evaluate the whole model with
the uniform maximum action pair (p_max, b_max) to get C_max, then take a
fraction of it -- 50% for Cloud, 10% for IoT, 5% for the extreme IoTx.

Besides area/power budgets, :class:`ResourceConstraint` models the FPGA
deployment of Table VIII, where the budget is a total PE count and a total
L1 byte count instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence

from repro.costmodel.estimator import CostModel
from repro.env.spaces import ActionSpace
from repro.models.layers import Layer

#: Fraction of the measured maximum consumption per platform (Table II).
PLATFORM_FRACTIONS: Dict[str, float] = {
    "unlimited": float("inf"),
    "cloud": 0.50,
    "iot": 0.10,
    "iotx": 0.05,
}


@dataclass(frozen=True)
class PlatformConstraint:
    """An area or power budget for the whole accelerator.

    Attributes:
        kind: "area" (um^2) or "power" (mW).
        budget: The numeric budget; inf for the unconstrained platform.
        platform: Platform label ("cloud", "iot", ...) for reports.
    """

    kind: str
    budget: float
    platform: str = "custom"

    def __post_init__(self) -> None:
        if self.kind not in ("area", "power"):
            raise ValueError(f"unknown constraint kind {self.kind!r}")
        if self.budget <= 0:
            raise ValueError("budget must be positive")


@dataclass(frozen=True)
class ResourceConstraint:
    """A (total PEs, total L1 bytes) cap -- the FPGA setting of Table VIII."""

    max_pes: int
    max_l1_bytes: int
    platform: str = "fpga"
    kind: str = "resource"

    def __post_init__(self) -> None:
        if self.max_pes < 1 or self.max_l1_bytes < 1:
            raise ValueError("resource caps must be positive")


def measure_max_consumption(
    layers: Sequence[Layer],
    dataflow: str,
    kind: str,
    cost_model: CostModel,
    space: Optional[ActionSpace] = None,
) -> float:
    """C_max of Table II: whole-model consumption at the uniform max pair.

    The whole sweep is one batched-estimator call (one row per layer).
    The per-layer figures are bit-identical to the scalar
    ``evaluate_layer`` loop, and the total accumulates in layer order, so
    the constraint budgets never moved.
    """
    import numpy as np

    from repro.costmodel.batched import STYLE_INDEX, LayerTable
    from repro.costmodel.dataflow import get_dataflow

    if not layers:
        return 0.0
    space = space or ActionSpace.build(dataflow)
    decoded = space.decode(space.max_action())
    pes, l1_bytes = decoded[0], decoded[1]
    num_layers = len(layers)
    batch = cost_model.batched.evaluate(
        LayerTable.build(layers),
        np.arange(num_layers, dtype=np.int64),
        STYLE_INDEX[get_dataflow(dataflow).style],
        np.full(num_layers, pes, dtype=np.int64),
        np.full(num_layers, l1_bytes, dtype=np.int64))
    total = 0.0
    for value in batch.constraint(kind).tolist():
        total += value
    return total


def platform_constraint(
    layers: Sequence[Layer],
    dataflow: str,
    kind: str,
    platform: str,
    cost_model: CostModel,
    space: Optional[ActionSpace] = None,
) -> PlatformConstraint:
    """Build the Table-II constraint for a platform tier.

    Args:
        layers: Target model.
        dataflow: Style used for the C_max measurement (the MIX search
            measures with its default style, matching the paper's setup).
        kind: "area" or "power".
        platform: "unlimited" | "cloud" | "iot" | "iotx".
        cost_model: Estimator used for the measurement.
        space: Action space (defaults to the Table-I space for ``dataflow``).
    """
    try:
        fraction = PLATFORM_FRACTIONS[platform]
    except KeyError:
        raise KeyError(
            f"unknown platform {platform!r}; available: "
            f"{', '.join(PLATFORM_FRACTIONS)}"
        ) from None
    if fraction == float("inf"):
        return PlatformConstraint(kind=kind, budget=float("inf"),
                                  platform=platform)
    c_max = measure_max_consumption(layers, dataflow, kind, cost_model, space)
    return PlatformConstraint(kind=kind, budget=fraction * c_max,
                              platform=platform)
