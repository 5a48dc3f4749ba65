"""Task specification: one (model, dataflow, objective, constraint) cell.

Every table row and figure panel in the paper's evaluation is one such
cell; ``TaskSpec`` builds the matching environment (for the RL agents) and
genome evaluator (for the baselines) from a shared cost model, so both see
exactly the same problem.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import List, Optional, Sequence, Union

from repro.core.constraints import ResourceConstraint, platform_constraint
from repro.core.evaluator import Constraint, DesignPointEvaluator
from repro.costmodel.estimator import CostModel
from repro.env.environment import HWAssignmentEnv
from repro.env.spaces import ActionSpace
from repro.models.layers import Layer
from repro.models.zoo import get_model


def default_epochs(fallback: int = 200) -> int:
    """Search budget per method: ``REPRO_EPOCHS`` env var or ``fallback``.

    The paper uses Eps = 5000; benches default to a scaled-down budget so
    the whole suite completes in minutes (see DESIGN.md substitutions).
    """
    value = os.environ.get("REPRO_EPOCHS")
    if value is None:
        return fallback
    epochs = int(value)
    if epochs < 1:
        raise ValueError("REPRO_EPOCHS must be >= 1")
    return epochs


@dataclass
class TaskSpec:
    """A fully specified search problem.

    Attributes:
        model: Registry name or an explicit layer list.
        dataflow: Style, ignored when ``mix`` is True.
        objective: Any objective spec (name, ``weighted:``/``multi:``
            string, spec dict, or :class:`repro.objectives.Objective`
            instance); the environment and evaluator resolve it.
        constraint_kind: "area" | "power" | "resource".
        platform: Table-II tier, used for area/power constraints.
        mix: Per-layer dataflow co-automation.
        num_levels: Action levels L.
        max_pes: Top of the PE ladder.
        deployment: "lp" or "ls".
        max_total_pes / max_total_l1: FPGA caps when
            ``constraint_kind == "resource"`` (Table VIII).
        layer_slice: Optionally restrict to the first N layers (used to
            scale down bench runtimes; None = full model).
    """

    model: Union[str, Sequence[Layer]]
    dataflow: str = "dla"
    objective: object = "latency"
    constraint_kind: str = "area"
    platform: str = "iot"
    mix: bool = False
    num_levels: int = 12
    max_pes: int = 128
    deployment: str = "lp"
    max_total_pes: int = 4096
    max_total_l1: int = 8192
    layer_slice: Optional[int] = None

    def layers(self) -> List[Layer]:
        layers = (get_model(self.model) if isinstance(self.model, str)
                  else list(self.model))
        if self.layer_slice is not None:
            layers = layers[: self.layer_slice]
        return layers

    def space(self) -> ActionSpace:
        return ActionSpace.build(dataflow=self.dataflow,
                                 num_levels=self.num_levels,
                                 max_pes=self.max_pes, mix=self.mix)

    def constraint(self, cost_model: CostModel) -> Constraint:
        if self.constraint_kind == "resource":
            return ResourceConstraint(max_pes=self.max_total_pes,
                                      max_l1_bytes=self.max_total_l1,
                                      platform=self.platform)
        return platform_constraint(
            self.layers(), self.dataflow, self.constraint_kind,
            self.platform, cost_model,
            ActionSpace.build(self.dataflow, self.num_levels, self.max_pes))

    def make_env(self, cost_model: CostModel,
                 constraint: Optional[Constraint] = None
                 ) -> HWAssignmentEnv:
        """A fresh environment (per-search state starts clean)."""
        constraint = constraint or self.constraint(cost_model)
        return HWAssignmentEnv(
            self.layers(), self.space(), self.objective, constraint,
            cost_model, dataflow=None if self.mix else self.dataflow)

    def make_evaluator(self, cost_model: CostModel,
                       constraint: Optional[Constraint] = None
                       ) -> DesignPointEvaluator:
        """A fresh genome evaluator for the baseline optimizers."""
        constraint = constraint or self.constraint(cost_model)
        return DesignPointEvaluator(
            self.layers(), self.objective, constraint, cost_model,
            self.space(), dataflow=None if self.mix else self.dataflow,
            deployment=self.deployment)
