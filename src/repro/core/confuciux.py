"""The outcome of the two-stage ConfuciuX search (paper Figure 3).

Stage 1 trains a REINFORCE agent over the coarse Table-I action levels
(global search); stage 2 seeds the local GA with the stage-1 solution and
polishes it in the raw integer space (local fine-tuning).  The session's
two-stage runner (:func:`repro.search.session.run_two_stage`) runs both
and returns a :class:`ConfuciuXResult` as the session's ``detail``: the
first feasible value, the converged global value, the fine-tuned value,
the convergence traces (Fig. 7 / Fig. 9), and the constraint-utilization
report.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.core.constraints import PlatformConstraint
# Nothing here calls it, but e2ebench's traced run requires this
# module-level binding (``REQUIRED_BINDINGS`` in e2ebench/layers.py).
from repro.core.constraints import platform_constraint  # noqa: F401
from repro.core.evaluator import Constraint
from repro.costmodel.report import UtilizationReport
from repro.rl.common import SearchResult


@dataclass
class ConfuciuXResult:
    """Everything ConfuciuX reports for one task."""

    objective: object
    constraint: Constraint
    global_result: SearchResult
    finetune_result: Optional[SearchResult]

    @property
    def initial_valid_cost(self) -> Optional[float]:
        """The first feasible value the global stage found (Table VII)."""
        for value in self.global_result.history:
            if value != float("inf"):
                return value
        return None

    @property
    def global_cost(self) -> Optional[float]:
        return self.global_result.best_cost

    @property
    def best_cost(self) -> Optional[float]:
        if self.finetune_result and self.finetune_result.best_cost is not None:
            return self.finetune_result.best_cost
        return self.global_cost

    @property
    def best_assignments(self) -> Optional[Tuple]:
        if (self.finetune_result
                and self.finetune_result.best_assignments is not None):
            return self.finetune_result.best_assignments
        return self.global_result.best_assignments

    @property
    def trace(self) -> List[float]:
        """Best-so-far cost per epoch across both stages (Fig. 9)."""
        combined = list(self.global_result.history)
        if self.finetune_result:
            floor = combined[-1] if combined else float("inf")
            for value in self.finetune_result.history:
                floor = min(floor, value)
                combined.append(floor)
        return combined

    def improvement_fractions(self) -> Tuple[Optional[float], Optional[float]]:
        """(stage-1 improvement over first valid, stage-2 over stage-1),
        the two "Impr. (%)" columns of Table VII, as fractions."""
        first = self.initial_valid_cost
        stage1 = self.global_cost
        stage2 = (self.finetune_result.best_cost
                  if self.finetune_result else None)
        impr1 = None if (first is None or stage1 is None or first == 0) \
            else (first - stage1) / first
        impr2 = None if (stage1 is None or stage2 is None or stage1 == 0) \
            else (stage1 - stage2) / stage1
        return impr1, impr2

    def utilization(self) -> Optional[UtilizationReport]:
        """Constraint-utilization report for the final solution."""
        if self.best_cost is None:
            return None
        used = self._final_used
        budget = (self.constraint.budget
                  if isinstance(self.constraint, PlatformConstraint)
                  else float(self.constraint.max_pes))
        return UtilizationReport(constraint=self.constraint.kind,
                                 budget=budget, used=used)

    _final_used: float = field(default=0.0, repr=False)
