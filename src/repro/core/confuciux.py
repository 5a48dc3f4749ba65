"""The two-stage ConfuciuX pipeline (paper Figure 3).

Stage 1 trains a REINFORCE agent over the coarse Table-I action levels
(global search); stage 2 seeds the local GA with the stage-1 solution and
polishes it in the raw integer space (local fine-tuning).  The result
carries everything the paper reports: the first feasible value, the
converged global value, the fine-tuned value, the convergence traces
(Fig. 7 / Fig. 9), and the constraint-utilization report.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple, Union

from repro.core.constraints import (
    PlatformConstraint,
    ResourceConstraint,
    platform_constraint,
)
from repro.core.evaluator import Constraint, DesignPointEvaluator
from repro.costmodel.estimator import CostModel
from repro.costmodel.report import UtilizationReport
from repro.env.environment import HWAssignmentEnv
from repro.env.spaces import ActionSpace
from repro.ga.local_ga import LocalGA, raw_bounds
from repro.models.layers import Layer
from repro.rl.common import SearchResult
from repro.rl.reinforce import Reinforce


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


class ConfuciuX:
    """End-to-end autonomous HW resource assignment.

    Args:
        layers: Target DNN model.
        objective: Any objective spec (name, ``weighted:``/``multi:``
            string, spec dict, or :class:`repro.objectives.Objective`
            instance), minimized; stored as its JSON-safe spec.
        constraint: A prebuilt constraint, or None to derive one from
            ``platform``/``constraint_kind`` per Table II.
        dataflow: Fixed style, or None with ``mix=True`` for co-automation.
        mix: Let the agent pick a dataflow per layer (Section IV-D).
        num_levels: Action levels L (Table IX sweeps 10/12/14).
        policy: "rnn" (paper) or "mlp" (ablation).
        constraint_kind / platform: Used when ``constraint`` is None.
        cost_model: Shared estimator (a fresh one is built if omitted).
        seed: Master RNG seed for both stages.
    """

    def __init__(
        self,
        layers: Sequence[Layer],
        objective="latency",
        constraint: Optional[Constraint] = None,
        dataflow: Optional[str] = "dla",
        mix: bool = False,
        num_levels: int = 12,
        max_pes: int = 128,
        policy: str = "rnn",
        constraint_kind: str = "area",
        platform: str = "iot",
        cost_model: Optional[CostModel] = None,
        seed: Optional[int] = None,
    ) -> None:
        from repro.objectives import objective_spec

        self.layers = list(layers)
        # Canonical JSON-safe spec: ConfuciuXResult serializes it.
        self.objective = objective_spec(objective)
        self.cost_model = cost_model or CostModel()
        self.space = ActionSpace.build(
            dataflow=dataflow or "dla", num_levels=num_levels,
            max_pes=max_pes, mix=mix)
        self.dataflow = None if mix else dataflow
        if constraint is None:
            constraint = platform_constraint(
                self.layers, dataflow or "dla", constraint_kind, platform,
                self.cost_model, ActionSpace.build(dataflow or "dla",
                                                   num_levels, max_pes))
        self.constraint = constraint
        self.seed = seed
        self.policy = policy
        self.env = HWAssignmentEnv(
            self.layers, self.space, objective, constraint, self.cost_model,
            dataflow=self.dataflow)
        self._raw_evaluator: Optional[DesignPointEvaluator] = None

    # ------------------------------------------------------------------
    def run(self, *_args, **_kwargs) -> ConfuciuXResult:
        """Removed in 1.3 (deprecated since 1.1); kept only to point
        stragglers at the session API instead of an ``AttributeError``.

        Use::

            repro.explore(model=..., method="confuciux",
                          budget=global_epochs,
                          finetune=finetune_generations)

        (or ``repro.SearchSession`` with a ``SearchSpec``) -- results are
        bit-identical to what ``run`` produced.
        """
        raise RuntimeError(
            "ConfuciuX.run() was removed; drive the pipeline through the "
            "session API instead: repro.explore(model=..., "
            "method='confuciux', budget=<global_epochs>, "
            "finetune=<finetune_generations>) or repro.SearchSession. "
            "Results are bit-identical to the removed shim.")

    def _run(self, global_epochs: int = 500,
             finetune_generations: int = 200) -> ConfuciuXResult:
        """Both stages, shim-free (the session API calls this)."""
        # Fresh evaluation counters per run: the evaluator is shared
        # between the fine-tune stage and the utilization measurement
        # within one run, but must not leak counts across runs.
        self._raw_evaluator = None
        agent = Reinforce(policy=self.policy, seed=self.seed)
        global_result = agent.search(self.env, global_epochs)

        finetune_result = None
        if finetune_generations > 0 and global_result.best_cost is not None:
            finetune_result = self._finetune(global_result,
                                             finetune_generations)

        result = ConfuciuXResult(
            objective=self.objective,
            constraint=self.constraint,
            global_result=global_result,
            finetune_result=finetune_result,
        )
        result._final_used = self._used_of_best(result)
        return result

    def _evaluator(self) -> DesignPointEvaluator:
        """The raw-space evaluator, built once and shared between the
        fine-tune stage and the final utilization measurement."""
        if self._raw_evaluator is None:
            self._raw_evaluator = DesignPointEvaluator(
                self.layers, self.objective, self.constraint,
                self.cost_model, self.space, dataflow=self.dataflow)
        return self._raw_evaluator

    def _finetune(self, global_result: SearchResult,
                  generations: int) -> SearchResult:
        ga = LocalGA(seed=self.seed, **raw_bounds(self.space))
        return ga.search(self._evaluator(), global_result.best_assignments,
                         generations)

    def _used_of_best(self, result: ConfuciuXResult) -> float:
        assignments = result.best_assignments
        if assignments is None:
            return 0.0
        return self._evaluator().evaluate_raw(assignments).used
