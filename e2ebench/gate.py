"""Correctness gate: every reported result is checked before it counts.

A result passes when

* its best design, re-scored through the scalar reference path
  (``DesignPointEvaluator.evaluate_raw`` under the task's constraint, on
  a fresh cost model), is feasible and costs exactly ``best_cost``;
* its best-so-far ``history`` never increases;
* it spent no more than its budget (design-point evaluations for genome
  methods, episodes for RL, stage-1 episodes plus stage-2 generations
  for the two-stage pipeline).

A search that found no feasible design reports none; that is a search
outcome, not a defect, and only the history and budget checks apply.
"""

from __future__ import annotations

from typing import List


def budget_limit(method: str, budget: int, finetune: int) -> tuple:
    """``(result attribute, limit)`` the method's spending must respect."""
    from repro import get_method
    from repro.search.registry import KIND_EPISODIC, KIND_TWO_STAGE

    kind = get_method(method).kind
    if kind == KIND_TWO_STAGE:
        return "episodes", budget + finetune
    if kind == KIND_EPISODIC:
        return "episodes", budget
    return "evaluations", budget


def check(task, method: str, budget: int, finetune: int,
          result) -> List[str]:
    """Problems with one :class:`~repro.rl.common.SearchResult` of
    ``method`` on ``task`` (a :class:`~repro.experiments.tasks.TaskSpec`);
    empty when it passes."""
    from repro import CostModel

    problems = []
    history = list(result.history)
    if any(later > earlier for earlier, later in zip(history, history[1:])):
        problems.append(f"{method}: best-so-far history increases")
    attribute, limit = budget_limit(method, budget, finetune)
    spent = getattr(result, attribute)
    if spent > limit:
        problems.append(f"{method}: {attribute} {spent} > budget {limit}")
    if result.best_cost is None:
        return problems
    cost_model = CostModel()
    evaluator = task.make_evaluator(cost_model, task.constraint(cost_model))
    outcome = evaluator.evaluate_raw(
        [tuple(assignment) for assignment in result.best_assignments])
    if not outcome.feasible:
        problems.append(f"{method}: best design is infeasible on re-score")
    if outcome.cost != result.best_cost:
        problems.append(f"{method}: best_cost {result.best_cost!r} != "
                        f"re-scored {outcome.cost!r}")
    return problems
