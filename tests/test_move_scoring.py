"""``DesignPointEvaluator.evaluate_move``: a one-layer move re-prices that
layer from the base design's per-layer reports, and must equal a whole
``evaluate_genome`` field for field, per-layer reports included.

Each task kind reaches another branch of the move path: LP area and
energy objectives, MIX (a style gene per layer), a power budget, the
FPGA caps (checked on the decoded assignments) and LS (which scores the
whole genome instead).
"""

import numpy as np
import pytest

from repro.costmodel import CostModel
from repro.experiments.tasks import TaskSpec
from repro.optim import SimulatedAnnealing
from repro.optim.base import GenomeOptimizer

SLICE = 8

#: Budgets that some moves meet and others break: the IoT area tier,
#: power budgets (cloud, and IoT for LS) and the default FPGA caps.
TASKS = {
    "lp-area": TaskSpec(model="mobilenet_v2", layer_slice=SLICE),
    "mix": TaskSpec(model="mobilenet_v2", layer_slice=SLICE, mix=True),
    "power": TaskSpec(model="mobilenet_v2", layer_slice=SLICE,
                      constraint_kind="power", platform="cloud"),
    "fpga": TaskSpec(model="mobilenet_v2", layer_slice=SLICE,
                     constraint_kind="resource"),
    "ls": TaskSpec(model="mobilenet_v2", layer_slice=SLICE,
                   deployment="ls", constraint_kind="power"),
    "energy": TaskSpec(model="mobilenet_v2", layer_slice=SLICE,
                       objective="energy"),
}


class Recorder:
    """A session tracker's ``record`` hook, keeping every call."""

    def __init__(self):
        self.records = []

    def record(self, cost, feasible, assignments_fn=None):
        self.records.append((cost, feasible, tuple(assignments_fn())))


def _evaluator(task, constraint):
    """An observed evaluator on a cost model of its own."""
    evaluator = task.make_evaluator(CostModel(), constraint)
    evaluator._tracker = Recorder()
    return evaluator


def _reference(task, constraint, genome):
    """``evaluate_genome`` on a fresh evaluator and cost model, and the
    tracker record it leaves."""
    evaluator = _evaluator(task, constraint)
    return (evaluator.evaluate_genome(genome),
            evaluator._tracker.records[-1])


def _moves(genome, bounds, per_step):
    """Every +-1 single-gene move of ``genome``, clipped to the gene's
    range as SA clips it: (candidate, moved layer)."""
    for gene, bound in enumerate(bounds):
        for step in (-1, 1):
            candidate = list(genome)
            candidate[gene] = min(max(genome[gene] + step, 0), bound - 1)
            yield candidate, gene // per_step


def _assert_move_matches(evaluator, task, constraint, candidate, base,
                         layer):
    before = evaluator.evaluations
    moved = evaluator.evaluate_move(candidate, base, layer)
    assert evaluator.evaluations == before + 1
    reference, record = _reference(task, constraint, candidate)
    assert moved == reference
    assert evaluator._tracker.records[-1] == record
    return moved


@pytest.mark.parametrize("name", TASKS)
def test_every_single_gene_move_equals_a_whole_evaluation(name):
    task = TASKS[name]
    constraint = task.constraint(CostModel())
    evaluator = _evaluator(task, constraint)
    space = evaluator.space
    bounds = space.head_sizes * SLICE
    rng = np.random.default_rng(37)
    feasible = set()
    for _ in range(4):
        genome = rng.integers(bounds).tolist()
        base = evaluator.evaluate_genome(genome)
        for candidate, layer in _moves(genome, bounds,
                                       space.actions_per_step):
            moved = _assert_move_matches(evaluator, task, constraint,
                                         candidate, base, layer)
            feasible.add(moved.feasible)
    assert feasible == {False, True}


@pytest.mark.parametrize("name", TASKS)
def test_a_walk_of_moves_from_moves_equals_whole_evaluations(name):
    """SA scores each move from the outcome of the move it accepted
    last, so the bases here are themselves re-priced moves."""
    task = TASKS[name]
    constraint = task.constraint(CostModel())
    evaluator = _evaluator(task, constraint)
    space = evaluator.space
    bounds = space.head_sizes * SLICE
    rng = np.random.default_rng(5)
    genome = rng.integers(bounds).tolist()
    base = evaluator.evaluate_genome(genome)
    for _ in range(60):
        gene = int(rng.integers(len(bounds)))
        genome[gene] = int(rng.integers(bounds[gene]))
        base = _assert_move_matches(evaluator, task, constraint,
                                    list(genome), base,
                                    gene // space.actions_per_step)


@pytest.mark.parametrize("name", TASKS)
def test_sa_searches_as_if_every_move_were_scored_whole(name, monkeypatch):
    """SA's walk, history and best design are those of scoring each move
    through ``evaluate``, as SA did before it re-priced moves."""
    def search():
        evaluator = TASKS[name].make_evaluator(CostModel())
        result = SimulatedAnnealing(seed=3).search(evaluator, 400)
        return (result.history, result.best_cost, result.best_genome,
                result.best_assignments, evaluator.evaluations)

    re_priced = search()
    monkeypatch.setattr(GenomeOptimizer, "evaluate_move",
                        lambda self, genome, base, layer:
                        self.evaluate(genome))
    assert re_priced == search()


def test_a_population_base_scores_the_whole_genome(monkeypatch):
    """A population's results carry no per-layer reports, so a move from
    one goes through ``evaluate_raw``."""
    task = TASKS["lp-area"]
    candidate = [4, 4] + [3, 4] * (SLICE - 1)
    reference = task.make_evaluator(CostModel()).evaluate_genome(candidate)
    evaluator = task.make_evaluator(CostModel())
    base = evaluator.evaluate_population([[3, 4] * SLICE,
                                          [5, 6] * SLICE])[0]
    assert base.report.per_layer == []
    calls = []
    evaluate_raw = type(evaluator).evaluate_raw
    monkeypatch.setattr(type(evaluator), "evaluate_raw",
                        lambda self, assignments: calls.append(1)
                        or evaluate_raw(self, assignments))
    assert evaluator.evaluate_move(candidate, base, 0) == reference
    assert calls == [1]


def test_a_move_decodes_and_checks_the_whole_genome():
    task = TASKS["lp-area"]
    evaluator = task.make_evaluator(CostModel())
    genome = [3, 4] * SLICE
    base = evaluator.evaluate_genome(genome)
    bad = list(genome)
    bad[-1] = evaluator.space.num_levels
    with pytest.raises(ValueError, match="out of range"):
        evaluator.evaluate_move(bad, base, 0)
    with pytest.raises(ValueError, match="genome length"):
        evaluator.evaluate_move(genome[:-2], base, 0)
