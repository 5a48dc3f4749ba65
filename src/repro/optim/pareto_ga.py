"""NSGA-II-style multi-objective (Pareto) search over level genomes.

The paper's Cloud/IoT/IoTx grid is a slice of a latency/energy/area
trade-off surface; ``pareto-ga`` searches that surface directly.  It is a
generational GA with the NSGA-II selection machinery -- vectorized
non-dominated sorting plus crowding-distance diversity pressure (see
:mod:`repro.objectives.pareto`) -- breeding level-index genomes with the
same uniform-crossover / per-gene-resample operators as the baseline GA,
and scoring every generation through the batched population evaluator.

The evaluator's objective decides the trade-off axes: a
:class:`~repro.objectives.MultiObjective` spec (e.g.
``"multi:latency,energy"``) spans a real front; a scalar objective
degenerates to single-objective search whose "front" is the best point.
Scalar bookkeeping (``best_cost``, the convergence history, observer
steps) tracks the *primary* component, so sessions, early stopping, and
the comparison grids work unchanged; the full non-dominated front rides
in ``SearchResult.extra["pareto_front"]`` as JSON-safe records and
surfaces as ``SessionResult.pareto_front``.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.objectives import (
    CostTotals,
    MultiObjective,
    ParetoArchive,
    constrained_rows,
    crowding_distance,
    non_dominated_sort,
)
from repro.optim.base import GenomeOptimizer


class ParetoGA(GenomeOptimizer):
    """NSGA-II over level-index genomes under an evaluation budget.

    Args:
        population_size: Individuals per generation (mu = lambda).
        mutation_rate: Per-gene uniform-resample probability.
        crossover_rate: Per-child probability of uniform crossover.
        tournament_size: Contenders per (rank, crowding) tournament.
        archive_size: Cap on the kept non-dominated front; crowding
            pruning drops the most crowded point when exceeded.
        seed: RNG seed (registry contract: ``default_rng(seed)``).
    """

    name = "pareto-ga"

    def __init__(self, population_size: int = 50,
                 mutation_rate: float = 0.1, crossover_rate: float = 0.9,
                 tournament_size: int = 2, archive_size: int = 128,
                 seed=None) -> None:
        super().__init__(seed=seed)
        if population_size < 2:
            raise ValueError("population_size must be >= 2")
        if not 0.0 <= mutation_rate <= 1.0:
            raise ValueError("mutation_rate must be in [0, 1]")
        if not 0.0 <= crossover_rate <= 1.0:
            raise ValueError("crossover_rate must be in [0, 1]")
        self.population_size = population_size
        self.mutation_rate = mutation_rate
        self.crossover_rate = crossover_rate
        self.tournament_size = max(2, tournament_size)
        self.archive_size = archive_size
        self._archive: Optional[ParetoArchive] = None
        self._multi: Optional[MultiObjective] = None

    # ------------------------------------------------------------------
    def _objectives(self) -> MultiObjective:
        """The trade-off axes: the evaluator's multi objective, or its
        scalar objective wrapped as a single-component front."""
        objective = self._evaluator.objective
        if objective.is_multi:
            return objective
        return MultiObjective([objective])

    def _component_rows(self, outcomes) -> np.ndarray:
        """(n, k) objective matrix under constrained dominance.

        Feasible rows carry their true component values; infeasible rows
        are re-encoded by :func:`~repro.objectives.pareto
        .constrained_rows` to a huge finite base scaled by normalized
        budget violation, so selection pressure points infeasible
        individuals *toward* the feasible region (smaller violation
        dominates) instead of scoring them all identically ``+inf``.
        Feasible-only generations are bit-identical to the plain sort.

        The generation's aggregate figures are gathered into four arrays
        and evaluated in *one* vectorized ``evaluate_components`` call --
        a per-outcome numpy dispatch loop would rival the batched kernel
        itself at real population sizes."""
        n = len(outcomes)
        k = len(self._multi.components)
        if n == 0:
            return np.empty((0, k), dtype=np.float64)
        totals = CostTotals(*(
            np.fromiter((getattr(outcome.report, field)
                         for outcome in outcomes), np.float64, count=n)
            for field in ("latency_cycles", "energy_nj", "area_um2",
                          "power_mw")))
        rows = np.ascontiguousarray(
            self._multi.evaluate_components(totals).T)
        feasible = np.fromiter((outcome.feasible for outcome in outcomes),
                               bool, count=n)
        used = np.fromiter((outcome.used for outcome in outcomes),
                           np.float64, count=n)
        budget = self._constraint_budget()
        violation = np.maximum(0.0, used - budget) / budget
        return constrained_rows(rows, feasible, violation)

    def _constraint_budget(self) -> float:
        """The scalar budget ``EvalResult.used`` is measured against
        (platform area/power budget, or the FPGA PE cap)."""
        constraint = self._evaluator.constraint
        budget = getattr(constraint, "budget", None)
        if budget is None:
            budget = float(constraint.max_pes)
        return float(budget)

    def _score(self, population: List[List[int]]):
        """The generation's (n, k) value matrix, or ``None`` when the
        budget ran out mid-generation (the truncated set is abandoned
        for *breeding*, matching the baseline optimizers -- but every
        evaluated outcome still enters the archive: those evaluations
        were charged to the budget, so the reported front must reflect
        them)."""
        outcomes = self.evaluate_batch(population)
        values = self._component_rows(outcomes)
        for genome, outcome, row in zip(population, outcomes, values):
            if outcome.feasible:
                self._archive.add(row, list(genome))
        if len(outcomes) < len(population):
            return None
        return values

    # ------------------------------------------------------------------
    @staticmethod
    def _selection_order(values: np.ndarray) -> np.ndarray:
        """Row indices by NSGA-II preference: front rank ascending, then
        crowding distance descending, then index (``np.lexsort`` is
        stable).  The tournament and the survivor cut both read it."""
        ranks = non_dominated_sort(values)
        crowding = crowding_distance(values, ranks)
        return np.lexsort((-crowding, ranks))

    def _select(self, position: np.ndarray) -> int:
        """Tournament on (rank asc, crowding desc, index asc): of the
        drawn contenders, the one ``position`` (each row's place in the
        selection order) puts first."""
        contenders = self.rng.integers(0, len(position),
                                       size=self.tournament_size)
        return min(contenders, key=position.__getitem__)

    # ------------------------------------------------------------------
    def _run(self) -> None:
        self._multi = self._objectives()
        self._archive = ParetoArchive(max_size=self.archive_size)

        # Never breed more individuals than the budget can score: tiny
        # budgets still complete a (smaller) generation and report a
        # front instead of abandoning a truncated one.
        population_size = max(2, min(self.population_size, self._budget))
        population = self.random_genomes(population_size)
        values = self._score(population)
        if values is None:
            self._result.extra.update(self.extra_so_far())
            return
        while not self.exhausted:
            # The inverse permutation: each row's place in the order.
            position = np.argsort(self._selection_order(values))
            offspring: List[List[int]] = []
            while len(offspring) < population_size:
                parent = population[self._select(position)]
                if self.rng.random() < self.crossover_rate:
                    other = population[self._select(position)]
                    child = self.uniform_crossover(parent, other)
                else:
                    child = list(parent)
                offspring.append(self.resample_mutation(
                    child, self.mutation_rate))
            offspring_values = self._score(offspring)
            if offspring_values is None:
                break
            # (mu + lambda) environmental selection over the union.
            union = population + offspring
            union_values = np.concatenate([values, offspring_values])
            keep = self._selection_order(union_values)[: population_size]
            population = [union[i] for i in keep]
            values = union_values[keep]
        self._result.extra.update(self.extra_so_far())

    def extra_so_far(self) -> dict:
        """The archive as the JSON-safe front records: every generation
        scored so far.  A generation an observer stopped part-way never
        reached :meth:`_score`, so it is not in the front."""
        names = self._multi.component_names
        front = []
        for values, genome in self._archive.front():
            assignments = self._evaluator.decode_genome(genome)
            front.append({
                "objectives": {name: float(value)
                               for name, value in zip(names, values)},
                "genome": list(genome),
                "assignments": [list(assignment)
                                for assignment in assignments],
            })
        # Present the front swept along the primary axis; ties keep
        # first-seen (deterministic) order via the stable sort.
        front.sort(key=lambda point: tuple(point["objectives"].values()))
        return {"pareto_front": front, "objective_names": list(names)}
