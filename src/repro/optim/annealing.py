"""Simulated annealing (Kirkpatrick et al. 1983) on the discrete genome.

Random-walk with exploitation: a neighbour mutates one gene by +-step; an
improving move is always accepted, a worsening one with probability
``exp(-delta / T)``.  The temperature and step size follow the paper's
setting (T = 10, step 1) adapted to the discrete integer space.  Infeasible
points carry infinite cost, so under tight constraints the walk can fail to
ever enter the feasible region -- the NAN rows of Table IV.

The walk is inherently sequential (each proposal depends on the previous
accept/reject), so it scores one genome at a time.  A restart's random
genome is scored whole (:meth:`GenomeOptimizer.evaluate`, the scalar
chain).  A move changes one layer, and the annealing step is defined on
the cost change a move makes, so each move re-prices only that layer
from the current design's outcome (:meth:`GenomeOptimizer.evaluate_move`),
with results equal to a whole evaluation.
"""

from __future__ import annotations

import math
from typing import List, Tuple

from repro.optim.base import GenomeOptimizer


class SimulatedAnnealing(GenomeOptimizer):
    """Discrete-space simulated annealing over level-index genomes."""

    name = "sa"

    def __init__(self, temperature: float = 10.0, step: int = 1,
                 cooling: float = 0.999, restarts: int = 5,
                 seed=None) -> None:
        super().__init__(seed=seed)
        if not temperature > 0:
            raise ValueError("temperature must be positive")
        if step < 1:
            raise ValueError("step must be >= 1")
        if not 0.0 < cooling <= 1.0:
            raise ValueError("cooling must be in (0, 1]")
        if restarts < 1:
            raise ValueError("restarts must be >= 1")
        self.temperature = temperature
        self.step = step
        self.cooling = cooling
        self.restarts = restarts

    def _neighbour(self, genome: List[int]) -> Tuple[List[int], int]:
        """A copy of ``genome`` with one gene moved by +-``step`` (clipped
        to its range), and the layer that gene belongs to."""
        space = self._evaluator.space
        per_step = space.actions_per_step
        candidate = list(genome)
        gene = int(self.rng.integers(len(candidate)))
        head = gene % per_step
        size = space.num_levels if head < 2 else len(space.dataflows)
        delta = self.step if self.rng.random() < 0.5 else -self.step
        candidate[gene] = int(min(max(candidate[gene] + delta, 0), size - 1))
        return candidate, gene // per_step

    def _run(self) -> None:
        budget_per_restart = max(1, self._budget // self.restarts)
        while not self.exhausted:
            current = self.random_genome()
            base = self.evaluate(current)
            current_cost = self._cost(base)
            temperature = self.temperature
            for _ in range(budget_per_restart - 1):
                if self.exhausted:
                    return
                candidate, layer = self._neighbour(current)
                moved = self.evaluate_move(candidate, base, layer)
                candidate_cost = self._cost(moved)
                if self._accept(current_cost, candidate_cost, temperature):
                    current, current_cost, base = (candidate,
                                                   candidate_cost, moved)
                temperature *= self.cooling

    @staticmethod
    def _cost(outcome) -> float:
        return outcome.cost if outcome.feasible else float("inf")

    def _accept(self, current: float, candidate: float,
                temperature: float) -> bool:
        if candidate <= current:
            return True
        if math.isinf(candidate):
            return False
        if math.isinf(current):
            return True
        # Scale-free acceptance: costs span orders of magnitude across
        # objectives, so the delta is taken on the relative difference.
        delta = (candidate - current) / max(abs(current), 1e-12)
        return self.rng.random() < math.exp(-delta / max(temperature, 1e-9))
