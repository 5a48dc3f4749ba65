"""The *baseline* genetic algorithm of Section IV-A3.

This is the general GA the paper compares against -- population 100,
ceil(Eps/100) generations, mutation and crossover rates 0.05 -- not the
specially designed local fine-tuning GA of stage 2 (that lives in
``repro.ga``).  Crossover blends two parents' genes globally, which is
exactly what the paper observes breaking the learnt per-layer budget
relationship: many children violate the constraint and pollute later
generations, so the baseline GA returns NAN under tight constraints.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.optim.base import GenomeOptimizer


class GeneticAlgorithm(GenomeOptimizer):
    """Generational GA with tournament selection and uniform crossover,
    breeding each generation as one ``(population, genes)`` array."""

    name = "ga"

    def __init__(self, population_size: int = 100, mutation_rate: float = 0.05,
                 crossover_rate: float = 0.05, tournament_size: int = 3,
                 elite: int = 2, seed=None) -> None:
        super().__init__(seed=seed)
        if population_size < 2:
            raise ValueError("population_size must be >= 2")
        if not 0.0 <= mutation_rate <= 1.0:
            raise ValueError("mutation_rate must be in [0, 1]")
        if not 0.0 <= crossover_rate <= 1.0:
            raise ValueError("crossover_rate must be in [0, 1]")
        if tournament_size < 2:
            raise ValueError("tournament_size must be >= 2")
        if not 0 <= elite < population_size:
            raise ValueError("elite must be in [0, population_size)")
        self.population_size = population_size
        self.mutation_rate = mutation_rate
        self.crossover_rate = crossover_rate
        self.tournament_size = tournament_size
        self.elite = elite

    # ------------------------------------------------------------------
    def _score(self, population: np.ndarray) -> Optional[np.ndarray]:
        """Each genome's cost (``inf`` when infeasible) via one batched
        evaluation; ``None`` when the budget ran out mid-generation (the
        scalar loop likewise abandoned partially-scored generations)."""
        outcomes = self.evaluate_batch(population)
        if len(outcomes) < len(population):
            return None
        return np.array([outcome.cost if outcome.feasible else np.inf
                         for outcome in outcomes])

    # ------------------------------------------------------------------
    def _run(self) -> None:
        population = np.array(self.random_genomes(self.population_size))
        costs = self._score(population)
        children = self.population_size - self.elite
        while costs is not None and not self.exhausted:
            winners = self.tournament(costs, 2 * children,
                                      self.tournament_size)
            offspring = self.resample_mutation(self.uniform_crossover(
                population[winners[:children]], population[winners[children:]],
                self.crossover_rate), self.mutation_rate)
            elite = population[np.argsort(costs, kind="stable")[:self.elite]]
            population = np.concatenate([elite, offspring])
            costs = self._score(population)
