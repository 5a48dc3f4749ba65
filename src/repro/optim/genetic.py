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

from typing import List, Optional, Tuple

from repro.optim.base import GenomeOptimizer


class GeneticAlgorithm(GenomeOptimizer):
    """Generational GA with tournament selection and uniform crossover."""

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
        self.population_size = population_size
        self.mutation_rate = mutation_rate
        self.crossover_rate = crossover_rate
        self.tournament_size = max(2, tournament_size)
        self.elite = max(0, elite)

    # ------------------------------------------------------------------
    def _score(self, population: List[List[int]]
               ) -> Optional[List[Tuple[float, List[int]]]]:
        """Fitness of a whole generation via one batched evaluation;
        ``None`` when the budget ran out mid-generation (the scalar loop
        likewise abandoned partially-scored generations)."""
        outcomes = self.evaluate_batch(population)
        if len(outcomes) < len(population):
            return None
        return [(outcome.cost if outcome.feasible else float("inf"), genome)
                for genome, outcome in zip(population, outcomes)]

    def _tournament(self, scored: List[Tuple[float, List[int]]]
                    ) -> List[int]:
        contenders = self.rng.integers(0, len(scored),
                                       size=self.tournament_size)
        best = min(contenders, key=lambda i: scored[i][0])
        return scored[best][1]

    def _crossover(self, a: List[int], b: List[int]) -> List[int]:
        return self.uniform_crossover(a, b)

    def _mutate(self, genome: List[int]) -> List[int]:
        return self.resample_mutation(genome, self.mutation_rate)

    # ------------------------------------------------------------------
    def _run(self) -> None:
        population = self.random_genomes(self.population_size)
        scored = self._score(population)
        if scored is None:
            return
        while not self.exhausted:
            scored.sort(key=lambda item: item[0])
            next_generation = [genome for _, genome in scored[:self.elite]]
            while len(next_generation) < self.population_size:
                parent = self._tournament(scored)
                if self.rng.random() < self.crossover_rate:
                    other = self._tournament(scored)
                    child = self._crossover(parent, other)
                else:
                    child = list(parent)
                next_generation.append(self._mutate(child))
            scored = self._score(next_generation)
            if scored is None:
                return
