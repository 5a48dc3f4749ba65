"""The specially designed local fine-tuning GA (paper Section III-G).

The RL stage navigates the coarse Table-I levels; this GA then polishes the
solution in the *raw* integer space (any PE count, any buffer size), using
two conservative operators that preserve the constraint relationship the RL
stage learnt:

* **Local mutation** -- a gene moves at most ``step`` away from its current
  value (e.g. PE=64 -> [60, 68] for step 4), keeping most offspring valid.
* **Local crossover** -- instead of blending two parents (which the paper
  shows breaks the learnt per-layer budget split), the (PE, Buffer) tuples
  of two layers are swapped *within one* genome.

The first population is seeded with the stage-1 solution.  Each genome is
one ``(layers, 2)`` int64 array of (PE, buffer) rows -- ``(layers, 3)``
when the seed carries styles, the third column holding each style's
``STYLE_INDEX`` code -- from the seed to the returned design, so a
generation is scored as one stacked array and memoized by its bytes.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.evaluator import DesignPointEvaluator, EvalResult, \
    RawAssignment, raw_assignments, raw_genome
from repro.optim.base import DrawSizes, masked_draws
from repro.rl.common import SearchResult

#: ``(layers, 2|3)`` int64 rows of (pes, l1_bytes[, style code]).
Genome = np.ndarray


def raw_bounds(space) -> Dict[str, int]:
    """The raw range stage 2 searches for an action ``space``, as
    :class:`LocalGA` options: up to the top PE level and twice the top
    buffer level."""
    return {"max_pes": max(space.pe_levels),
            "max_l1_bytes": 2 * max(space.buf_levels)}


class LocalGA:
    """Local-search GA seeded with a known-good design point.

    Args:
        population_size: Individuals per generation (paper: 20).
        mutation_rate: Per-gene local-mutation probability (paper: 0.05).
        crossover_rate: Per-individual layer-swap probability (paper: 0.2).
        mutation_step: Maximum per-gene move (paper: 4).
        max_pes: Raw PE upper bound.
        max_l1_bytes: Raw buffer upper bound.
        crossover_mode: "local" (the paper's within-genome layer swap) or
            "global" (conventional two-parent gene blending) -- the latter
            exists only for the ablation that reproduces the paper's
            argument that blending breaks the learnt budget split.
        seed: RNG seed.

    Each generation's offspring are scored as one batched population,
    and fitness is memoized by genome within one search, so duplicate
    offspring -- common with elitism and low mutation rates -- never
    re-hit the estimator; the hit count is exposed on
    :attr:`SearchResult.cache_hits`.
    """

    name = "local-ga"

    def __init__(self, population_size: int = 20, mutation_rate: float = 0.05,
                 crossover_rate: float = 0.2, mutation_step: int = 4,
                 max_pes: int = 128, max_l1_bytes: int = 2048,
                 elite: int = 2, crossover_mode: str = "local",
                 seed: Optional[int] = None) -> None:
        if population_size < 2:
            raise ValueError("population_size must be >= 2")
        if mutation_step < 1:
            raise ValueError("mutation_step must be >= 1")
        if not 0.0 <= mutation_rate <= 1.0:
            raise ValueError("mutation_rate must be in [0, 1]")
        if not 0.0 <= crossover_rate <= 1.0:
            raise ValueError("crossover_rate must be in [0, 1]")
        if crossover_mode not in ("local", "global"):
            raise ValueError(
                f"unknown crossover_mode {crossover_mode!r}")
        self.crossover_mode = crossover_mode
        self.population_size = population_size
        self.mutation_rate = mutation_rate
        self.crossover_rate = crossover_rate
        self.mutation_step = mutation_step
        self.max_pes = max_pes
        self.max_l1_bytes = max_l1_bytes
        self.elite = max(1, elite)
        self.rng = np.random.default_rng(seed)
        self._memo: Dict[bytes, float] = {}
        self._hits = 0
        #: ((layers, step), the mutation's draw sizes), built on first use.
        self._moves: Tuple[Tuple[int, int], DrawSizes] = ((0, 0),
                                                           DrawSizes(()))

    # ------------------------------------------------------------------
    def _mutate(self, genome: Genome) -> Genome:
        """Move each PE and buffer value (in that order, layer by layer)
        by a uniform step in ``[-step, step]`` with probability
        ``mutation_rate``, clamped to ``[1, max]``.  A move is drawn as
        ``integers(2 * step + 1) - step``: the same stream as
        ``integers(-step, step + 1)``."""
        step = self.mutation_step
        child = genome.copy()
        shape, sizes = self._moves
        if shape != (len(child), step):
            sizes = DrawSizes([2 * step + 1] * (2 * len(child)))
            self._moves = ((len(child), step), sizes)
        moves = masked_draws(self.rng, self.mutation_rate, sizes)
        for index, draw in moves.items():
            layer, slot = divmod(index, 2)
            bound = self.max_l1_bytes if slot else self.max_pes
            child[layer, slot] = min(
                max(int(child[layer, slot]) + draw - step, 1), bound)
        return child

    def _local_crossover(self, genome: Genome) -> Genome:
        """Swap the full assignments of two layers within one genome."""
        if len(genome) < 2:
            return genome
        i, j = self.rng.choice(len(genome), size=2, replace=False)
        child = genome.copy()
        child[[i, j]] = genome[[j, i]]
        return child

    def _global_crossover(self, a: Genome, b: Genome) -> Genome:
        """Conventional uniform blending of two parents (ablation only):
        each layer's row comes from ``b`` on a ``random() < 0.5`` draw.
        One draw of ``len(a)`` doubles is the stream of as many
        ``random()`` calls."""
        return np.where(self.rng.random(len(a))[:, None] < 0.5, b, a)

    @staticmethod
    def _cost_of(outcome: EvalResult) -> float:
        """The GA's fitness rule: objective cost, infinite if infeasible."""
        return outcome.cost if outcome.feasible else float("inf")

    def _fitness_many(self, evaluator: DesignPointEvaluator,
                      genomes: Sequence[Genome]) -> List[float]:
        """Fitness of many genomes: one batched estimator call, with
        duplicate genomes (within the batch or across the whole search)
        served from the memo instead of re-hitting the estimator."""
        # Every genome of a search shares the seed's shape and dtype, so
        # equal genomes have equal bytes.
        keys = [genome.tobytes() for genome in genomes]
        pending: Dict[bytes, Genome] = {}
        for key, genome in zip(keys, genomes):
            if key in self._memo or key in pending:
                self._hits += 1
            else:
                pending[key] = genome
        if pending:
            outcomes = evaluator.evaluate_population_raw(
                np.stack(list(pending.values())))
            for key, outcome in zip(pending, outcomes):
                self._memo[key] = self._cost_of(outcome)
        return [self._memo[key] for key in keys]

    # ------------------------------------------------------------------
    def search(self, evaluator: DesignPointEvaluator,
               initial: Sequence[RawAssignment],
               generations: int) -> SearchResult:
        """Fine-tune ``initial`` for ``generations`` GA generations.

        The initial point is evaluated first and is never lost (elitism), so
        the result is monotonically at least as good as the seed.
        """
        if generations < 1:
            raise ValueError("generations must be >= 1")
        result = SearchResult(algorithm=self.name)
        started = time.perf_counter()
        self._memo = {}
        self._hits = 0

        seed_genome = raw_genome(initial)
        genomes: List[Genome] = [seed_genome]
        for _ in range(self.population_size - 1):
            genomes.append(self._mutate(seed_genome))
        population: List[Tuple[float, Genome]] = list(
            zip(self._fitness_many(evaluator, genomes), genomes))

        for _ in range(generations):
            population.sort(key=lambda item: item[0])
            survivors = population[: max(self.elite,
                                         self.population_size // 2)]
            next_population = list(population[: self.elite])
            # Breed the full offspring set first (fitness consumes no
            # randomness), then score it as one batched evaluation.
            offspring: List[Genome] = []
            while len(next_population) + len(offspring) \
                    < self.population_size:
                _, parent = survivors[
                    int(self.rng.integers(len(survivors)))]
                child = parent
                if self.rng.random() < self.crossover_rate:
                    if self.crossover_mode == "local":
                        child = self._local_crossover(child)
                    else:
                        _, other = survivors[
                            int(self.rng.integers(len(survivors)))]
                        child = self._global_crossover(child, other)
                offspring.append(self._mutate(child))
            next_population.extend(
                zip(self._fitness_many(evaluator, offspring), offspring))
            population = next_population
            best_cost = min(cost for cost, _ in population)
            result.record(None if best_cost == float("inf") else best_cost)

        population.sort(key=lambda item: item[0])
        best_cost, best_genome = population[0]
        if best_cost != float("inf"):
            result.best_cost = best_cost
            result.best_assignments = raw_assignments(best_genome)
        result.wall_time_s = time.perf_counter() - started
        # ``evaluations`` keeps its historical meaning -- fitness samples
        # the search consumed -- so sample-efficiency comparisons against
        # the non-memoizing methods stay apples-to-apples; ``cache_hits``
        # says how many of those never reached the estimator.
        result.evaluations = evaluator.evaluations + self._hits
        result.cache_hits = self._hits
        result.episodes = generations
        return result
