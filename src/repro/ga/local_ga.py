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
``STYLE_INDEX`` code -- and a generation is one ``(P, layers, 2|3)``
stack, bred with one Generator call per kind of draw, scored as one
batched population and memoized by each genome's bytes.
"""

from __future__ import annotations

import time
from typing import Dict, Optional, Sequence

import numpy as np

from repro.core.evaluator import DesignPointEvaluator, EvalResult, \
    RawAssignment, raw_assignments, raw_genome
from repro.rl.common import SearchResult


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
        elite: Best genomes carried into the next generation unchanged
            (at least 1, fewer than ``population_size``).
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
        if not 1 <= elite < population_size:
            raise ValueError("elite must be in [1, population_size)")
        if max_pes < 1:
            raise ValueError("max_pes must be >= 1")
        if max_l1_bytes < 1:
            raise ValueError("max_l1_bytes must be >= 1")
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
        self.elite = elite
        self.rng = np.random.default_rng(seed)
        self._memo: Dict[bytes, float] = {}
        self._hits = 0

    # ------------------------------------------------------------------
    def _mutate(self, genomes: np.ndarray) -> np.ndarray:
        """A mutated copy of a ``(count, layers, 2|3)`` stack: each PE and
        buffer value moves by a uniform step in ``[-step, step]`` with
        probability ``mutation_rate``, clipped to ``[1, max]``; a style
        column is never touched.  One ``random`` call draws the mask, one
        ``integers`` call the hit values' moves."""
        step = self.mutation_step
        rows, layers, slots = (self.rng.random(genomes.shape[:2] + (2,))
                               < self.mutation_rate).nonzero()
        moves = self.rng.integers(-step, step + 1, size=len(rows))
        mutated = genomes.copy()
        mutated[rows, layers, slots] = np.clip(
            genomes[rows, layers, slots] + moves, 1,
            np.array([self.max_pes, self.max_l1_bytes])[slots])
        return mutated

    def _breed(self, survivors: np.ndarray, count: int) -> np.ndarray:
        """``count`` children of a ``(S, layers, 2|3)`` survivor stack.

        Each child copies a uniformly picked survivor and is crossed with
        probability ``crossover_rate``, then the whole stack is mutated
        (:meth:`_mutate`).  A local crossover swaps two distinct layers'
        rows within the child: ``i = integers(L)`` and ``j = integers(L -
        1)``, bumped past ``i``; a one-layer genome never swaps.  A global
        crossover takes each row from a mate, another uniformly picked
        survivor, with probability 1/2.  Each kind of draw is one
        Generator call for the whole generation."""
        rng = self.rng
        children = survivors[rng.integers(len(survivors), size=count)]
        crossed = (rng.random(count) < self.crossover_rate).nonzero()[0]
        layers = survivors.shape[1]
        if self.crossover_mode == "global":
            mates = survivors[rng.integers(len(survivors),
                                           size=len(crossed))]
            take = rng.random((len(crossed), layers)) < 0.5
            children[crossed] = np.where(take[..., None], mates,
                                         children[crossed])
        elif layers > 1:
            first = rng.integers(layers, size=len(crossed))
            second = rng.integers(layers - 1, size=len(crossed))
            second += second >= first
            children[crossed, first], children[crossed, second] = \
                children[crossed, second], children[crossed, first]
        return self._mutate(children)

    @staticmethod
    def _cost_of(outcome: EvalResult) -> float:
        """The GA's fitness rule: objective cost, infinite if infeasible."""
        return outcome.cost if outcome.feasible else float("inf")

    def _fitness(self, evaluator: DesignPointEvaluator,
                 genomes: np.ndarray) -> np.ndarray:
        """Fitness of a genome stack: one batched estimator call, with
        duplicate genomes (within the stack or across the whole search)
        served from the memo instead of re-hitting the estimator."""
        # Every genome of a search shares the seed's shape and dtype, so
        # equal genomes have equal bytes.
        keys = [genome.tobytes() for genome in genomes]
        pending: Dict[bytes, int] = {}
        for row, key in enumerate(keys):
            if key in self._memo or key in pending:
                self._hits += 1
            else:
                pending[key] = row
        if pending:
            outcomes = evaluator.evaluate_population_raw(
                genomes[list(pending.values())])
            for key, outcome in zip(pending, outcomes):
                self._memo[key] = self._cost_of(outcome)
        return np.array([self._memo[key] for key in keys])

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
        evaluations_before = evaluator.evaluations
        self._memo = {}
        self._hits = 0

        seed = raw_genome(initial)[None]
        population = np.concatenate([seed, self._mutate(
            np.repeat(seed, self.population_size - 1, axis=0))])
        costs = self._fitness(evaluator, population)
        keep = max(self.elite, self.population_size // 2)
        for _ in range(generations):
            # Stable: equal costs keep their rows' order, elite first.
            order = np.argsort(costs, kind="stable")
            elite = order[:self.elite]
            children = self._breed(population[order[:keep]],
                                   self.population_size - self.elite)
            population = np.concatenate([population[elite], children])
            costs = np.concatenate([costs[elite],
                                    self._fitness(evaluator, children)])
            result.record(float(costs.min()))

        best = int(costs.argmin())
        if costs[best] != np.inf:
            result.best_cost = float(costs[best])
            result.best_assignments = raw_assignments(population[best])
        result.wall_time_s = time.perf_counter() - started
        # ``evaluations`` keeps its historical meaning -- fitness samples
        # this search consumed -- so sample-efficiency comparisons against
        # the non-memoizing methods stay apples-to-apples; ``cache_hits``
        # says how many of those never reached the estimator.
        result.evaluations = (evaluator.evaluations - evaluations_before
                              + self._hits)
        result.cache_hits = self._hits
        result.episodes = generations
        return result
