"""Shared interface for the genome-space baseline optimizers."""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.core.evaluator import DesignPointEvaluator, EvalResult
from repro.rl.common import SearchResult


class GenomeOptimizer:
    """Base class: optimize a level-index genome under a budget of ``Eps``
    whole-design-point evaluations.

    Subclasses implement :meth:`_run`; the base class provides bookkeeping
    (best-feasible tracking, convergence history, wall time) so every
    method reports through the same :class:`SearchResult`.
    """

    name = "genome-optimizer"

    #: Candidate-set size per batched estimator call for the streaming
    #: methods (random / grid); population methods batch one generation.
    batch_size = 256

    def __init__(self, seed: Optional[int] = None) -> None:
        self.rng = np.random.default_rng(seed)
        self._result: Optional[SearchResult] = None
        self._evaluator: Optional[DesignPointEvaluator] = None
        self._budget = 0
        self._spent = 0
        #: (evaluator, its gene bounds), built on first use.
        self._bounds: Optional[tuple] = None

    # ------------------------------------------------------------------
    def search(self, evaluator: DesignPointEvaluator,
               epochs: int) -> SearchResult:
        """Spend ``epochs`` design-point evaluations; return the outcome."""
        if epochs < 1:
            raise ValueError("epochs must be >= 1")
        self._evaluator = evaluator
        self._budget = epochs
        self._spent = 0
        self._result = SearchResult(algorithm=self.name)
        started = time.perf_counter()
        hits_before = getattr(evaluator, "cache_hits", 0)
        self._run()
        result = self._result
        result.wall_time_s = time.perf_counter() - started
        result.evaluations = self._spent
        result.episodes = self._spent
        # Repeated design points among this search's populations, as the
        # evaluator counts them (see DesignPointEvaluator.cache_hits).
        result.cache_hits = getattr(evaluator, "cache_hits", 0) - hits_before
        return result

    # ------------------------------------------------------------------
    @property
    def exhausted(self) -> bool:
        return self._spent >= self._budget

    def evaluate(self, genome: Sequence[int]) -> EvalResult:
        """Evaluate one genome, charging the budget and updating the best.

        Raises:
            RuntimeError: if called after the budget is exhausted (guard
            with :attr:`exhausted` in the subclass loop).
        """
        return self.evaluate_batch([genome])[0]

    def evaluate_batch(
        self, genomes: Sequence[Sequence[int]]
    ) -> List[EvalResult]:
        """Evaluate a candidate set -- a list of genomes or a ``(count,
        genes)`` array -- as one batched estimator call.

        The set is truncated to the remaining budget (mirroring the scalar
        loop, which stopped evaluating mid-set when the budget ran out);
        best-tracking and the convergence history are updated genome by
        genome in order, so results are identical to sequential
        :meth:`evaluate` calls.

        Single-genome sets take the scalar path
        (:meth:`DesignPointEvaluator.evaluate_genome` -> ``evaluate_raw``
        -> ``CostModel.evaluate_model``): SA's restarts and Bayesian's EI
        loop.  They thereby keep an oracle independent of the ladder
        table that populations are gathered from: e2ebench's gate
        re-scores every best design through the same scalar chain, and
        its traced runs require that chain to fire on the baseline grid.
        SA's one-layer moves take :meth:`evaluate_move`.  Every path
        returns identical numbers.

        Raises:
            RuntimeError: if called after the budget is exhausted.
        """
        if self.exhausted:
            raise RuntimeError("evaluation budget exhausted")
        genomes = genomes[: self._budget - self._spent]
        if len(genomes) > 1:
            outcomes = self._evaluator.evaluate_population(genomes)
        else:
            outcomes = [self._evaluator.evaluate_genome(genome)
                        for genome in genomes]
        return self._tally(genomes, outcomes)

    def evaluate_move(self, genome: Sequence[int], base: EvalResult,
                      layer: int) -> EvalResult:
        """Evaluate a genome that differs from the one ``base`` scored
        only in layer ``layer`` (see
        :meth:`DesignPointEvaluator.evaluate_move`), charging the budget
        and updating the best as :meth:`evaluate` does.

        Raises:
            RuntimeError: if called after the budget is exhausted.
        """
        if self.exhausted:
            raise RuntimeError("evaluation budget exhausted")
        outcome = self._evaluator.evaluate_move(genome, base, layer)
        return self._tally([genome], [outcome])[0]

    def _tally(self, genomes: Sequence[Sequence[int]],
               outcomes: List[EvalResult]) -> List[EvalResult]:
        """Charge one budget unit per scored genome, in order, updating
        the best feasible design and the convergence history."""
        result = self._result
        for genome, outcome in zip(genomes, outcomes):
            self._spent += 1
            if outcome.feasible and (result.best_cost is None
                                     or outcome.cost < result.best_cost):
                result.best_cost = outcome.cost
                result.best_genome = [int(gene) for gene in genome]
                result.best_assignments = tuple(
                    self._evaluator.decode_genome(genome))
            result.record(result.best_cost)
        return outcomes

    def _gene_bounds(self) -> np.ndarray:
        """Per-gene level counts: ``[L, L]`` per layer, ``[L, L, D]``
        under MIX (``D`` dataflows), built once per evaluator."""
        evaluator = self._evaluator
        if self._bounds is None or self._bounds[0] is not evaluator:
            self._bounds = (evaluator, np.array(
                evaluator.space.head_sizes * len(evaluator.layers)))
        return self._bounds[1]

    def random_genomes(self, count: int) -> List[List[int]]:
        """``count`` uniformly random genomes from one vector draw.

        numpy's vector ``integers`` draws element by element from the
        stream, so these are the genomes -- and the generator state --
        of ``count`` sequential gene-by-gene draws."""
        bounds = self._gene_bounds()
        return self.rng.integers(bounds, size=(count, len(bounds))).tolist()

    def random_genome(self) -> List[int]:
        """A uniformly random genome."""
        return self.random_genomes(1)[0]

    # Shared breeding operators (the GA-family methods), each one draw
    # per generation -------------------------------------------------
    def tournament(self, keys: np.ndarray, count: int,
                   size: int) -> np.ndarray:
        """Row indices of ``count`` tournament winners.  Each tournament
        draws ``size`` contenders with replacement (one ``integers`` call
        for all of them) and keeps the first contender with the smallest
        key, so ties go to the one drawn first."""
        contenders = self.rng.integers(0, len(keys), size=(count, size))
        return contenders[np.arange(count), keys[contenders].argmin(axis=1)]

    def uniform_crossover(self, parents: np.ndarray, mates: np.ndarray,
                          rate: float) -> np.ndarray:
        """A generation's crossover over ``(count, genes)`` arrays: row
        ``i`` crosses with ``mates[i]`` with probability ``rate``, and a
        crossed row takes each gene from either with probability 1/2.
        One ``random`` call draws the flags, one the crossed rows' blend
        masks; the other rows are copies of their parent."""
        crossed = (self.rng.random(len(parents)) < rate).nonzero()[0]
        take = self.rng.random((len(crossed), parents.shape[1])) < 0.5
        children = parents.copy()
        children[crossed] = np.where(take, mates[crossed], parents[crossed])
        return children

    def resample_mutation(self, genomes: np.ndarray,
                          rate: float) -> np.ndarray:
        """Per-gene uniform resampling at ``rate`` over a ``(count,
        genes)`` array, respecting the gene layout: the two level genes
        draw from ``num_levels``, the MIX style gene from the dataflow
        list.  One ``random`` call draws the mask, one ``integers`` call
        the hit genes' new values."""
        rows, genes = (self.rng.random(genomes.shape) < rate).nonzero()
        mutated = genomes.copy()
        mutated[rows, genes] = self.rng.integers(self._gene_bounds()[genes])
        return mutated

    def extra_so_far(self) -> Dict[str, object]:
        """Method-specific ``SearchResult.extra`` entries for the work
        done so far.  A search that an observer stops mid-run still
        reports them (see ``repro.search.session.run_genome``); none by
        default."""
        return {}

    def _run(self) -> None:  # pragma: no cover - interface
        raise NotImplementedError
