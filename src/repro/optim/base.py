"""Shared interface for the genome-space baseline optimizers."""

from __future__ import annotations

import math
import time
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.core.evaluator import DesignPointEvaluator, EvalResult
from repro.rl.common import SearchResult

_LOW_HALF = 0xFFFFFFFF


class DrawSizes(tuple):
    """Per-index draw sizes for :func:`masked_draws`, checked once.

    ``replayable`` is whether the replay can take them: at least one
    size, each in ``[2, 2**32]``.  A search builds its sizes once and
    passes them to every mutation, so the check does not rerun per call.
    """

    def __new__(cls, sizes: Sequence[int]) -> "DrawSizes":
        self = super().__new__(cls, sizes)
        self.replayable = bool(self) and min(self) >= 2 \
            and max(self) <= 1 << 32
        return self


def scalar_masked_draws(rng: np.random.Generator, rate: float,
                        sizes: Sequence[int]) -> Dict[int, int]:
    """``{i: rng.integers(sizes[i])}`` for each index whose
    ``rng.random() < rate`` test hits, drawn one Generator call at a time.

    The reference :func:`masked_draws` reproduces, and its fallback."""
    draws: Dict[int, int] = {}
    for i, size in enumerate(sizes):
        if rng.random() < rate:
            draws[i] = int(rng.integers(size))
    return draws


def masked_draws(rng: np.random.Generator, rate: float,
                 sizes: Sequence[int]) -> Dict[int, int]:
    """Per-index resampling draws: exactly :func:`scalar_masked_draws`'s
    result *and* final generator state, without two Generator calls per
    index.

    The loop interleaves two kinds of draw, so no single numpy call
    matches it.  ``random()`` turns one 64-bit PCG64 word ``w`` into
    ``(w >> 11) * 2**-53``; ``integers(size)`` takes a 32-bit half word
    ``x`` -- the half the generator carries (``has_uint32``/``uinteger``)
    if there is one, else the low half of a fresh word, carrying the high
    half -- and returns ``(x * size) >> 32`` (Lemire), rejecting ``x`` when
    ``(x * size) & 0xFFFFFFFF < 2**32 % size``.  This replays that walk
    over a block of raw words, then restores the state and advances it
    past the words the walk used (``advance`` clears the carry, so the
    carried half is set again).

    For ``0 < rate < 1`` a word is a hit when ``w < 2048 * ceil(rate *
    2**53)``: ``(w >> 11) * 2**-53 < rate`` holds exactly when the
    integer ``w >> 11`` is below ``rate * 2**53``, a product that scaling
    by a power of two leaves exact.  Other rates compare the doubles.

    ``sizes`` may be a :class:`DrawSizes` built once per search; any other
    sequence is checked on every call.  A rejection, a size outside
    ``[2, 2**32]`` or a bit generator other than PCG64 restores the state
    and runs the scalar loop instead.
    """
    if not isinstance(sizes, DrawSizes):
        sizes = DrawSizes(sizes)
    bit_generator = rng.bit_generator
    if not sizes.replayable or type(bit_generator) is not np.random.PCG64:
        return scalar_masked_draws(rng, rate, sizes)
    count = len(sizes)
    saved = bit_generator.state
    # Each index reads one double; at most every other hit reads a fresh
    # word for its half, so 2 * count words always suffice.
    words = bit_generator.random_raw(2 * count)
    if 0.0 < rate < 1.0:
        hit = words < np.uint64(2048 * math.ceil(rate * 2.0 ** 53))
    else:
        hit = (words >> 11) * 2.0 ** -53 < rate
    hits = hit.nonzero()[0].tolist()
    carry, half = saved["has_uint32"], saved["uinteger"]
    draws: Dict[int, int] = {}
    used = 0   # words read so far
    extra = 0  # of those, words read by bounded draws, not doubles
    for position in hits:
        if position < used:
            continue  # a word a bounded draw consumed, not a double
        index = position - extra
        if index >= count:
            break
        used = position + 1
        if carry:
            value, carry = half, 0
        else:
            word = int(words[used])
            used += 1
            extra += 1
            value, half, carry = word & _LOW_HALF, word >> 32, 1
        size = int(sizes[index])
        scaled = value * size
        if scaled & _LOW_HALF < (1 << 32) % size:
            bit_generator.state = saved
            return scalar_masked_draws(rng, rate, sizes)
        draws[index] = scaled >> 32
    bit_generator.state = saved
    bit_generator.advance(count + extra)
    if carry or half:
        state = bit_generator.state
        state["has_uint32"], state["uinteger"] = carry, half
        bit_generator.state = state
    return draws


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
        -> ``CostModel.evaluate_model``).  The sequential walks (SA
        proposals, Bayesian's EI loop) thereby keep an oracle
        independent of the ladder table that populations are gathered
        from: e2ebench's gate re-scores every best design through the
        same scalar chain, and its traced runs require that chain to
        fire on the baseline grid.  Both paths return identical
        numbers.

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
