"""Grid search: exhaustive enumeration with a coarse sampling stride.

Following Section IV-A3 -- "we enumerate through the design space with the
stride of s in the L=12 level, (e.g., (p1th, b1th), (p1th, b(1+s)th) ...)"
-- the genome space is walked lexicographically like a base-L counter whose
digits advance by ``stride``, until the ``Eps`` budget is spent.  Because
the space is O(L^2N), any realistic budget only ever explores variations of
the last few genes around the all-minimum corner; that is exactly why the
paper's Table IV shows grid search pinned at the same mediocre value
(5.3E+08 for MobileNet-V2) across every constraint tier.
"""

from __future__ import annotations

from typing import List

from repro.optim.base import GenomeOptimizer


class GridSearch(GenomeOptimizer):
    """Strided lexicographic enumeration of the level-index genome space."""

    name = "grid"

    def __init__(self, stride: int = 2, seed=None) -> None:
        super().__init__(seed=seed)
        if stride < 1:
            raise ValueError("stride must be >= 1")
        self.stride = stride

    def _advance(self, genome: List[int]) -> bool:
        """Base-L counter increment by ``stride``, least-significant gene
        last; returns False once the whole space has been enumerated."""
        bounds = self._gene_bounds()
        for gene in range(len(genome) - 1, -1, -1):
            genome[gene] += self.stride
            if genome[gene] < bounds[gene]:
                return True
            genome[gene] = 0
        return False

    def _run(self) -> None:
        genome = [0] * self._evaluator.genome_length
        pending: List[List[int]] = []
        while not self.exhausted:
            pending.append(list(genome))
            advanced = self._advance(genome)
            if not advanced or len(pending) >= min(
                    self.batch_size, self._budget - self._spent):
                self.evaluate_batch(pending)
                pending = []
                if not advanced:
                    return
