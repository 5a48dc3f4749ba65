"""Random search: sample ``Eps`` design points uniformly, keep the best.

A surprisingly strong baseline in many hyper-parameter problems (Bergstra &
Bengio 2012), but blind to the constraint structure: under tight budgets
almost all uniform samples violate the constraint, which is why the paper's
Table IV shows NAN for IoT/IoTx rows.
"""

from __future__ import annotations

from repro.optim.base import GenomeOptimizer


class RandomSearch(GenomeOptimizer):
    """Uniform sampling over the level-index genome space.

    Samples are drawn in budget-sized chunks and scored through the
    batched estimator -- the sampling order (hence the result for a given
    seed) is identical to the old one-point-at-a-time loop.
    """

    name = "random"

    def _run(self) -> None:
        while not self.exhausted:
            chunk = min(self.batch_size, self._budget - self._spent)
            self.evaluate_batch(self.random_genomes(chunk))
