"""Bayesian optimization with a Gaussian-process surrogate.

A GP with an RBF kernel models the (log-scaled) objective over the
normalized genome space; candidates are scored by expected improvement and
the best candidate from a random pool is evaluated next.  Infeasible points
are kept in the surrogate's training set at a penalized objective so the GP
learns to avoid the infeasible region -- enough to survive the IoT tier,
but (as the paper's Table IV shows) not the extreme IoTx tier, where nearly
every random seed point is infeasible and the surrogate never sees usable
gradient.

The exact GP is cubic in sample count, so the fit set is capped at the best
and most recent points; the cap is far above the epoch budgets used in the
benches.
"""

from __future__ import annotations

import math
from typing import List

import numpy as np

from repro.optim.base import GenomeOptimizer


class BayesianOptimization(GenomeOptimizer):
    """GP-EI Bayesian optimization over the discrete genome space."""

    name = "bayesian"

    def __init__(self, initial_samples: int = 20, candidate_pool: int = 256,
                 length_scale: float = 0.4, noise: float = 1e-4,
                 max_fit_points: int = 400, infeasible_penalty: float = 4.0,
                 seed=None) -> None:
        super().__init__(seed=seed)
        if initial_samples < 2:
            raise ValueError("initial_samples must be >= 2")
        if candidate_pool < 1:
            raise ValueError("candidate_pool must be >= 1")
        if not length_scale > 0:
            raise ValueError("length_scale must be positive")
        if not noise >= 0:
            raise ValueError("noise must be >= 0")
        if max_fit_points < 2:
            raise ValueError("max_fit_points must be >= 2")
        self.initial_samples = initial_samples
        self.candidate_pool = candidate_pool
        self.length_scale = length_scale
        self.noise = noise
        self.max_fit_points = max_fit_points
        self.infeasible_penalty = infeasible_penalty
        self._features: List[np.ndarray] = []
        self._targets: List[float] = []

    # ------------------------------------------------------------------
    def _encode(self, genomes) -> np.ndarray:
        """Genome(s) -> features: each gene over its top level index."""
        scales = np.maximum(np.asarray(self._gene_bounds()) - 1, 1)
        return np.asarray(genomes, dtype=np.float64) / scales

    def _observe(self, genome: List[int]) -> None:
        self._record(genome, self.evaluate(genome))

    def _record(self, genome: List[int], outcome) -> None:
        """Fold one evaluated genome into the surrogate's training set."""
        if outcome.feasible:
            target = np.log10(max(outcome.cost, 1e-30))
        else:
            reference = (np.max(self._targets) if self._targets else 0.0)
            target = reference + self.infeasible_penalty
        self._features.append(self._encode(genome))
        self._targets.append(float(target))

    def _kernel(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        sq = (
            np.sum(a ** 2, axis=1)[:, None]
            + np.sum(b ** 2, axis=1)[None, :]
            - 2.0 * a @ b.T
        )
        return np.exp(-0.5 * np.maximum(sq, 0.0) / self.length_scale ** 2)

    def _fit_subset(self):
        order = np.argsort(self._targets)
        keep = list(order[: self.max_fit_points // 2])
        best = set(keep)
        recent = range(max(0, len(self._targets) - self.max_fit_points // 2),
                       len(self._targets))
        keep.extend(i for i in recent if i not in best)
        features = np.asarray([self._features[i] for i in keep])
        targets = np.asarray([self._targets[i] for i in keep])
        return features, targets

    def _expected_improvement(self, candidates: np.ndarray,
                              features: np.ndarray,
                              targets: np.ndarray) -> np.ndarray:
        mean_target = targets.mean()
        std_target = targets.std() + 1e-12
        normalized = (targets - mean_target) / std_target
        gram = self._kernel(features, features)
        gram[np.diag_indices_from(gram)] += self.noise
        cross = self._kernel(candidates, features)
        # One solve against the kernel matrix gives the posterior mean's
        # weights (first column) and every candidate's variance term.
        solved = np.linalg.solve(gram,
                                 np.column_stack((normalized, cross.T)))
        alpha, v = solved[:, 0], solved[:, 1:]
        mu = cross @ alpha
        var = np.maximum(1.0 - np.sum(cross.T * v, axis=0), 1e-12)
        sigma = np.sqrt(var)
        best = normalized.min()
        improvement = best - mu
        z = improvement / sigma
        # The standard normal CDF and PDF of z.
        cdf = 0.5 * np.array([math.erfc(-value / math.sqrt(2))
                              for value in z])
        pdf = np.exp(-z * z / 2) / math.sqrt(2 * math.pi)
        return improvement * cdf + sigma * pdf

    # ------------------------------------------------------------------
    def _run(self) -> None:
        # The seed set is independent draws, so it is scored as one batch;
        # the EI loop below is inherently sequential (each choice depends
        # on the surrogate fitted to everything before it).
        seeds = self.random_genomes(min(self.initial_samples, self._budget))
        for genome, outcome in zip(seeds, self.evaluate_batch(seeds)):
            self._record(genome, outcome)
        while not self.exhausted:
            features, targets = self._fit_subset()
            pool = self.random_genomes(self.candidate_pool)
            encoded = self._encode(pool)
            scores = self._expected_improvement(encoded, features, targets)
            self._observe(pool[int(np.argmax(scores))])
