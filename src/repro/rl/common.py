"""Shared search-algorithm interface and return-processing utilities.

Every search method in this repository -- the seven RL agents and the five
classic optimizers -- implements :class:`SearchAlgorithm` and produces a
:class:`SearchResult`, so the comparison tables (III, IV, V) are generated
by one harness.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.env.environment import HWAssignmentEnv


@dataclass
class SearchResult:
    """Outcome of one search run.

    ``best_cost`` is ``None`` when no feasible design point was found within
    the epoch budget -- rendered as "NAN" in the paper's tables.
    """

    algorithm: str
    best_cost: Optional[float] = None
    best_assignments: Optional[Tuple] = None
    best_genome: Optional[List[int]] = None
    history: List[float] = field(default_factory=list)
    evaluations: int = 0
    #: Repeated fitness lookups: the stage-2 local GA's memo hits, or the
    #: population rows repeating an earlier row for the genome methods
    #: (see ``DesignPointEvaluator.cache_hits``).
    cache_hits: int = 0
    episodes: int = 0
    wall_time_s: float = 0.0
    memory_bytes: int = 0
    extra: dict = field(default_factory=dict)

    @property
    def feasible(self) -> bool:
        return self.best_cost is not None

    def record(self, best_so_far: Optional[float]) -> None:
        """Append one epoch's best-so-far cost to the convergence trace."""
        self.history.append(
            float("inf") if best_so_far is None else best_so_far)

    def epochs_to_reach(self, target: float) -> Optional[int]:
        """First epoch whose best-so-far cost is <= target (sample
        efficiency metric of Table V / Fig. 7)."""
        for epoch, value in enumerate(self.history):
            if value <= target:
                return epoch
        return None

    def format_cost(self) -> str:
        """Table rendering: scientific notation, or NAN when infeasible."""
        return "NAN" if self.best_cost is None else f"{self.best_cost:.1E}"


class SearchAlgorithm:
    """Interface: mutate internal state while driving an environment."""

    name = "base"
    #: Whether :meth:`search` also drives a lockstep
    #: :class:`~repro.env.vector.VectorHWAssignmentEnv` (``envs > 1``).
    lockstep = False

    def search(self, env: HWAssignmentEnv, epochs: int) -> SearchResult:
        """Run for ``epochs`` episodes and return the search outcome."""
        raise NotImplementedError

    # Helpers shared by the RL agents ----------------------------------
    def _refuse_vector_env(self, env) -> None:
        """Raise :class:`ValueError` on a vector env of any width unless
        this agent has a lockstep-wave path."""
        if getattr(env, "is_vector", False) and not self.lockstep:
            raise ValueError(
                f"{self.name} has no lockstep-wave path: run it at envs=1")

    @staticmethod
    def _start(name: str) -> Tuple[SearchResult, float]:
        return SearchResult(algorithm=name), time.perf_counter()

    @staticmethod
    def _finalize(result: SearchResult, env: HWAssignmentEnv,
                  started: float) -> SearchResult:
        result.wall_time_s = time.perf_counter() - started
        result.evaluations = env.evaluations
        result.episodes = env.episodes
        if env.best is not None:
            result.best_cost = env.best.cost
            result.best_assignments = env.best.assignments
            result.best_genome = env.best.genome
        return result


def discounted_returns(rewards: Sequence[float],
                       discount: float) -> np.ndarray:
    """G_t = sum_k d^k r_{t+k} computed backward over one episode."""
    if not 0.0 <= discount <= 1.0:
        raise ValueError("discount must be in [0, 1]")
    returns = np.zeros(len(rewards), dtype=np.float64)
    running = 0.0
    for t in range(len(rewards) - 1, -1, -1):
        running = rewards[t] + discount * running
        returns[t] = running
    return returns


def standardize(values: np.ndarray, eps: float = 1e-8) -> np.ndarray:
    """Zero-mean unit-variance normalization (the paper standardizes the
    per-step rewards before training, Section III-E)."""
    values = np.asarray(values, dtype=np.float64)
    std = values.std()
    if std < eps:
        return values - values.mean()
    return (values - values.mean()) / std


class ReplayBuffer:
    """Uniform-sampling transition store for the off-policy agents."""

    def __init__(self, capacity: int, obs_dim: int, action_dim: int) -> None:
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self.obs = np.zeros((capacity, obs_dim))
        self.actions = np.zeros((capacity, action_dim))
        self.rewards = np.zeros(capacity)
        self.next_obs = np.zeros((capacity, obs_dim))
        self.dones = np.zeros(capacity)
        self._next = 0
        self._size = 0

    def __len__(self) -> int:
        return self._size

    def add(self, obs, action, reward, next_obs, done) -> None:
        index = self._next
        self.obs[index] = obs
        self.actions[index] = action
        self.rewards[index] = reward
        self.next_obs[index] = next_obs
        self.dones[index] = float(done)
        self._next = (self._next + 1) % self.capacity
        self._size = min(self._size + 1, self.capacity)

    def sample(self, batch_size: int, rng: np.random.Generator):
        if self._size == 0:
            raise RuntimeError("cannot sample from an empty buffer")
        indices = rng.integers(0, self._size, size=batch_size)
        return (
            self.obs[indices],
            self.actions[indices],
            self.rewards[indices],
            self.next_obs[indices],
            self.dones[indices],
        )


def normalize_rewards_for_training(rewards: Sequence[float],
                                   discount: float) -> np.ndarray:
    """The paper's pipeline: discounted returns, then standardization."""
    return standardize(discounted_returns(rewards, discount))

