"""Shared machinery for the continuous off-policy agents (DDPG/TD3/SAC).

The HW-assignment action space is discrete (Table-I levels), so the
continuous agents act in the box [-1, 1]^d -- d = 2, or 3 under MIX -- and
the environment adapter snaps each coordinate onto the nearest level, the
standard discretization the paper uses when comparing against continuous
methods ("DDPG, SAC, and TD3 in continuous space").
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.env.environment import HWAssignmentEnv
from repro.nn.autograd import Tensor
from repro.nn.modules import MLP, Module
from repro.rl.common import ReplayBuffer, SearchAlgorithm, SearchResult


def continuous_to_levels(action: np.ndarray,
                         head_sizes: Tuple[int, ...]) -> List[int]:
    """Map a point in [-1, 1]^d onto per-head level indices."""
    levels = []
    for coordinate, size in zip(action, head_sizes):
        fraction = (float(np.clip(coordinate, -1.0, 1.0)) + 1.0) / 2.0
        levels.append(int(round(fraction * (size - 1))))
    return levels


class QNetwork(Module):
    """State-action value network Q(s, a)."""

    def __init__(self, obs_dim: int, action_dim: int,
                 hidden_sizes=(64, 64),
                 rng: Optional[np.random.Generator] = None) -> None:
        self.net = MLP([obs_dim + action_dim, *hidden_sizes, 1],
                       activation="relu", rng=rng)

    def forward(self, obs: Tensor, action: Tensor) -> Tensor:
        return self.net(Tensor.concat([obs, action], axis=-1))


class OffPolicyAgent(SearchAlgorithm):
    """Base loop: act, store, and update once per environment step."""

    name = "offpolicy"

    def __init__(self, lr: float = 1e-3, discount: float = 0.9,
                 tau: float = 0.01, batch_size: int = 64,
                 warmup_steps: int = 256, buffer_capacity: int = 50_000,
                 hidden_sizes=(64, 64), updates_per_step: int = 1,
                 seed: Optional[int] = None) -> None:
        if not 0.0 <= discount <= 1.0:
            raise ValueError("discount must be in [0, 1]")
        if not 0.0 < tau <= 1.0:
            raise ValueError("tau must be in (0, 1]")
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if updates_per_step < 1:
            raise ValueError("updates_per_step must be >= 1")
        self.lr = lr
        self.discount = discount
        self.tau = tau
        self.batch_size = batch_size
        self.warmup_steps = warmup_steps
        self.buffer_capacity = buffer_capacity
        self.hidden_sizes = tuple(hidden_sizes)
        self.updates_per_step = updates_per_step
        self.rng = np.random.default_rng(seed)
        self.buffer: Optional[ReplayBuffer] = None
        self.action_dim = 0
        self._total_steps = 0

    # Subclass interface ------------------------------------------------
    def _build(self, env: HWAssignmentEnv) -> None:
        raise NotImplementedError

    def _act(self, observation: np.ndarray, explore: bool) -> np.ndarray:
        raise NotImplementedError

    def _update(self) -> None:
        raise NotImplementedError

    def _memory_bytes(self) -> int:
        raise NotImplementedError

    # Shared loop -------------------------------------------------------
    def search(self, env: HWAssignmentEnv, epochs: int) -> SearchResult:
        if epochs < 1:
            raise ValueError("epochs must be >= 1")
        self._refuse_vector_env(env)
        result, started = self._start(self.name)
        if self.buffer is None:
            self.action_dim = len(env.space.head_sizes)
            self.buffer = ReplayBuffer(self.buffer_capacity,
                                       env.observation_dim, self.action_dim)
            self._build(env)
        head_sizes = env.space.head_sizes
        for _ in range(epochs):
            observation = env.reset()
            done = False
            while not done:
                if self._total_steps < self.warmup_steps:
                    action = self.rng.uniform(-1.0, 1.0, self.action_dim)
                else:
                    action = self._act(observation, explore=True)
                levels = continuous_to_levels(action, head_sizes)
                next_observation, reward, done, _ = env.step(levels)
                self.buffer.add(observation, action, reward,
                                next_observation, done)
                observation = next_observation
                self._total_steps += 1
                if (self._total_steps >= self.warmup_steps
                        and len(self.buffer) >= self.batch_size):
                    for _ in range(self.updates_per_step):
                        self._update()
            result.record(env.best.cost if env.best else None)
        self._finalize(result, env, started)
        result.memory_bytes = self._memory_bytes()
        # Replay buffer dominates the paper's memory-overhead row.
        result.memory_bytes += self.buffer.obs.nbytes * 2 \
            + self.buffer.actions.nbytes + self.buffer.rewards.nbytes \
            + self.buffer.dones.nbytes
        return result

    def _sample_batch(self):
        obs, actions, rewards, next_obs, dones = self.buffer.sample(
            self.batch_size, self.rng)
        return (Tensor(obs), Tensor(actions), rewards, Tensor(next_obs),
                dones)
