"""A2C (advantage actor-critic), one of the Table-V comparison agents.

Synchronous actor-critic with an MLP policy (the comparison agents use the
frameworks' default feed-forward architecture).  A value network regresses
the discounted return; advantages are returns minus values.  The paper's
Section IV-C3 argues -- and Fig. 6 demonstrates -- that the critic struggles
on the discrete, irregular HW-performance landscape, which is why ConfuciuX
itself is actor-only.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.env.environment import HWAssignmentEnv
from repro.nn.autograd import Tensor, no_grad
from repro.nn.functional import mse_loss
from repro.nn.modules import MLP
from repro.nn.optim import Adam, clip_grad_norm
from repro.rl.common import (
    SearchAlgorithm,
    SearchResult,
    discounted_returns,
    drive_wave_sets,
    rollout_waves,
    standardize,
    waves_to_trajectories,
)
from repro.rl.policies import MLPPolicy


class A2C(SearchAlgorithm):
    """Advantage actor-critic with an MLP policy and MLP value function."""

    name = "a2c"
    lockstep = True

    def __init__(self, lr: float = 3e-3, discount: float = 0.9,
                 entropy_coef: float = 0.01, value_coef: float = 0.5,
                 max_grad_norm: float = 5.0,
                 hidden_sizes=(64, 64), seed: Optional[int] = None) -> None:
        self.lr = lr
        self.discount = discount
        self.entropy_coef = entropy_coef
        self.value_coef = value_coef
        self.max_grad_norm = max_grad_norm
        self.hidden_sizes = tuple(hidden_sizes)
        self.rng = np.random.default_rng(seed)
        self.policy: Optional[MLPPolicy] = None
        self.critic: Optional[MLP] = None
        self.optimizer: Optional[Adam] = None

    def _build(self, env: HWAssignmentEnv) -> None:
        self.policy = MLPPolicy(env.observation_dim, env.space.head_sizes,
                                hidden_sizes=self.hidden_sizes, rng=self.rng)
        self.critic = MLP([env.observation_dim, *self.hidden_sizes, 1],
                          rng=self.rng)
        self.optimizer = Adam(
            self.policy.parameters() + self.critic.parameters(), lr=self.lr)

    def _collect(self, env: HWAssignmentEnv):
        """Sample one episode without gradients; return arrays."""
        observation = env.reset()
        observations: List[np.ndarray] = []
        actions: List[List[int]] = []
        rewards: List[float] = []
        done = False
        while not done:
            obs_tensor = Tensor(observation.reshape(1, -1))
            dists, _ = self.policy(obs_tensor, None)
            action = [int(d.sample(self.rng)[0]) for d in dists]
            observations.append(observation)
            actions.append(action)
            observation, reward, done, _ = env.step(action)
            rewards.append(reward)
        return np.array(observations), actions, rewards

    def _act_wave(self, observations: np.ndarray):
        """One batched policy forward for a whole lockstep wave (no
        graph: the update recomputes its own forward)."""
        with no_grad():
            dists, _ = self.policy(Tensor(observations), None)
            actions = np.stack([d.sample(self.rng) for d in dists], axis=1)
        return actions, None

    def _collect_vector(self, venv, episodes: int):
        """Sample ``episodes`` lockstep episodes; one cost-model batch
        and one policy forward per wave.  For a single episode the
        sampled actions, rewards, and RNG stream are bit-identical to
        :meth:`_collect`."""
        waves = rollout_waves(venv, episodes, self._act_wave)
        return waves_to_trajectories(waves, episodes)

    def _precondition(self) -> None:
        """Hook for ACKTR's trust-region scaling (no-op for plain A2C)."""

    def update(self, observations: np.ndarray, actions: List[List[int]],
               rewards: List[float]) -> float:
        """One actor-critic step over a single episode."""
        returns = standardize(discounted_returns(rewards, self.discount))
        return self._update_arrays(observations, actions, returns)

    def update_wave(self, trajectories) -> float:
        """One actor-critic step over a wave of lockstep episodes.

        The wave is the minibatch -- the synchronous-A2C convention:
        per-episode discounted returns (standardized per episode, the
        scalar rule) are concatenated and a single forward/backward
        serves every episode.  For a one-episode wave this is exactly
        :meth:`update`.
        """
        observations = np.concatenate(
            [np.array(trajectory.observations)
             for trajectory in trajectories])
        actions = [action for trajectory in trajectories
                   for action in trajectory.actions]
        returns = np.concatenate(
            [standardize(discounted_returns(trajectory.rewards,
                                            self.discount))
             for trajectory in trajectories])
        return self._update_arrays(observations, actions, returns)

    def _update_arrays(self, observations: np.ndarray,
                       actions: List[List[int]],
                       returns: np.ndarray) -> float:
        obs_tensor = Tensor(observations)
        dists, _ = self.policy(obs_tensor, None)
        values = self.critic(obs_tensor).reshape(len(returns))
        returns_tensor = Tensor(returns)
        advantages = Tensor(returns - values.numpy())

        log_probs = None
        entropies = None
        for head, dist in enumerate(dists):
            head_actions = [a[head] for a in actions]
            logp = dist.log_prob(head_actions)
            ent = dist.entropy()
            log_probs = logp if log_probs is None else log_probs + logp
            entropies = ent if entropies is None else entropies + ent

        policy_loss = -(log_probs * advantages).mean()
        value_loss = mse_loss(values, returns_tensor)
        entropy_loss = -entropies.mean()
        loss = (policy_loss + self.value_coef * value_loss
                + self.entropy_coef * entropy_loss)
        self.optimizer.zero_grad()
        loss.backward()
        clip_grad_norm(self.optimizer.parameters, self.max_grad_norm)
        self._precondition()
        self.optimizer.step()
        return loss.item()

    def search(self, env: HWAssignmentEnv, epochs: int) -> SearchResult:
        if epochs < 1:
            raise ValueError("epochs must be >= 1")
        result, started = self._start(self.name)
        if self.policy is None:
            self._build(env)
        if getattr(env, "is_vector", False):
            drive_wave_sets(
                env, epochs, result,
                lambda episodes: self.update_wave(
                    self._collect_vector(env, episodes)))
        else:
            for _ in range(epochs):
                observations, actions, rewards = self._collect(env)
                self.update(observations, actions, rewards)
                result.record(env.best.cost if env.best else None)
        self._finalize(result, env, started)
        result.memory_bytes = 8 * (self.policy.num_parameters()
                                   + self.critic.num_parameters())
        return result
