"""A2C (advantage actor-critic), one of the Table-V comparison agents, and
the synchronous actor-critic skeleton that ACKTR and PPO2 subclass.

Synchronous actor-critic with an MLP policy (the comparison agents use the
frameworks' default feed-forward architecture).  A value network regresses
the discounted return; advantages are returns minus values.  The paper's
Section IV-C3 argues -- and Fig. 6 demonstrates -- that the critic struggles
on the discrete, irregular HW-performance landscape, which is why ConfuciuX
itself is actor-only.

The skeleton has one sampler, :meth:`A2C._act`, which records no graph: a
scalar step calls it on a one-row batch and a lockstep wave on its live
rows.  :meth:`A2C._collect` (scalar steps) and :meth:`A2C._collect_wave`
(lockstep waves) return :class:`Trajectory` records, and :meth:`A2C.search`
hands each batch of episodes to one :meth:`update`; a scalar episode is a
one-episode batch.  ACKTR changes only the optimizer step
(:meth:`A2C._precondition`); PPO2 keeps each step's behaviour
log-probability (:meth:`A2C._extras`) and replaces :meth:`A2C.update`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

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
    standardize,
)
from repro.rl.policies import MLPPolicy
from repro.rl.reinforce import head_sums


@dataclass
class Trajectory:
    """One episode in step order, as the sampler collected it.

    ``extras`` holds each step's row of :meth:`A2C._extras` (PPO2's
    behaviour log-probability; ``None`` for A2C and ACKTR).
    """

    observations: List[np.ndarray] = field(default_factory=list)
    actions: List[List[int]] = field(default_factory=list)
    rewards: List[float] = field(default_factory=list)
    extras: list = field(default_factory=list)

    def append(self, observation, action, reward, extra) -> None:
        """Record one step."""
        self.observations.append(observation)
        self.actions.append(action)
        self.rewards.append(reward)
        self.extras.append(extra)


class A2C(SearchAlgorithm):
    """Advantage actor-critic with an MLP policy and MLP value function."""

    name = "a2c"
    lockstep = True

    def __init__(self, lr: float = 3e-3, discount: float = 0.9,
                 entropy_coef: float = 0.01, value_coef: float = 0.5,
                 max_grad_norm: float = 5.0,
                 hidden_sizes=(64, 64), seed: Optional[int] = None) -> None:
        if not 0.0 <= discount <= 1.0:
            raise ValueError("discount must be in [0, 1]")
        if max_grad_norm <= 0:
            raise ValueError("max_grad_norm must be positive")
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

    def _act(self, observations: np.ndarray):
        """Sample one action row per observation row, recording no graph
        (the update runs its own forward).

        One batched policy forward and one draw per head over all rows,
        so a one-row batch consumes the RNG stream exactly like a wave
        of one episode.  Returns the ``(rows, heads)`` actions and
        :meth:`_extras`' per-row payload.
        """
        with no_grad():
            dists, _ = self.policy(Tensor(observations), None)
            actions = np.stack([dist.sample(self.rng) for dist in dists],
                               axis=1)
            return actions, self._extras(dists, actions)

    def _extras(self, dists, actions: np.ndarray) -> list:
        """What the update needs from the sampler, one entry per row:
        nothing for A2C and ACKTR."""
        return [None] * len(actions)

    def _collect(self, env: HWAssignmentEnv) -> Trajectory:
        """Sample one episode by scalar steps."""
        trajectory = Trajectory()
        observation = env.reset()
        done = False
        while not done:
            actions, extras = self._act(observation.reshape(1, -1))
            action = actions[0].tolist()
            next_observation, reward, done, _ = env.step(action)
            trajectory.append(observation, action, reward, extras[0])
            observation = next_observation
        return trajectory

    def _collect_wave(self, venv, episodes: int) -> List[Trajectory]:
        """Sample ``episodes`` lockstep episodes through a vector env: one
        policy forward and one batched cost call per wave.

        Randomness is consumed wave-major: one batched draw per action
        head per wave, row ``r`` belonging to episode ``live[r]`` -- the
        vector RNG contract (see API.md).  One episode gives exactly
        :meth:`_collect`'s trajectory.
        """
        trajectories = [Trajectory() for _ in range(episodes)]
        observations = venv.reset(episodes)
        while not venv.all_done:
            live = venv.live_indices
            actions, extras = self._act(observations)
            next_observations, rewards, dones, _ = venv.step(actions)
            for row, episode in enumerate(live.tolist()):
                trajectories[episode].append(
                    observations[row], actions[row].tolist(),
                    float(rewards[row]), extras[row])
            observations = next_observations[~dones]
        return trajectories

    def _batch(self, trajectories: Sequence[Trajectory]):
        """The batch's observations and ``(steps, heads)`` actions in
        episode-then-step order, and each episode's standardized
        discounted returns, concatenated."""
        observations = np.array([observation for trajectory in trajectories
                                 for observation in trajectory.observations])
        actions = np.array([action for trajectory in trajectories
                            for action in trajectory.actions])
        returns = np.concatenate(
            [standardize(discounted_returns(trajectory.rewards,
                                            self.discount))
             for trajectory in trajectories])
        return observations, actions, returns

    def update(self, trajectories: Sequence[Trajectory]) -> float:
        """One actor-critic step over a batch of episodes.

        The batch is the minibatch -- the synchronous-A2C convention:
        per-episode discounted returns (standardized per episode) are
        concatenated and a single forward and backward serves every
        episode.
        """
        observations, actions, returns = self._batch(trajectories)
        obs_tensor = Tensor(observations)
        dists, _ = self.policy(obs_tensor, None)
        values = self.critic(obs_tensor).reshape(len(returns))
        advantages = Tensor(returns - values.numpy())
        log_probs, entropies = head_sums(dists, actions)
        policy_loss = -(log_probs * advantages).mean()
        value_loss = mse_loss(values, Tensor(returns))
        entropy_loss = -entropies.mean()
        return self._step(policy_loss + self.value_coef * value_loss
                          + self.entropy_coef * entropy_loss)

    def _step(self, loss: Tensor) -> float:
        """One clipped optimizer step on ``loss``; returns its value."""
        self.optimizer.zero_grad()
        loss.backward()
        clip_grad_norm(self.optimizer.parameters, self.max_grad_norm)
        self._precondition()
        self.optimizer.step()
        return loss.item()

    def _precondition(self) -> None:
        """Hook for ACKTR's trust-region scaling (a no-op otherwise)."""

    def search(self, env: HWAssignmentEnv, epochs: int) -> SearchResult:
        """Run ``epochs`` episodes with one :meth:`update` per batch.

        A scalar env's batch is one episode.  A vector env's is a wave
        set of up to ``num_envs`` lockstep episodes; the last set shrinks
        so the budget is spent exactly.  Either way the history gets one
        best-so-far entry per episode.
        """
        if epochs < 1:
            raise ValueError("epochs must be >= 1")
        self._refuse_vector_env(env)
        result, started = self._start(self.name)
        if self.policy is None:
            self._build(env)
        vector = getattr(env, "is_vector", False)
        remaining = epochs
        while remaining:
            episodes = min(env.num_envs, remaining) if vector else 1
            self.update(self._collect_wave(env, episodes) if vector
                        else [self._collect(env)])
            for _ in range(episodes):
                result.record(env.best.cost if env.best else None)
            remaining -= episodes
        self._finalize(result, env, started)
        result.memory_bytes = 8 * (self.policy.num_parameters()
                                   + self.critic.num_parameters())
        return result
