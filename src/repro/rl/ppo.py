"""PPO2 comparison agent (Schulman et al. 2017).

Clipped-surrogate proximal policy optimization with an MLP policy: the
strongest of the Table-V comparison agents in the paper.  It runs A2C's
skeleton (:class:`~repro.rl.a2c.A2C`): the sampler also keeps each step's
behaviour log-probability, and each batch of episodes gets standardized
discounted returns and advantages against an MLP value function, then
several minibatched update passes with the probability-ratio clip.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.nn.autograd import Tensor, no_grad
from repro.nn.functional import mse_loss
from repro.rl.a2c import A2C, Trajectory
from repro.rl.common import standardize
from repro.rl.reinforce import head_sums


class PPO2(A2C):
    """Clipped-surrogate PPO with an MLP actor and critic."""

    name = "ppo2"

    def __init__(self, lr: float = 3e-3, discount: float = 0.9,
                 clip_ratio: float = 0.2, update_epochs: int = 4,
                 minibatch_size: int = 32, entropy_coef: float = 0.01,
                 value_coef: float = 0.5, max_grad_norm: float = 5.0,
                 hidden_sizes=(64, 64), seed: Optional[int] = None) -> None:
        super().__init__(lr=lr, discount=discount, entropy_coef=entropy_coef,
                         value_coef=value_coef, max_grad_norm=max_grad_norm,
                         hidden_sizes=hidden_sizes, seed=seed)
        if not 0.0 < clip_ratio < 1.0:
            raise ValueError("clip_ratio must be in (0, 1)")
        if update_epochs < 1:
            raise ValueError("update_epochs must be >= 1")
        if minibatch_size < 1:
            raise ValueError("minibatch_size must be >= 1")
        self.clip_ratio = clip_ratio
        self.update_epochs = update_epochs
        self.minibatch_size = minibatch_size

    def _extras(self, dists, actions: np.ndarray) -> np.ndarray:
        """The behaviour log-probabilities: each row's per-head
        log-probabilities summed in head order."""
        log_probs = dists[0].log_prob(actions[:, 0]).numpy()
        for head, dist in enumerate(dists[1:], start=1):
            log_probs = log_probs + dist.log_prob(actions[:, head]).numpy()
        return log_probs

    def _surrogate_loss(self, observations, actions, old_log_probs,
                        advantages, returns) -> Tensor:
        obs_tensor = Tensor(observations)
        dists, _ = self.policy(obs_tensor, None)
        log_probs, entropies = head_sums(dists, actions)
        ratio = (log_probs - Tensor(old_log_probs)).exp()
        adv = Tensor(advantages)
        unclipped = ratio * adv
        clipped = ratio.clip(1.0 - self.clip_ratio,
                             1.0 + self.clip_ratio) * adv
        # min(a, b) = 0.5 * (a + b - |a - b|), elementwise on the tape.
        diff = unclipped - clipped
        surrogate = 0.5 * (unclipped + clipped - diff.abs())
        values = self.critic(obs_tensor).reshape(len(actions))
        value_loss = mse_loss(values, Tensor(returns))
        return (-surrogate.mean()
                + self.value_coef * value_loss
                - self.entropy_coef * entropies.mean())

    def update(self, trajectories: Sequence[Trajectory]) -> float:
        """Clipped-surrogate passes over a batch of episodes.

        The batch is the rollout -- the standard vectorized-PPO
        convention: returns and advantages are computed (and
        standardized) per episode, then concatenated so the minibatched
        update passes shuffle across the whole batch.
        """
        observations, actions, returns = self._batch(trajectories)
        old_log_probs = np.array([extra for trajectory in trajectories
                                  for extra in trajectory.extras])
        with no_grad():
            values = self.critic(Tensor(observations)).numpy().reshape(-1)
        advantages = np.empty_like(returns)
        offset = 0
        for trajectory in trajectories:
            chunk = slice(offset, offset + len(trajectory.rewards))
            advantages[chunk] = standardize(returns[chunk] - values[chunk])
            offset = chunk.stop
        count = len(actions)
        for _ in range(self.update_epochs):
            order = self.rng.permutation(count)
            for start in range(0, count, self.minibatch_size):
                batch = order[start:start + self.minibatch_size]
                loss = self._step(self._surrogate_loss(
                    observations[batch], actions[batch],
                    old_log_probs[batch], advantages[batch],
                    returns[batch]))
        return loss
