"""SAC comparison agent (Haarnoja et al. 2018).

Maximum-entropy actor-critic: a tanh-squashed Gaussian actor trained with
the reparameterization trick against the minimum of twin Q critics, with a
fixed entropy temperature.
"""

from __future__ import annotations

import math
from typing import Optional, Tuple

import numpy as np

from repro.env.environment import HWAssignmentEnv
from repro.nn.autograd import Tensor, no_grad
from repro.nn.functional import huber_loss
from repro.nn.modules import Linear, MLP, Module
from repro.nn.optim import Adam
from repro.rl.offpolicy import OffPolicyAgent, QNetwork

_LOG_STD_MIN = -5.0
_LOG_STD_MAX = 2.0
_LOG_2PI = math.log(2.0 * math.pi)


class GaussianActor(Module):
    """Squashed-Gaussian policy head used by SAC."""

    def __init__(self, obs_dim: int, action_dim: int, hidden_sizes,
                 rng: Optional[np.random.Generator] = None) -> None:
        self.body = MLP([obs_dim, *hidden_sizes], activation="relu",
                        output_activation="relu", rng=rng)
        self.mean_head = Linear(hidden_sizes[-1], action_dim, rng=rng,
                                gain=0.1)
        self.log_std_head = Linear(hidden_sizes[-1], action_dim, rng=rng,
                                   gain=0.1)

    def forward(self, obs: Tensor) -> Tuple[Tensor, Tensor]:
        features = self.body(obs)
        mean = self.mean_head(features)
        log_std = self.log_std_head(features).clip(_LOG_STD_MIN,
                                                   _LOG_STD_MAX)
        return mean, log_std

    def sample(self, obs: Tensor,
               rng: np.random.Generator) -> Tuple[Tensor, Tensor]:
        """Reparameterized squashed sample and its log-probability."""
        mean, log_std = self(obs)
        std = log_std.exp()
        noise = Tensor(rng.standard_normal(mean.shape))
        pre_tanh = mean + std * noise
        action = pre_tanh.tanh()
        gaussian_logp = (
            (noise * noise) * -0.5 - log_std - 0.5 * _LOG_2PI
        ).sum(axis=-1)
        # Change of variables for the tanh squash.
        correction = (1.0 - action * action + 1e-6).log().sum(axis=-1)
        return action, gaussian_logp - correction


class SAC(OffPolicyAgent):
    """Soft actor-critic over the level box."""

    name = "sac"

    def __init__(self, alpha: float = 0.1, **kwargs) -> None:
        super().__init__(**kwargs)
        if alpha < 0:
            raise ValueError("alpha must be non-negative")
        self.alpha = alpha

    def _build(self, env: HWAssignmentEnv) -> None:
        obs_dim = env.observation_dim
        self.actor = GaussianActor(obs_dim, self.action_dim,
                                   self.hidden_sizes, rng=self.rng)
        self.critic1 = QNetwork(obs_dim, self.action_dim, self.hidden_sizes,
                                rng=self.rng)
        self.critic2 = QNetwork(obs_dim, self.action_dim, self.hidden_sizes,
                                rng=self.rng)
        self.critic1_target = QNetwork(obs_dim, self.action_dim,
                                       self.hidden_sizes, rng=self.rng)
        self.critic2_target = QNetwork(obs_dim, self.action_dim,
                                       self.hidden_sizes, rng=self.rng)
        self.critic1_target.load_state_dict(self.critic1.state_dict())
        self.critic2_target.load_state_dict(self.critic2.state_dict())
        self.actor_optimizer = Adam(self.actor.parameters(), lr=self.lr)
        self.critic_optimizer = Adam(
            self.critic1.parameters() + self.critic2.parameters(),
            lr=self.lr)

    def _act(self, observation: np.ndarray, explore: bool) -> np.ndarray:
        obs = Tensor(observation.reshape(1, -1))
        with no_grad():
            if explore:
                action, _ = self.actor.sample(obs, self.rng)
                return action.numpy()[0]
            mean, _ = self.actor(obs)
            return np.tanh(mean.numpy()[0])

    def _update(self) -> None:
        obs, actions, rewards, next_obs, dones = self._sample_batch()
        with no_grad():
            next_actions, next_logp = self.actor.sample(next_obs, self.rng)
            q1 = self.critic1_target(next_obs, next_actions).numpy()
            q2 = self.critic2_target(next_obs, next_actions).numpy()
            soft_q = (np.minimum(q1, q2).reshape(-1)
                      - self.alpha * next_logp.numpy())
        targets = Tensor(rewards + self.discount * (1.0 - dones) * soft_q)

        q1_values = self.critic1(obs, actions).reshape(self.batch_size)
        q2_values = self.critic2(obs, actions).reshape(self.batch_size)
        critic_loss = huber_loss(q1_values, targets) \
            + huber_loss(q2_values, targets)
        self.critic_optimizer.zero_grad()
        critic_loss.backward()
        self.critic_optimizer.step()

        new_actions, logp = self.actor.sample(obs, self.rng)
        q1_pi = self.critic1(obs, new_actions).reshape(self.batch_size)
        q2_pi = self.critic2(obs, new_actions).reshape(self.batch_size)
        min_q = 0.5 * (q1_pi + q2_pi - (q1_pi - q2_pi).abs())
        actor_loss = (logp * self.alpha - min_q).mean()
        self.actor_optimizer.zero_grad()
        self.critic1.zero_grad()
        self.critic2.zero_grad()
        actor_loss.backward()
        self.actor_optimizer.step()
        self.critic1.zero_grad()
        self.critic2.zero_grad()

        self.critic1_target.soft_update(self.critic1, self.tau)
        self.critic2_target.soft_update(self.critic2, self.tau)

    def _memory_bytes(self) -> int:
        return 8 * (self.actor.num_parameters()
                    + 2 * (self.critic1.num_parameters()
                           + self.critic2.num_parameters()))
