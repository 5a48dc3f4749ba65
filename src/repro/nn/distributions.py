"""Action distributions for the RL agents.

``Categorical`` backs the discrete agents (REINFORCE, A2C, ACKTR, PPO2);
``DiagGaussian`` backs the continuous ones (DDPG's exploration noise aside,
SAC and TD3 sample from / evaluate Gaussians over the squashed action box).
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

import numpy as np

from repro.nn.autograd import Tensor
from repro.nn.functional import log_softmax, softmax

_LOG_2PI = math.log(2.0 * math.pi)


class Categorical:
    """Categorical distribution parameterized by logits (batch, classes).

    ``Tensor`` logits build the autograd graph.  ``ndarray`` logits give
    values only, with the tape's arithmetic: ``log_prob`` and
    ``entropy`` return arrays bit-identical to the tape's values, and
    :meth:`logits_grad` is the matching backward.
    """

    def __init__(self, logits) -> None:
        if logits.ndim != 2:
            raise ValueError("logits must be 2-D (batch, classes)")
        self.logits = logits
        if isinstance(logits, Tensor):
            self._log_probs = log_softmax(logits, axis=-1)
            return
        shifted = logits - logits.max(axis=-1, keepdims=True)
        #: exp(shifted logits) and its row sums, kept for the backward.
        self.exp = np.exp(shifted)
        self.exp_sum = self.exp.sum(axis=-1, keepdims=True)
        self._log_probs = shifted - np.log(self.exp_sum)
        self._probs = self.exp / self.exp_sum

    @property
    def probs(self) -> np.ndarray:
        if isinstance(self.logits, Tensor):
            return softmax(self.logits, axis=-1).numpy()
        return self._probs.copy()

    def sample(self, rng: np.random.Generator) -> np.ndarray:
        """Sample one class index per batch row (no gradient)."""
        probs = self.probs
        cumulative = probs.cumsum(axis=-1)
        # Guard against round-off so searchsorted never lands out of range.
        cumulative[:, -1] = 1.0
        draws = rng.random(size=(probs.shape[0], 1))
        return (draws < cumulative).argmax(axis=-1)

    def mode(self) -> np.ndarray:
        return self.probs.argmax(axis=-1)

    def log_prob(self, actions: Sequence[int]):
        """Log-probability of ``actions`` (with gradients to ``Tensor``
        logits)."""
        actions = np.asarray(actions, dtype=np.int64)
        rows = np.arange(actions.shape[0])
        return self._log_probs[rows, actions]

    def entropy(self):
        if isinstance(self.logits, Tensor):
            probs = softmax(self.logits, axis=-1)
        else:
            probs = self._probs
        return -(probs * self._log_probs).sum(axis=-1)

    def logits_grad(self, actions: np.ndarray, d_log_prob: np.ndarray,
                    d_entropy: np.ndarray) -> np.ndarray:
        """Gradient with respect to ``ndarray`` logits of
        ``log_prob(actions)`` and ``entropy()``, for all ``T`` rows at
        once.

        ``d_log_prob`` and ``d_entropy`` have shape ``(T,)``.  Each line
        is the tape's backward for one node, in the tape's operand order,
        so the result is bit-identical to it row by row.
        """
        log_probs, probs = self._log_probs, self._probs
        exp, exp_sum = self.exp, self.exp_sum
        rows = np.arange(actions.shape[0])
        # entropy = -(probs * log_probs).sum(-1), probs = exp / exp_sum
        d_prod = np.broadcast_to(-d_entropy[:, None], probs.shape)
        d_probs = d_prod * log_probs
        d_exp = (d_probs / exp_sum
                 + (-d_probs * exp / exp_sum ** 2).sum(axis=-1,
                                                       keepdims=True))
        d_logits = d_exp * exp
        # log_probs = shifted - log(exp(shifted).sum(-1)); the log-probs
        # feed log_prob's gather and the entropy's product.
        d_log_probs = d_prod * probs
        d_log_probs[rows, actions] += d_log_prob
        d_log_sum = -d_log_probs.sum(axis=-1, keepdims=True)
        d_shifted = d_log_probs + d_log_sum / exp_sum * exp
        return d_shifted + d_logits


class DiagGaussian:
    """Diagonal Gaussian with learnable mean and log-std tensors."""

    def __init__(self, mean: Tensor, log_std: Tensor) -> None:
        self.mean = mean
        self.log_std = log_std

    def sample(self, rng: np.random.Generator) -> np.ndarray:
        noise = rng.standard_normal(self.mean.shape)
        return self.mean.numpy() + np.exp(self.log_std.numpy()) * noise

    def rsample(self, rng: np.random.Generator) -> Tensor:
        """Reparameterized sample (gradient flows to mean and log-std)."""
        noise = Tensor(rng.standard_normal(self.mean.shape))
        return self.mean + self.log_std.exp() * noise

    def log_prob(self, value) -> Tensor:
        value = value if isinstance(value, Tensor) else Tensor(value)
        var = (self.log_std * 2.0).exp()
        diff = value - self.mean
        per_dim = (
            (diff * diff) / var * -0.5
            - self.log_std
            - 0.5 * _LOG_2PI
        )
        return per_dim.sum(axis=-1)

    def entropy(self) -> Tensor:
        return (self.log_std + 0.5 * (_LOG_2PI + 1.0)).sum(axis=-1)
