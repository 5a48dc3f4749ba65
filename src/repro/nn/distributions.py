"""The action distribution of the discrete RL agents.

``Categorical`` backs REINFORCE, A2C, ACKTR and PPO2.  The continuous
agents keep their own: SAC's ``GaussianActor`` and DDPG's and TD3's
exploration noise.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.nn.autograd import Tensor
from repro.nn.functional import log_softmax, softmax


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
        self._shifted = logits - logits.max(axis=-1, keepdims=True)
        #: exp(shifted logits) and its row sums, kept for the backward.
        self.exp = np.exp(self._shifted)
        self.exp_sum = self.exp.sum(axis=-1, keepdims=True)
        self._probs = self.exp / self.exp_sum
        # A rollout step only samples; the log-probs wait for first use.
        self._log_probs = None

    def _log_softmax(self):
        """The log-probabilities: a tape node for ``Tensor`` logits; for
        ``ndarray`` logits an array, computed once, on first use."""
        if self._log_probs is None:
            self._log_probs = self._shifted - np.log(self.exp_sum)
        return self._log_probs

    @property
    def probs(self) -> np.ndarray:
        if isinstance(self.logits, Tensor):
            return softmax(self.logits, axis=-1).numpy()
        return self._probs.copy()

    def sample(self, rng: np.random.Generator) -> np.ndarray:
        """Sample one class index per batch row (no gradient)."""
        # ndarray logits: read the probabilities in place; cumsum copies.
        probs = (self.probs if isinstance(self.logits, Tensor)
                 else self._probs)
        cumulative = probs.cumsum(axis=-1)
        # Guard against round-off so searchsorted never lands out of range.
        cumulative[:, -1] = 1.0
        draws = rng.random(size=(probs.shape[0], 1))
        return (draws < cumulative).argmax(axis=-1)

    def log_prob(self, actions: Sequence[int]):
        """Log-probability of ``actions`` (with gradients to ``Tensor``
        logits)."""
        actions = np.asarray(actions, dtype=np.int64)
        rows = np.arange(actions.shape[0])
        return self._log_softmax()[rows, actions]

    def entropy(self):
        if isinstance(self.logits, Tensor):
            probs = softmax(self.logits, axis=-1)
        else:
            probs = self._probs
        return -(probs * self._log_softmax()).sum(axis=-1)

    def logits_grad(self, actions: np.ndarray, d_log_prob: np.ndarray,
                    d_entropy: np.ndarray) -> np.ndarray:
        """Gradient with respect to ``ndarray`` logits of
        ``log_prob(actions)`` and ``entropy()``, for all ``T`` rows at
        once.

        ``d_log_prob`` and ``d_entropy`` have shape ``(T,)``.  Each line
        is the tape's backward for one node, in the tape's operand order,
        so the result is bit-identical to it row by row.
        """
        log_probs, probs = self._log_softmax(), self._probs
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
