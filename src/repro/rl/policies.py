"""Policy networks: the paper's RNN (LSTM-128) policy and the MLP ablation.

Both produce one categorical distribution per action head -- (PE, Buffer)
and, under MIX, the dataflow style.  The recurrent policy threads an LSTM
state through the episode so it can ``remember the consumed constraint of
previous layers`` (Section IV-G); the MLP sees only the current observation
(which still includes the previous action, equation 1).

The recurrent policy also runs tape-free: an array forward that records
each step in a :class:`RecurrentTrace`, and a hand-derived backward
(:meth:`RecurrentPolicy.bptt`) whose gradients equal the autograd tape's
byte for byte.  REINFORCE uses that pair on single-env episodes.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.nn.autograd import Tensor
from repro.nn.distributions import Categorical
from repro.nn.modules import Linear, LSTMCell, MLP, Module


def _sigmoid(z: np.ndarray) -> np.ndarray:
    """``Tensor.sigmoid``'s arithmetic on a plain array."""
    return 1.0 / (1.0 + np.exp(-z))


class RecurrentTrace:
    """One episode's activations under :class:`RecurrentPolicy`'s array
    forward, preallocated to ``capacity`` steps (the env's layer count).

    Row ``t`` holds step ``t``; ``h`` and ``c`` have one extra leading
    row, the zero state, so ``h[t]`` is the state step ``t`` starts from.
    A trace belongs to one episode and one thread.
    """

    def __init__(self, policy: "RecurrentPolicy", capacity: int) -> None:
        hidden = policy.hidden_size
        sizes = [head.out_features for head in policy.heads]
        self.length = 0
        self.obs = np.empty((capacity, policy.obs_dim))
        self.h = np.zeros((capacity + 1, hidden))
        self.c = np.zeros((capacity + 1, hidden))
        #: Gate activations, in the cell's order: input, forget, cell,
        #: output.
        self.gates = np.empty((capacity, 4 * hidden))
        self.tanh_c = np.empty((capacity, hidden))
        #: Per head: log-probabilities, probabilities, exp(shifted
        #: logits) and its row sums -- the values the tape would hold.
        self.heads = [tuple(np.empty((capacity, width))
                            for width in (size, size, size, 1))
                      for size in sizes]
        self.actions = np.empty((capacity, len(sizes)), dtype=np.int64)
        #: Per step: log-probability and entropy summed over the heads.
        self.log_prob = np.empty(capacity)
        self.entropy = np.empty(capacity)

    def initial_state(self) -> Tuple[np.ndarray, np.ndarray]:
        return self.h[0:1], self.c[0:1]

    def record(self, action: Sequence[int], log_prob: np.ndarray,
               entropy: np.ndarray) -> None:
        """Close the current step with its sampled action and summed
        log-probability and entropy."""
        t = self.length
        self.actions[t] = action
        self.log_prob[t] = log_prob[0]
        self.entropy[t] = entropy[0]
        self.length = t + 1


class RecurrentPolicy(Module):
    """LSTM backbone with one linear head per sub-action.

    Args:
        obs_dim: Observation dimensionality (10, equation 1).
        head_sizes: Number of levels per action head (Table I / MIX).
        hidden_size: LSTM width; the paper uses 128.
    """

    def __init__(self, obs_dim: int, head_sizes: Sequence[int],
                 hidden_size: int = 128,
                 rng: Optional[np.random.Generator] = None) -> None:
        rng = rng or np.random.default_rng()
        self.obs_dim = obs_dim
        self.hidden_size = hidden_size
        self.cell = LSTMCell(obs_dim, hidden_size, rng=rng)
        self.heads = [Linear(hidden_size, size, rng=rng, gain=0.1)
                      for size in head_sizes]

    @property
    def is_recurrent(self) -> bool:
        return True

    def initial_state(self, batch: int = 1) -> Tuple[Tensor, Tensor]:
        """Zero state for ``batch`` lockstep episodes (1 = scalar)."""
        return self.cell.initial_state(batch=batch)

    def forward(self, obs, state, trace: Optional[RecurrentTrace] = None):
        """One step: the head distributions and the next ``(h, c)``.

        Without ``trace`` this builds the autograd graph over ``Tensor``
        inputs.  With one, ``obs`` and ``state`` are plain ``(1, n)``
        arrays (``trace.initial_state()`` to start), no graph is built,
        the distributions carry array logits, and the step's activations
        land in the trace's current row for :meth:`bptt`.
        """
        if trace is not None:
            return self._forward_arrays(obs, state, trace)
        h, c = self.cell(obs, state)
        dists = [Categorical(head(h)) for head in self.heads]
        return dists, (h, c)

    def _forward_arrays(self, obs: np.ndarray, state,
                        trace: RecurrentTrace):
        """``forward`` on arrays, operation for operation the tape's
        arithmetic, so every value is bit-identical to it."""
        t = trace.length
        h_prev, c_prev = state
        hs = self.hidden_size
        cell = self.cell
        x = trace.obs[t:t + 1]
        x[...] = obs
        gates = (x @ cell.weight_x.data + h_prev @ cell.weight_h.data
                 + cell.bias.data)
        act = trace.gates[t:t + 1]
        for lo, squash in ((0, _sigmoid), (hs, _sigmoid), (2 * hs, np.tanh),
                           (3 * hs, _sigmoid)):
            act[:, lo:lo + hs] = squash(gates[:, lo:lo + hs])
        i_gate, f_gate, g_gate, o_gate = (act[:, k * hs:(k + 1) * hs]
                                          for k in range(4))
        h, c = trace.h[t + 1:t + 2], trace.c[t + 1:t + 2]
        np.add(f_gate * c_prev, i_gate * g_gate, out=c)
        tanh_c = trace.tanh_c[t:t + 1]
        np.tanh(c, out=tanh_c)
        np.multiply(o_gate, tanh_c, out=h)
        dists = []
        for head, arrays in zip(self.heads, trace.heads):
            dist = Categorical(h @ head.weight.data + head.bias.data)
            for array, value in zip(arrays, (dist._log_probs, dist._probs,
                                             dist.exp, dist.exp_sum)):
                array[t] = value[0]
            dists.append(dist)
        return dists, (h, c)

    def bptt(self, trace: RecurrentTrace, d_log_prob: np.ndarray,
             d_entropy: np.ndarray) -> List[np.ndarray]:
        """Backpropagation through time over one traced episode.

        ``d_log_prob`` and ``d_entropy`` are the loss gradients of each
        step's summed log-probability and entropy, shape ``(T,)``.
        Returns one gradient per :meth:`parameters` entry, byte for byte
        what the autograd tape accumulates, because every sum of three or
        more parts follows the tape's order:

        * a head's weight and bias add their per-step parts in forward
          time order (a stacked array summed along axis 0 adds row by
          row);
        * the LSTM's ``W_x``, ``W_h`` and bias add theirs in reverse time
          order, as the loop below meets them;
        * ``dh_t`` is the head parts in head order, then the recurrent
          part from step ``t + 1``.

        Products that feed a sum keep the tape's shapes: one
        ``(1, k) @ (k, H)`` product per head and step, and one
        ``dgates @ W_h.T`` per step.  A single ``(T, k) @ (k, H)``
        product sums in another order and drifts by ulps.
        """
        steps = trace.length
        hs = self.hidden_size
        cell = self.cell
        h = trace.h[1:steps + 1]
        head_grads, head_backs = [], []
        for index, (head, arrays) in enumerate(zip(self.heads, trace.heads)):
            dz = Categorical.logits_grad(
                trace.actions[:steps, index],
                *(array[:steps] for array in arrays), d_log_prob, d_entropy)
            head_backs.append((dz, head.weight.data.swapaxes(-1, -2)))
            head_grads += [(h[:, :, None] * dz[:, None, :]).sum(axis=0),
                           dz.sum(axis=0)]

        w_h_t = cell.weight_h.data.swapaxes(-1, -2)
        grads = [np.zeros_like(p.data)
                 for p in (cell.weight_x, cell.weight_h, cell.bias)]
        parts = [np.empty_like(grad) for grad in grads]
        dgates = np.empty((1, 4 * hs))
        obs_columns, h_columns = trace.obs[:, :, None], trace.h[:, :, None]
        dh_next = dc_next = None
        for t in range(steps - 1, -1, -1):
            dh = None
            for dz, weight_t in head_backs:
                part = dz[t:t + 1] @ weight_t
                dh = part if dh is None else dh + part
            if dh_next is not None:
                dh = dh + dh_next
            dh = dh[0]
            act = trace.gates[t]
            i_gate, f_gate, g_gate, o_gate = (act[k * hs:(k + 1) * hs]
                                              for k in range(4))
            tanh_c = trace.tanh_c[t]
            dc = dh * o_gate * (1.0 - tanh_c ** 2)
            if dc_next is not None:
                dc = dc + dc_next
            dgates[0, :hs] = dc * g_gate * i_gate * (1.0 - i_gate)
            dgates[0, hs:2 * hs] = dc * trace.c[t] * f_gate * (1.0 - f_gate)
            dgates[0, 2 * hs:3 * hs] = dc * i_gate * (1.0 - g_gate ** 2)
            dgates[0, 3 * hs:] = dh * tanh_c * o_gate * (1.0 - o_gate)
            dc_next = dc * f_gate
            np.multiply(obs_columns[t], dgates, out=parts[0])
            np.multiply(h_columns[t], dgates, out=parts[1])
            parts[2][...] = dgates[0]
            for grad, part in zip(grads, parts):
                grad += part
            dh_next = dgates @ w_h_t
        return [*grads, *head_grads]


class MLPPolicy(Module):
    """Feed-forward policy (Table IX's MLP ablation and the comparison
    agents' default architecture)."""

    def __init__(self, obs_dim: int, head_sizes: Sequence[int],
                 hidden_sizes: Sequence[int] = (64, 64),
                 rng: Optional[np.random.Generator] = None) -> None:
        rng = rng or np.random.default_rng()
        self.obs_dim = obs_dim
        self.body = MLP([obs_dim, *hidden_sizes], activation="tanh",
                        output_activation="tanh", rng=rng)
        self.heads = [Linear(hidden_sizes[-1], size, rng=rng, gain=0.1)
                      for size in head_sizes]

    @property
    def is_recurrent(self) -> bool:
        return False

    def initial_state(self, batch: int = 1) -> None:
        return None

    def forward(self, obs: Tensor, state=None
                ) -> Tuple[List[Categorical], None]:
        features = self.body(obs)
        dists = [Categorical(head(features)) for head in self.heads]
        return dists, None


def build_policy(kind: str, obs_dim: int, head_sizes: Sequence[int],
                 rng: Optional[np.random.Generator] = None,
                 hidden_size: int = 128) -> Module:
    """Factory used by the policy-network ablation (Table IX)."""
    if kind == "rnn":
        return RecurrentPolicy(obs_dim, head_sizes, hidden_size=hidden_size,
                               rng=rng)
    if kind == "mlp":
        return MLPPolicy(obs_dim, head_sizes, rng=rng)
    raise ValueError(f"unknown policy kind {kind!r} (use 'rnn' or 'mlp')")
