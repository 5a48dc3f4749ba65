"""Policy networks: the paper's RNN (LSTM-128) policy and the MLP ablation.

Both produce one categorical distribution per action head -- (PE, Buffer)
and, under MIX, the dataflow style.  The recurrent policy threads an LSTM
state through the episode so it can ``remember the consumed constraint of
previous layers`` (Section IV-G); the MLP sees only the current observation
(which still includes the previous action, equation 1).

The recurrent policy also runs tape-free: an array forward that records
each step in a :class:`RecurrentTrace`, and a hand-derived backward
(:meth:`RecurrentPolicy.bptt`) whose gradients equal the autograd tape's
byte for byte.  REINFORCE uses that pair for its LSTM policy.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.nn.autograd import Tensor
from repro.nn.distributions import Categorical
from repro.nn.modules import Linear, LSTMCell, MLP, Module


class RecurrentTrace:
    """One episode's activations under :class:`RecurrentPolicy`'s array
    forward, preallocated to ``capacity`` steps (the env's layer count),
    with the work arrays of :meth:`RecurrentPolicy.bptt`.

    Row ``t`` holds step ``t``; ``h`` and ``c`` have one extra leading
    row, the zero state, so ``h[t]`` is the state step ``t`` starts from.
    Each head keeps only its logits rows: the update builds one
    :class:`Categorical` per head over the whole episode from them.

    A trace is recycled.  :class:`~repro.rl.reinforce.Reinforce` takes
    it back after ``update`` and hands it to its next episode, which
    sets ``length`` to 0 and overwrites the rows it reaches (``h[0]``
    and ``c[0]`` stay the zero state: the forward writes from row 1);
    copy what must outlive the update.  The ``bptt`` work arrays hold
    nothing from one call to the next.  A trace belongs to one agent and
    one thread.
    """

    def __init__(self, policy: "RecurrentPolicy", capacity: int) -> None:
        hidden = policy.hidden_size
        self.capacity = capacity
        self.length = 0
        self.obs = np.empty((capacity, policy.obs_dim))
        self.h = np.zeros((capacity + 1, hidden))
        self.c = np.zeros((capacity + 1, hidden))
        #: Gate activations, in the cell's order: input, forget, cell,
        #: output.
        self.gates = np.empty((capacity, 4 * hidden))
        self.tanh_c = np.empty((capacity, hidden))
        #: Per head: each step's logits row.
        self.logits = [np.empty((capacity, head.out_features))
                       for head in policy.heads]
        self.actions = np.empty((capacity, len(policy.heads)),
                                dtype=np.int64)
        # bptt's work arrays: the three gate-factor arrays, the dgates
        # rows in reverse time order, time-reversed copies of h and of
        # the observations, and per head the (T, H, k) weight-gradient
        # parts.
        self.factors = np.empty((3, capacity, 4 * hidden))
        self.dgates = np.empty((capacity, 4 * hidden))
        self.h_reversed = np.empty((capacity, hidden))
        self.obs_reversed = np.empty((capacity, policy.obs_dim))
        self.head_parts = [np.empty((capacity, hidden, head.out_features))
                           for head in policy.heads]

    def initial_state(self) -> Tuple[np.ndarray, np.ndarray]:
        return self.h[0:1], self.c[0:1]

    def record(self, action: Sequence[int]) -> None:
        """Close the current step with its sampled action."""
        t = self.length
        self.actions[t] = action
        self.length = t + 1

    def distributions(self) -> List[Categorical]:
        """One :class:`Categorical` per head over the recorded steps'
        logits rows."""
        return [Categorical(logits[:self.length]) for logits in self.logits]


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

    def initial_state(self) -> Tuple[Tensor, Tensor]:
        """The zero state of one episode."""
        return self.cell.initial_state()

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
        # Tensor.sigmoid's 1 / (1 + exp(-z)) over the whole row, then the
        # cell gate's tanh over its slice.
        np.negative(gates, out=act)
        np.exp(act, out=act)
        np.add(1.0, act, out=act)
        np.divide(1.0, act, out=act)
        np.tanh(gates[:, 2 * hs:3 * hs], out=act[:, 2 * hs:3 * hs])
        i_gate, f_gate, g_gate, o_gate = (act[:, k * hs:(k + 1) * hs]
                                          for k in range(4))
        h, c = trace.h[t + 1:t + 2], trace.c[t + 1:t + 2]
        np.add(f_gate * c_prev, i_gate * g_gate, out=c)
        tanh_c = trace.tanh_c[t:t + 1]
        np.tanh(c, out=tanh_c)
        np.multiply(o_gate, tanh_c, out=h)
        dists = []
        for head, logits in zip(self.heads, trace.logits):
            row = logits[t:t + 1]
            np.add(h @ head.weight.data, head.bias.data, out=row)
            dists.append(Categorical(row))
        return dists, (h, c)

    def bptt(self, trace: RecurrentTrace, dists: Sequence[Categorical],
             d_log_prob: np.ndarray, d_entropy: np.ndarray,
             out: np.ndarray) -> List[np.ndarray]:
        """Backpropagation through time over one traced episode.

        ``dists`` holds one :class:`Categorical` per head over the
        episode's logits rows (``trace.logits``, ``trace.length`` rows
        each).  ``d_log_prob`` and ``d_entropy`` are the loss gradients
        of each step's summed log-probability and entropy, shape
        ``(T,)``.  Returns one gradient per :meth:`parameters` entry,
        byte for byte what the autograd tape accumulates.

        ``out`` is a scratch array of ``W_h``'s shape.  The ``W_h``
        gradient is written into it and returned, so the result is valid
        until the array's next use.  Every other array of ``W_h``'s
        order of size is one of the trace's work arrays, so a call
        allocates nothing that large.

        Every sum of three or more parts follows the tape's order:

        * a head's weight and bias add their per-step parts in forward
          time order (a stacked array summed along axis 0 adds row by
          row);
        * the LSTM's ``W_x``, ``W_h`` and bias add theirs in reverse time
          order, from ``+0.0``: each weight is one
          ``einsum('ti,tj->ij')`` over the ``dgates`` rows, which the
          loop writes in reverse time, and a contiguous time-reversed
          copy of ``h`` or the observations; it adds one rounded product
          at a time, in index order, into a zeroed output.  The bias is
          an axis-0 reduce over the same ``dgates`` with ``initial=0.0``;
        * ``dh_t`` is the head parts in head order, then the recurrent
          part from step ``t + 1``.

        Products keep the tape's kernels: each head's ``dh`` parts are
        one stacked ``(T, 1, k) @ (k, H)`` matmul, which runs the tape's
        ``(1, k) @ (k, H)`` product once per row, and the recurrence
        keeps one ``dgates @ W_h.T`` per step.  A single ``(T, k) @ (k,
        H)`` product, or a GEMM over time for a weight, sums in BLAS's
        blocked order and drifts by ulps; ``einsum`` without
        ``optimize`` never calls BLAS.

        The step loop does only the recurrence: dh, dc, the ``dgates``
        row and ``dh_next``.  The rest is vectorised over time: the
        heads' ``dh`` parts, ``1 - tanh(c)**2`` and three ``(T, 4H)``
        gate-factor arrays before the loop, the LSTM's sums after it.
        Step ``t``'s ``dgates`` row is ``((first * second[t]) *
        third[t]) * fourth[t]`` with ``first = [dc, dc, dc, dh]``, which
        keeps each gate's left-to-right product; the cell gate's third
        factor is 1.0, and multiplying by 1.0 is exact.
        """
        steps = trace.length
        hs = self.hidden_size
        h = trace.h[:steps + 1]
        dh_heads, head_grads = None, []
        for index, (head, dist, parts) in enumerate(
                zip(self.heads, dists, trace.head_parts)):
            dz = dist.logits_grad(trace.actions[:steps, index], d_log_prob,
                                  d_entropy)
            part = np.matmul(dz[:, None, :],
                             head.weight.data.swapaxes(-1, -2))[:, 0]
            if dh_heads is None:
                dh_heads = part
            else:
                dh_heads += part
            parts = parts[:steps]
            np.multiply(h[1:, :, None], dz[:, None, :], out=parts)
            head_grads += [parts.sum(axis=0), dz.sum(axis=0)]

        gates = trace.gates[:steps].reshape(steps, 4, hs)
        o_gate, f_gate = gates[:, 3], gates[:, 1]
        tanh_c = trace.tanh_c[:steps]
        dc_tanh = 1.0 - tanh_c ** 2
        factors = trace.factors[:, :steps]
        second, third, fourth = (factor.reshape(steps, 4, hs)
                                 for factor in factors)
        second[:, 0] = gates[:, 2]
        second[:, 1] = trace.c[:steps]
        second[:, 2] = gates[:, 0]
        second[:, 3] = tanh_c
        third[...] = gates
        third[:, 2] = 1.0
        np.subtract(1.0, gates, out=fourth)
        np.square(gates[:, 2], out=fourth[:, 2])
        np.subtract(1.0, fourth[:, 2], out=fourth[:, 2])
        second, third, fourth = factors

        # Row r of dgates is step steps - 1 - r: the loop writes it in
        # reverse time, the order the LSTM's sums below need.
        w_h_t = self.cell.weight_h.data.swapaxes(-1, -2)
        dgates = trace.dgates[:steps]
        first = dgates.reshape(steps, 4, hs)
        dh_next = dc_next = None
        for r, t in enumerate(range(steps - 1, -1, -1)):
            dh = dh_heads[t]
            if dh_next is not None:
                dh += dh_next[0]
            dc = dh * o_gate[t]
            dc *= dc_tanh[t]
            if dc_next is not None:
                dc += dc_next
            first[r, :3] = dc
            first[r, 3] = dh
            row = dgates[r]
            row *= second[t]
            row *= third[t]
            row *= fourth[t]
            dc_next = dc * f_gate[t]
            dh_next = dgates[r:r + 1] @ w_h_t

        # Contiguous copies, not reversed views: einsum would walk a
        # negative stride in memory order, which is forward time.
        h_reversed = trace.h_reversed[:steps]
        np.copyto(h_reversed, h[:steps][::-1])
        obs_reversed = trace.obs_reversed[:steps]
        np.copyto(obs_reversed, trace.obs[:steps][::-1])
        np.einsum("ti,tj->ij", h_reversed, dgates, out=out)
        grad_w_x = np.einsum("ti,tj->ij", obs_reversed, dgates)
        grad_bias = np.add.reduce(dgates, axis=0, initial=0.0)
        return [grad_w_x, out, grad_bias, *head_grads]


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

    def initial_state(self) -> None:
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
