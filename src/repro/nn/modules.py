"""Neural-network modules: parameters, linear layers, MLPs, and LSTMs.

``Module`` provides parameter discovery (recursively through attributes),
state (de)serialization for target-network syncing, and gradient zeroing.
Initialization follows the conventions of the frameworks the paper used:
orthogonal-ish scaled-uniform for linear layers, unit forget-gate bias for
LSTMs.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.nn.autograd import Tensor, _unbroadcast


class Parameter(Tensor):
    """A tensor registered as trainable.

    A parameter keeps the gradient array its first backward allocated.
    :meth:`zero_grad` only unbinds ``grad``; the next backward after it
    copies into the kept array instead of allocating a new one, so an
    update allocates nothing of the parameter's size.  The next backward
    after ``zero_grad`` therefore overwrites a ``grad`` read before it:
    copy the array to keep its values.  An array assigned to ``grad``
    from outside (ACKTR's preconditioned gradient) is never kept, so no
    backward writes into it.
    """

    __slots__ = ("_kept",)

    def __init__(self, data) -> None:
        super().__init__(data, requires_grad=True)
        self._kept: Optional[np.ndarray] = None

    def _accumulate(self, grad: np.ndarray) -> None:
        if self.grad is not None:
            super()._accumulate(grad)
            return
        grad = _unbroadcast(np.asarray(grad, dtype=np.float64),
                            self.data.shape)
        if self._kept is None:
            self._kept = np.empty(self.data.shape)
        np.copyto(self._kept, grad)
        self.grad = self._kept


class Module:
    """Base class with recursive parameter discovery and state dicts."""

    def parameters(self) -> List[Parameter]:
        found: List[Parameter] = []
        seen = set()
        self._collect(found, seen)
        return found

    def _collect(self, found: List[Parameter], seen: set) -> None:
        for value in vars(self).values():
            self._collect_value(value, found, seen)

    def _collect_value(self, value, found: List[Parameter],
                       seen: set) -> None:
        if isinstance(value, Parameter):
            if id(value) not in seen:
                seen.add(id(value))
                found.append(value)
        elif isinstance(value, Module):
            value._collect(found, seen)
        elif isinstance(value, (list, tuple)):
            for item in value:
                self._collect_value(item, found, seen)
        elif isinstance(value, dict):
            for item in value.values():
                self._collect_value(item, found, seen)

    def zero_grad(self) -> None:
        for parameter in self.parameters():
            parameter.zero_grad()

    def num_parameters(self) -> int:
        """Total scalar parameter count (the paper's memory column)."""
        return sum(p.size for p in self.parameters())

    def state_dict(self) -> List[np.ndarray]:
        """Parameter values in discovery order (copies)."""
        return [p.data.copy() for p in self.parameters()]

    def load_state_dict(self, state: Sequence[np.ndarray]) -> None:
        parameters = self.parameters()
        if len(parameters) != len(state):
            raise ValueError(
                f"state has {len(state)} arrays but module has "
                f"{len(parameters)} parameters"
            )
        for parameter, array in zip(parameters, state):
            if parameter.data.shape != array.shape:
                raise ValueError(
                    f"shape mismatch: {parameter.data.shape} vs {array.shape}"
                )
            parameter.data = array.copy()

    def soft_update(self, source: "Module", tau: float) -> None:
        """Polyak averaging toward ``source`` (target networks)."""
        own = self.parameters()
        other = source.parameters()
        if len(own) != len(other):
            raise ValueError("module structures do not match")
        for p_target, p_source in zip(own, other):
            p_target.data = (1.0 - tau) * p_target.data + tau * p_source.data

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)

    def forward(self, *args, **kwargs):  # pragma: no cover - interface
        raise NotImplementedError


def _linear_init(rng: np.random.Generator, fan_in: int, fan_out: int,
                 gain: float = 1.0) -> np.ndarray:
    """Scaled-uniform init (Glorot-style)."""
    bound = gain * np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=(fan_in, fan_out))


class Linear(Module):
    """Affine layer ``y = x W + b``."""

    def __init__(self, in_features: int, out_features: int,
                 rng: Optional[np.random.Generator] = None,
                 gain: float = 1.0) -> None:
        if in_features < 1 or out_features < 1:
            raise ValueError("feature counts must be positive")
        rng = rng or np.random.default_rng()
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(_linear_init(rng, in_features, out_features,
                                             gain))
        self.bias = Parameter(np.zeros(out_features))

    def forward(self, x: Tensor) -> Tensor:
        return x @ self.weight + self.bias


_ACTIVATIONS = {
    "tanh": lambda t: t.tanh(),
    "relu": lambda t: t.relu(),
    "identity": lambda t: t,
}


class MLP(Module):
    """Multi-layer perceptron with a configurable hidden activation."""

    def __init__(self, sizes: Sequence[int], activation: str = "tanh",
                 output_activation: str = "identity",
                 rng: Optional[np.random.Generator] = None) -> None:
        if len(sizes) < 2:
            raise ValueError("MLP needs at least input and output sizes")
        if activation not in _ACTIVATIONS:
            raise ValueError(f"unknown activation {activation!r}")
        if output_activation not in _ACTIVATIONS:
            raise ValueError(f"unknown activation {output_activation!r}")
        rng = rng or np.random.default_rng()
        self.layers = [
            Linear(sizes[i], sizes[i + 1], rng=rng)
            for i in range(len(sizes) - 1)
        ]
        self._activation = activation
        self._output_activation = output_activation

    def forward(self, x: Tensor) -> Tensor:
        for layer in self.layers[:-1]:
            x = _ACTIVATIONS[self._activation](layer(x))
        return _ACTIVATIONS[self._output_activation](self.layers[-1](x))


class LSTMCell(Module):
    """A single LSTM cell with fused gate weights.

    Gate order in the fused matrices: input, forget, cell, output.  The
    forget-gate bias starts at 1.0, the standard trick for gradient flow
    over the ~50-step episodes of the larger models.
    """

    def __init__(self, input_size: int, hidden_size: int,
                 rng: Optional[np.random.Generator] = None) -> None:
        if input_size < 1 or hidden_size < 1:
            raise ValueError("sizes must be positive")
        rng = rng or np.random.default_rng()
        self.input_size = input_size
        self.hidden_size = hidden_size
        self.weight_x = Parameter(
            _linear_init(rng, input_size, 4 * hidden_size))
        self.weight_h = Parameter(
            _linear_init(rng, hidden_size, 4 * hidden_size))
        bias = np.zeros(4 * hidden_size)
        bias[hidden_size:2 * hidden_size] = 1.0
        self.bias = Parameter(bias)

    def initial_state(self) -> Tuple[Tensor, Tensor]:
        zeros = np.zeros((1, self.hidden_size))
        return Tensor(zeros), Tensor(zeros)

    def forward(self, x: Tensor,
                state: Tuple[Tensor, Tensor]) -> Tuple[Tensor, Tensor]:
        h_prev, c_prev = state
        gates = x @ self.weight_x + h_prev @ self.weight_h + self.bias
        hs = self.hidden_size
        i_gate = gates[:, 0 * hs:1 * hs].sigmoid()
        f_gate = gates[:, 1 * hs:2 * hs].sigmoid()
        g_gate = gates[:, 2 * hs:3 * hs].tanh()
        o_gate = gates[:, 3 * hs:4 * hs].sigmoid()
        c_next = f_gate * c_prev + i_gate * g_gate
        h_next = o_gate * c_next.tanh()
        return h_next, c_next
