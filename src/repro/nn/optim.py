"""Gradient-descent optimizers for the tiny NN library."""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.nn.modules import Parameter


class Optimizer:
    """Base optimizer over an explicit parameter list."""

    def __init__(self, parameters: Sequence[Parameter]) -> None:
        self.parameters: List[Parameter] = list(parameters)
        if not self.parameters:
            raise ValueError("optimizer needs at least one parameter")

    def zero_grad(self) -> None:
        for parameter in self.parameters:
            parameter.zero_grad()

    def step(self) -> None:  # pragma: no cover - interface
        raise NotImplementedError


class Adam(Optimizer):
    """Adam (Kingma & Ba) with bias correction."""

    def __init__(self, parameters: Sequence[Parameter], lr: float = 1e-3,
                 betas: tuple = (0.9, 0.999), eps: float = 1e-8) -> None:
        super().__init__(parameters)
        if lr <= 0:
            raise ValueError("learning rate must be positive")
        beta1, beta2 = betas
        if not (0.0 <= beta1 < 1.0 and 0.0 <= beta2 < 1.0):
            raise ValueError("betas must be in [0, 1)")
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self._step_count = 0
        self._m = [np.zeros_like(p.data) for p in self.parameters]
        self._v = [np.zeros_like(p.data) for p in self.parameters]
        # Two scratch buffers per parameter, so a step allocates nothing.
        self._scratch = [(np.empty_like(p.data), np.empty_like(p.data))
                         for p in self.parameters]
        #: Each parameter's first scratch array, in parameter order, for
        #: lending whole (``clip_grad_norm``'s ``work``).
        self.work = [update for update, _ in self._scratch]

    def scratch(self, parameter: Parameter) -> Tuple[np.ndarray, np.ndarray]:
        """The two scratch arrays :meth:`step` uses for ``parameter``.

        They hold nothing from one step to the next, so the thread that
        drives this optimizer may use them as work space between steps.
        REINFORCE lends them twice per update: ``bptt`` writes the
        ``W_h`` gradient into the first one, the backward copies it out
        into the parameter's gradient, and then :func:`clip_grad_norm`
        squares every gradient into the first arrays (:attr:`work`).
        Whatever a caller leaves in them is gone after :meth:`step`.
        """
        return self._scratch[self.parameters.index(parameter)]

    def step(self) -> None:
        """One Adam step, in place.

        Every ``out=`` operation below is the same IEEE operation, on the
        same operands, as the textbook expression
        ``data -= lr * (m / bias1) / (sqrt(v / bias2) + eps)``, so the
        update is bit-identical to it.
        """
        self._step_count += 1
        bias1 = 1.0 - self.beta1 ** self._step_count
        bias2 = 1.0 - self.beta2 ** self._step_count
        for parameter, m, v, (update, denom) in zip(
                self.parameters, self._m, self._v, self._scratch):
            grad = parameter.grad
            if grad is None:
                continue
            m *= self.beta1
            np.multiply(grad, 1.0 - self.beta1, out=update)
            m += update
            v *= self.beta2
            np.multiply(grad, 1.0 - self.beta2, out=update)
            update *= grad
            v += update
            np.divide(v, bias2, out=denom)
            np.sqrt(denom, out=denom)
            denom += self.eps
            np.divide(m, bias1, out=update)
            update *= self.lr
            update /= denom
            parameter.data -= update


def clip_grad_norm(parameters: Sequence[Parameter], max_norm: float,
                   work: Optional[Sequence[np.ndarray]] = None) -> float:
    """Scale gradients so their global L2 norm is at most ``max_norm``.

    ``work`` lends one array per parameter, each of that parameter's
    shape and C-ordered (:attr:`Adam.work` between steps); the squares
    are written there instead of into a fresh array per parameter.  The
    norm and the scaled gradients are the same bytes either way:
    ``grad ** 2`` is numpy's ``square``, and both sums run over the
    same layout.

    Returns the pre-clipping norm (useful for logging and tests).
    """
    if max_norm <= 0:
        raise ValueError("max_norm must be positive")
    total = 0.0
    for index, parameter in enumerate(parameters):
        grad = parameter.grad
        if grad is not None:
            squares = (grad ** 2 if work is None
                       else np.square(grad, out=work[index]))
            total += float(np.sum(squares))
    norm = float(np.sqrt(total))
    if norm > max_norm:
        scale = max_norm / (norm + 1e-12)
        for parameter in parameters:
            if parameter.grad is not None:
                parameter.grad *= scale
    return norm
