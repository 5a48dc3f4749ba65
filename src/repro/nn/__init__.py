"""A small reverse-mode autograd engine and neural-network library on numpy.

The paper builds its agents on off-the-shelf RL frameworks; this repository
has no such dependency, so ``repro.nn`` supplies the substrate: a tensor
autograd engine, the modules the policy/value networks need (``Linear``,
``LSTMCell``, ``MLP``), the Adam optimizer with gradient clipping, and the
categorical action distribution of the discrete agents.
"""

from repro.nn.autograd import Tensor, no_grad
from repro.nn.modules import LSTMCell, Linear, MLP, Module, Parameter
from repro.nn.optim import Adam, Optimizer, clip_grad_norm
from repro.nn.distributions import Categorical
from repro.nn import functional

__all__ = [
    "Tensor",
    "no_grad",
    "Module",
    "Parameter",
    "Linear",
    "MLP",
    "LSTMCell",
    "Optimizer",
    "Adam",
    "clip_grad_norm",
    "Categorical",
    "functional",
]
