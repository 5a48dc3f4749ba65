"""Layer descriptions used by the cost model and the RL observation space.

A :class:`Layer` captures the seven shape dimensions of equation (1) in the
paper: output channels ``K``, input channels ``C``, input activation height
``Y`` and width ``X``, and kernel height ``R`` and width ``S``, plus the
layer-type indicator ``T``.  GEMM layers (M, N, K) are mapped onto the same
record via :func:`gemm_layer` so that one observation encoding serves both
CNN and GEMM models, exactly as the paper does (footnote 3).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field


class LayerType(enum.IntEnum):
    """Layer-type indicator ``T`` of the observation space.

    The integer values are what gets (normalized and) fed to the policy
    network, so they are part of the public contract.
    """

    CONV = 0
    DWCONV = 1
    PWCONV = 2
    GEMM = 3


@dataclass(frozen=True)
class Layer:
    """One DNN layer as seen by the accelerator.

    Attributes:
        name: Human-readable identifier (unique within a model).
        layer_type: CONV / DWCONV / PWCONV / GEMM.
        K: Number of output channels (GEMM: M).
        C: Number of input channels (GEMM: K -- the contraction dim).
        Y: Input activation height (GEMM: N).
        X: Input activation width (GEMM: 1).
        R: Weight kernel height (GEMM: 1).
        S: Weight kernel width (GEMM: 1).
        stride: Convolution stride (both spatial dims).
    """

    name: str
    layer_type: LayerType
    K: int
    C: int
    Y: int
    X: int
    R: int = 1
    S: int = 1
    stride: int = 1

    def __post_init__(self) -> None:
        for dim in ("K", "C", "Y", "X", "R", "S", "stride"):
            value = getattr(self, dim)
            if not isinstance(value, int) or value < 1:
                raise ValueError(
                    f"layer {self.name!r}: dimension {dim} must be a positive "
                    f"integer, got {value!r}"
                )
        if self.R > self.Y or self.S > self.X:
            raise ValueError(
                f"layer {self.name!r}: kernel ({self.R}x{self.S}) larger than "
                f"input ({self.Y}x{self.X})"
            )
        if self.layer_type is LayerType.DWCONV and self.K != self.C:
            raise ValueError(
                f"layer {self.name!r}: depth-wise convolution requires K == C "
                f"(got K={self.K}, C={self.C})"
            )
        if self.layer_type is LayerType.PWCONV and (self.R != 1 or self.S != 1):
            raise ValueError(
                f"layer {self.name!r}: point-wise convolution requires 1x1 "
                f"kernel (got {self.R}x{self.S})"
            )

    @property
    def out_y(self) -> int:
        """Output activation height (valid padding, as MAESTRO models it)."""
        return (self.Y - self.R) // self.stride + 1

    @property
    def out_x(self) -> int:
        """Output activation width."""
        return (self.X - self.S) // self.stride + 1

    @property
    def macs(self) -> int:
        """Total multiply-accumulate operations for this layer."""
        spatial = self.out_y * self.out_x * self.R * self.S
        if self.layer_type is LayerType.DWCONV:
            # One filter per channel: no reduction across C.
            return self.C * spatial
        return self.K * self.C * spatial

    @property
    def weight_elements(self) -> int:
        """Number of weight values (one byte each in our 8-bit model)."""
        if self.layer_type is LayerType.DWCONV:
            return self.C * self.R * self.S
        return self.K * self.C * self.R * self.S

    @property
    def input_elements(self) -> int:
        return self.C * self.Y * self.X

    @property
    def output_elements(self) -> int:
        return self.K * self.out_y * self.out_x


def gemm_layer(name: str, m: int, n: int, k: int) -> Layer:
    """Describe a GEMM of an (M, K) by (K, N) matrix product as a Layer.

    Following the paper's footnote 3, the three GEMM dimensions replace the
    seven convolution dimensions: M takes the role of output channels, K the
    contraction (input-channel) role, and N the spatial role.
    """
    return Layer(
        name=name, layer_type=LayerType.GEMM, K=m, C=k, Y=n, X=1, R=1, S=1
    )


@dataclass(frozen=True)
class ModelSummary:
    """Aggregate statistics for a layer list (used in reports and tests)."""

    name: str
    num_layers: int
    total_macs: int
    total_weights: int
    layer_type_counts: dict = field(default_factory=dict)


def summarize(name: str, layers: list) -> ModelSummary:
    """Aggregate layer counts, MACs, and weights for a layer list."""
    counts: dict = {}
    for layer in layers:
        key = layer.layer_type.name
        counts[key] = counts.get(key, 0) + 1
    return ModelSummary(
        name=name,
        num_layers=len(layers),
        total_macs=sum(layer.macs for layer in layers),
        total_weights=sum(layer.weight_elements for layer in layers),
        layer_type_counts=counts,
    )
