"""Dataflow styles: how work is parallelized across PEs and reused in L1.

Each style answers four questions for a given layer, L1 buffer size, and PE
count:

1. **Tile fit** -- how many filters (the free tiling dimension the paper
   controls, footnote 2) fit in the L1 buffer.
2. **Spatial decomposition** -- how many independent work units exist, and
   how many MACs each unit performs; PEs beyond the unit count are idle
   (the over-provisioning plateaus of Fig. 4/5).
3. **Reuse / traffic** -- how many times each operand class crosses the
   L2-to-L1 boundary, given multicast across co-resident units.
4. **Buffer levels** -- the Table-I design-time buffer sizes for the
   coarse-grained action space (computed with the representative 3x3 kernel,
   which for the NVDLA style yields exactly the 19..129 byte ladder).

The three styles mirror the paper:

* ``NVDLAStyle`` (``dla``): weight-stationary, parallelizes K and C.
* ``EyerissStyle`` (``eye``): row-stationary, parallelizes Y and R.
* ``ShiDianNaoStyle`` (``shi``): output-stationary, parallelizes Y and X.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from repro.models.layers import Layer, LayerType


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


def _ceil_div_arr(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Elementwise ceiling division for non-negative integer arrays."""
    return -(-a // b)


@dataclass(frozen=True)
class SpatialPlan:
    """Result of mapping one layer onto the PE array.

    Attributes:
        units: Number of independent spatial work units.
        unit_macs: MACs executed serially inside one unit.
        weight_fetches: Times each weight byte crosses L2->L1.
        input_fetches: Times each input byte crosses L2->L1.
        output_fetches: Times each output byte crosses L1->L2 (partial-sum
            spilling makes this exceed 1).
        tile_k: Filters (or channels) resident per PE.
    """

    units: int
    unit_macs: int
    weight_fetches: float
    input_fetches: float
    output_fetches: float
    tile_k: int


@dataclass(frozen=True)
class BatchDims:
    """Layer shape dimensions gathered into arrays, one row per batch element.

    The batched estimator evaluates a whole population of design points at
    once; each element carries the dimensions of the layer it targets so the
    style-specific mapping logic can run as array arithmetic.  All arrays are
    ``int64`` except ``is_dw`` (bool).
    """

    K: np.ndarray
    C: np.ndarray
    out_y: np.ndarray
    out_x: np.ndarray
    R: np.ndarray
    S: np.ndarray
    is_dw: np.ndarray


@dataclass(frozen=True)
class BatchPlan:
    """Array-valued counterpart of :class:`SpatialPlan` for a whole batch.

    ``units``, ``unit_macs``, and ``tile_k`` are ``int64``; the fetch counts
    are ``float64``, exactly mirroring the scalar record's types.
    """

    units: np.ndarray
    unit_macs: np.ndarray
    weight_fetches: np.ndarray
    input_fetches: np.ndarray
    output_fetches: np.ndarray
    tile_k: np.ndarray


class Dataflow:
    """Base class: subclasses provide the style-specific mapping logic."""

    #: Registry key and the suffix used in the paper's tables ("-dla", ...).
    style: str = ""
    #: L1 bytes needed per resident filter (design-time, 3x3 kernel).
    _bytes_per_filter_3x3: int = 0
    #: Fixed L1 bytes independent of the filter tile (design-time).
    _fixed_bytes_3x3: int = 0

    # -- design-time action-space support ---------------------------------
    def buffer_levels(self, num_levels: int = 12) -> List[int]:
        """The Table-I buffer-size ladder: L1 bytes for tile k = 1..L.

        Sized with the representative 3x3 kernel exactly as the paper does
        ("with 3x3 weight as an example ... 9k + 9x1 + 1k").
        """
        if num_levels < 1:
            raise ValueError("num_levels must be >= 1")
        return [
            self._fixed_bytes_3x3 + self._bytes_per_filter_3x3 * k
            for k in range(1, num_levels + 1)
        ]

    # -- per-layer evaluation support --------------------------------------
    def tile_fit(self, layer: Layer, l1_bytes: int) -> int:
        """Largest filter tile k whose working set fits in ``l1_bytes``.

        Always at least 1: an undersized buffer still runs, it just loses
        reuse (the extra traffic is charged by the traffic model).
        """
        per_filter, fixed = self._footprint(layer)
        return max(1, (l1_bytes - fixed) // per_filter)

    def l1_requirement(self, layer: Layer, tile_k: int) -> int:
        """L1 bytes actually occupied by a tile of k filters."""
        per_filter, fixed = self._footprint(layer)
        return fixed + per_filter * tile_k

    def plan(self, layer: Layer, pes: int, l1_bytes: int) -> SpatialPlan:
        """Map ``layer`` onto ``pes`` PEs with ``l1_bytes`` of L1 each."""
        raise NotImplementedError

    def plan_batch(self, dims: BatchDims, pes: np.ndarray,
                   l1_bytes: np.ndarray) -> BatchPlan:
        """Vectorized :meth:`plan` over a batch of (layer, pes, l1) rows.

        Every arithmetic step mirrors the scalar path's expression order so
        the two produce bit-identical numbers; DWCONV rows are computed with
        the same formulas and selected with masks.
        """
        raise NotImplementedError

    def _footprint(self, layer: Layer) -> Tuple[int, int]:
        """(bytes per resident filter, fixed bytes) for this layer."""
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"


class NVDLAStyle(Dataflow):
    """Weight-stationary; parallelizes output (K) and input (C) channels.

    Each PE holds k filters of one input channel and streams the activation
    plane past them.  Cross-C reduction happens across PEs (adder tree) when
    the array is wide enough, otherwise partial sums spill to L2.
    """

    style = "dla"
    _bytes_per_filter_3x3 = 10  # 9 weight bytes + 1 output byte
    _fixed_bytes_3x3 = 9        # the 3x3 input window

    def _footprint(self, layer: Layer) -> Tuple[int, int]:
        window = layer.R * layer.S
        return window + 1, window

    def plan(self, layer: Layer, pes: int, l1_bytes: int) -> SpatialPlan:
        k = self.tile_fit(layer, l1_bytes)
        out = layer.out_y * layer.out_x
        window = layer.R * layer.S
        if layer.layer_type is LayerType.DWCONV:
            # Each output channel depends only on its own input channel, so
            # packing k filters into a PE merely serializes k independent
            # channels without buying any reuse; the mapper therefore keeps
            # one channel per PE and extra buffer is simply idle capacity
            # (Section IV-B's Layer-23 observation: latency is flat along
            # the buffer axis).
            return SpatialPlan(
                units=layer.C,
                unit_macs=out * window,
                weight_fetches=1.0,
                input_fetches=1.0,
                output_fetches=1.0,
                tile_k=1,
            )
        k = max(1, min(k, layer.K))
        k_tiles = _ceil_div(layer.K, k)
        units = k_tiles * layer.C
        unit_macs = k * out * window
        # Input multicast: a channel's activations are shared by every
        # co-resident K-tile; temporally separated K-tiles re-fetch them.
        co_resident_ktiles = max(1, min(k_tiles, pes // max(1, layer.C)))
        input_fetches = _ceil_div(k_tiles, co_resident_ktiles)
        # Partial-sum spilling: channels reduced in one spatial pass.
        c_spatial = max(1, min(layer.C, pes // k_tiles if pes >= k_tiles else 1))
        output_fetches = _ceil_div(layer.C, c_spatial)
        return SpatialPlan(
            units=units,
            unit_macs=unit_macs,
            weight_fetches=1.0,
            input_fetches=float(input_fetches),
            output_fetches=float(output_fetches),
            tile_k=k,
        )

    def plan_batch(self, dims: BatchDims, pes: np.ndarray,
                   l1_bytes: np.ndarray) -> BatchPlan:
        window = dims.R * dims.S
        out = dims.out_y * dims.out_x
        k_fit = np.maximum(1, (l1_bytes - window) // (window + 1))
        k = np.maximum(1, np.minimum(k_fit, dims.K))
        k_tiles = _ceil_div_arr(dims.K, k)
        units = k_tiles * dims.C
        unit_macs = k * out * window
        co_resident_ktiles = np.maximum(
            1, np.minimum(k_tiles, pes // np.maximum(1, dims.C)))
        input_fetches = _ceil_div_arr(k_tiles, co_resident_ktiles)
        c_spatial = np.maximum(
            1, np.minimum(dims.C, np.where(pes >= k_tiles,
                                           pes // k_tiles, 1)))
        output_fetches = _ceil_div_arr(dims.C, c_spatial)
        dw = dims.is_dw
        return BatchPlan(
            units=np.where(dw, dims.C, units),
            unit_macs=np.where(dw, out * window, unit_macs),
            weight_fetches=np.ones(len(dw), dtype=np.float64),
            input_fetches=np.where(dw, 1, input_fetches)
            .astype(np.float64),
            output_fetches=np.where(dw, 1, output_fetches)
            .astype(np.float64),
            tile_k=np.where(dw, 1, k),
        )


class EyerissStyle(Dataflow):
    """Row-stationary; parallelizes output rows (Y) and filter rows (R).

    A unit owns one (output row, filter row, K-tile) triple and slides along
    the row.  Input rows are reused diagonally for free (the row-stationary
    hallmark); filter rows are multicast across co-resident output rows.
    """

    style = "eye"
    _bytes_per_filter_3x3 = 4  # one 3-byte filter row + 1 output byte
    _fixed_bytes_3x3 = 3       # one 3-byte input-row segment

    def _footprint(self, layer: Layer) -> Tuple[int, int]:
        return layer.S + 1, layer.S

    def plan(self, layer: Layer, pes: int, l1_bytes: int) -> SpatialPlan:
        k = self.tile_fit(layer, l1_bytes)
        if layer.layer_type is LayerType.DWCONV:
            k = max(1, min(k, layer.C))
            channel_tiles = _ceil_div(layer.C, k)
            reduction = 1
        else:
            k = max(1, min(k, layer.K))
            channel_tiles = _ceil_div(layer.K, k)
            reduction = layer.C
        units = layer.out_y * layer.R * channel_tiles
        unit_macs = k * reduction * layer.out_x * layer.S
        if layer.layer_type is LayerType.DWCONV:
            unit_macs = k * layer.out_x * layer.S
        row_parallel = layer.out_y * layer.R
        co_resident_rows = max(1, min(layer.out_y, pes // max(1, layer.R)))
        weight_fetches = _ceil_div(layer.out_y, co_resident_rows)
        co_resident_ktiles = max(1, min(channel_tiles,
                                        pes // max(1, row_parallel)))
        input_fetches = _ceil_div(channel_tiles, co_resident_ktiles)
        # Cross-R reduction via neighbour links when R rows are co-resident.
        output_fetches = 1.0 if pes >= layer.R else float(layer.R)
        return SpatialPlan(
            units=units,
            unit_macs=unit_macs,
            weight_fetches=float(weight_fetches),
            input_fetches=float(input_fetches),
            output_fetches=output_fetches,
            tile_k=k,
        )

    def plan_batch(self, dims: BatchDims, pes: np.ndarray,
                   l1_bytes: np.ndarray) -> BatchPlan:
        k_fit = np.maximum(1, (l1_bytes - dims.S) // (dims.S + 1))
        dw = dims.is_dw
        cap = np.where(dw, dims.C, dims.K)
        k = np.maximum(1, np.minimum(k_fit, cap))
        channel_tiles = _ceil_div_arr(cap, k)
        unit_macs = np.where(
            dw,
            k * dims.out_x * dims.S,
            k * dims.C * dims.out_x * dims.S,
        )
        units = dims.out_y * dims.R * channel_tiles
        row_parallel = dims.out_y * dims.R
        co_resident_rows = np.maximum(
            1, np.minimum(dims.out_y, pes // np.maximum(1, dims.R)))
        weight_fetches = _ceil_div_arr(dims.out_y, co_resident_rows) \
            .astype(np.float64)
        co_resident_ktiles = np.maximum(
            1, np.minimum(channel_tiles, pes // np.maximum(1, row_parallel)))
        input_fetches = _ceil_div_arr(channel_tiles, co_resident_ktiles) \
            .astype(np.float64)
        output_fetches = np.where(pes >= dims.R, 1.0,
                                  dims.R.astype(np.float64))
        return BatchPlan(
            units=units,
            unit_macs=unit_macs,
            weight_fetches=weight_fetches,
            input_fetches=input_fetches,
            output_fetches=output_fetches,
            tile_k=k,
        )


class ShiDianNaoStyle(Dataflow):
    """Output-stationary; parallelizes the output plane (Y and X).

    Each PE accumulates k output pixels in place; inputs shift between
    neighbouring PEs (near-free reuse) and weights are re-streamed for every
    temporal pass over the output plane.
    """

    style = "shi"
    _bytes_per_filter_3x3 = 2  # 1 output byte + 1 weight-stream slot
    _fixed_bytes_3x3 = 12      # 3x3 input window + one 3-byte input row

    def _footprint(self, layer: Layer) -> Tuple[int, int]:
        return 2, layer.R * layer.S + layer.S

    def plan(self, layer: Layer, pes: int, l1_bytes: int) -> SpatialPlan:
        k = self.tile_fit(layer, l1_bytes)
        out = layer.out_y * layer.out_x
        if layer.layer_type is LayerType.DWCONV:
            k = max(1, min(k, layer.C))
            channel_tiles = _ceil_div(layer.C, k)
            unit_macs = k * layer.R * layer.S
        else:
            k = max(1, min(k, layer.K))
            channel_tiles = _ceil_div(layer.K, k)
            unit_macs = k * layer.C * layer.R * layer.S
        units = out * channel_tiles
        passes = _ceil_div(units, max(1, min(pes, units)))
        # Weights multicast within a pass, re-streamed across passes.
        weight_fetches = float(passes)
        input_fetches = 1.0 + 0.25 * (passes - 1)
        return SpatialPlan(
            units=units,
            unit_macs=unit_macs,
            weight_fetches=weight_fetches,
            input_fetches=input_fetches,
            output_fetches=1.0,
            tile_k=k,
        )

    def plan_batch(self, dims: BatchDims, pes: np.ndarray,
                   l1_bytes: np.ndarray) -> BatchPlan:
        window = dims.R * dims.S
        out = dims.out_y * dims.out_x
        k_fit = np.maximum(1, (l1_bytes - (window + dims.S)) // 2)
        dw = dims.is_dw
        cap = np.where(dw, dims.C, dims.K)
        k = np.maximum(1, np.minimum(k_fit, cap))
        channel_tiles = _ceil_div_arr(cap, k)
        unit_macs = np.where(
            dw,
            k * dims.R * dims.S,
            k * dims.C * dims.R * dims.S,
        )
        units = out * channel_tiles
        passes = _ceil_div_arr(units, np.maximum(1, np.minimum(pes, units)))
        return BatchPlan(
            units=units,
            unit_macs=unit_macs,
            weight_fetches=passes.astype(np.float64),
            input_fetches=1.0 + 0.25 * (passes - 1),
            output_fetches=np.ones(len(dw), dtype=np.float64),
            tile_k=k,
        )


DATAFLOWS: Dict[str, Dataflow] = {
    df.style: df for df in (NVDLAStyle(), EyerissStyle(), ShiDianNaoStyle())
}

#: Order used when a dataflow is itself an action (the MIX strategy).
DATAFLOW_ORDER: List[str] = ["dla", "shi", "eye"]


def get_dataflow(style) -> Dataflow:
    """Resolve a dataflow by style name; passes instances through."""
    if isinstance(style, Dataflow):
        return style
    try:
        return DATAFLOWS[style]
    except KeyError:
        raise KeyError(
            f"unknown dataflow style {style!r}; available: "
            f"{', '.join(DATAFLOWS)}"
        ) from None
