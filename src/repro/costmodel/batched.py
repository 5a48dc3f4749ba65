"""NumPy-vectorized batched estimator: whole populations in a few kernels.

Every search method in this repository -- REINFORCE epochs, the local GA,
and the grid/random/SA/GA/Bayesian baselines -- evaluates tens of thousands
of design points per run, and each point used to go through a scalar Python
call chain (``CostModel.evaluate_layer`` -> ``Dataflow.plan`` ->
``CostReport``).  This module precomputes the per-layer invariants (shape
dimensions, MAC counts, operand element counts, DWCONV flags) once into a
:class:`LayerTable`, after which a whole batch of candidate
``(layer, style, pes, l1_bytes)`` rows -- an entire GA population, a full
grid sweep, or a vector of per-layer partitions -- is evaluated with array
arithmetic in a handful of NumPy operations.  Level-indexed searches go
one step further: a :class:`LadderTable` prices every point of a model's
Table I ladder in one kernel call, after which level genomes and planned
RL episodes are scored by gathering rows.

The arithmetic deliberately mirrors the scalar path's expression order, so
the batched engine returns **bit-identical** numbers to
``CostModel.evaluate_layer`` (the parity suite in
``tests/test_batched_estimator.py`` asserts exact equality).  See
PERFORMANCE.md for the architecture and the measured speedup.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Dict, Iterable, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.costmodel.constants import DEFAULT_HW, HardwareConfig
from repro.costmodel.dataflow import (
    DATAFLOW_ORDER,
    DATAFLOWS,
    BatchDims,
    get_dataflow,
)
from repro.costmodel.report import BatchCostReport
from repro.models.layers import Layer, LayerType

__all__ = [
    "BATCH_STYLES",
    "STYLE_INDEX",
    "BatchedCostModel",
    "ConstraintFold",
    "LadderTable",
    "LayerTable",
    "MAX_LADDER_ROWS",
    "evaluate_batch_kernel",
    "ordered_row_sum",
    "population_totals",
]

#: Canonical style order of the batched engine (the MIX action order), and
#: the string -> row index mapping used to build ``style_idx`` arrays.
BATCH_STYLES: Tuple[str, ...] = tuple(DATAFLOW_ORDER)
STYLE_INDEX: Dict[str, int] = {s: i for i, s in enumerate(BATCH_STYLES)}


def ordered_sum(values: Iterable[float]) -> float:
    """``values`` added left to right from ``0.0``.

    Python's ``sum()`` does this up to 3.11.  From 3.12 it compensates
    float additions (Neumaier), which rounds differently, so a seeded
    search would give different results on different Python versions.
    """
    total = 0.0
    for value in values:
        total += value
    return float(total)


def ordered_row_sum(values: np.ndarray) -> np.ndarray:
    """Row sums accumulated left-to-right, matching the scalar path.

    ``CostModel.evaluate_model`` totals its per-layer reports with a
    left-to-right loop.  ``np.sum`` uses pairwise accumulation, which
    rounds differently (so does Python's ``sum()`` from 3.12, which
    compensates).  An accumulate adds each column to the running total
    of the columns before it, in order, so its last column is
    bit-identical to the scalar path.
    """
    return np.cumsum(values, axis=1, dtype=np.float64)[:, -1]


def population_totals(figures: np.ndarray, deployment: str) -> np.ndarray:
    """Per-design ``(latency, energy, area, power)`` totals, shape ``(4,
    population)``, of a ``(4, population, num_layers)`` stack of per-layer
    figures.

    Latency and energy sum over the layers (left to right, see
    :func:`ordered_row_sum`); area and power sum too under the ``"lp"``
    deployment (the per-layer partitions coexist on chip) and take the
    row max under ``"ls"`` (one shared design point), exactly as
    ``CostModel.evaluate_model`` / ``evaluate_model_ls`` aggregate.
    """
    _, population, num_layers = figures.shape
    if deployment == "ls":
        sums = ordered_row_sum(figures[:2].reshape(-1, num_layers))
        return np.concatenate((sums.reshape(2, population),
                               figures[2:].max(axis=2)))
    return ordered_row_sum(figures.reshape(-1, num_layers)) \
        .reshape(4, population)


class ConstraintFold(NamedTuple):
    """A population batch reduced under a platform (area/power) budget.

    Returned by :meth:`BatchedCostModel.evaluate_constrained`: the four
    :func:`population_totals` plus the budget check, so population
    consumers never touch the per-layer report arrays.
    """

    latency_total: np.ndarray
    energy_total: np.ndarray
    area_total: np.ndarray
    power_total: np.ndarray
    #: The budgeted quantity (``area_total`` or ``power_total``).
    used: np.ndarray
    #: ``used <= budget`` per population row.
    feasible: np.ndarray

    @classmethod
    def of(cls, totals, kind: str, budget: float) -> "ConstraintFold":
        """Check :func:`population_totals` against the platform constraint
        ``kind`` (``"area"`` or ``"power"``) and its ``budget``."""
        latency, energy, area, power = totals
        used = area if kind == "area" else power
        return cls(latency, energy, area, power, used, used <= budget)


@dataclass(frozen=True)
class LayerTable:
    """Per-layer invariants of a fixed layer list, gathered into arrays.

    Built once per (model, search); every batched evaluation then indexes
    into these arrays with a ``layer_idx`` vector instead of touching the
    Python :class:`Layer` objects.
    """

    layers: Tuple[Layer, ...]
    K: np.ndarray
    C: np.ndarray
    out_y: np.ndarray
    out_x: np.ndarray
    R: np.ndarray
    S: np.ndarray
    is_dw: np.ndarray
    macs: np.ndarray
    weight_elements: np.ndarray
    input_elements: np.ndarray
    output_elements: np.ndarray
    dram_bytes: np.ndarray

    @classmethod
    def build(cls, layers: Sequence[Layer]) -> "LayerTable":
        layers = tuple(layers)
        if not layers:
            raise ValueError("cannot build a LayerTable from zero layers")

        def arr(values, dtype=np.int64):
            return np.array(values, dtype=dtype)

        return cls(
            layers=layers,
            K=arr([l.K for l in layers]),
            C=arr([l.C for l in layers]),
            out_y=arr([l.out_y for l in layers]),
            out_x=arr([l.out_x for l in layers]),
            R=arr([l.R for l in layers]),
            S=arr([l.S for l in layers]),
            is_dw=arr([l.layer_type is LayerType.DWCONV for l in layers],
                      dtype=bool),
            macs=arr([l.macs for l in layers]),
            weight_elements=arr([l.weight_elements for l in layers]),
            input_elements=arr([l.input_elements for l in layers]),
            output_elements=arr([l.output_elements for l in layers]),
            # DRAM sees each unique operand once (float, as the scalar
            # path converts it before dividing by the bandwidth).
            dram_bytes=arr(
                [float(l.weight_elements + l.input_elements
                       + l.output_elements) for l in layers],
                dtype=np.float64),
        )

    def __len__(self) -> int:
        return len(self.layers)

    def dims(self, layer_idx: np.ndarray) -> BatchDims:
        """Gather the shape dimensions for a vector of layer rows."""
        return BatchDims(
            K=self.K[layer_idx],
            C=self.C[layer_idx],
            out_y=self.out_y[layer_idx],
            out_x=self.out_x[layer_idx],
            R=self.R[layer_idx],
            S=self.S[layer_idx],
            is_dw=self.is_dw[layer_idx],
        )


#: Most rows a :class:`LadderTable` holds.  Every zoo model fits at the
#: paper's L = 12 under MIX (the largest, ``transformer``, needs 41,904
#: rows); building 2**16 rows peaks at about 18 MB and keeps 2 MB.
#: ``SearchSpec`` accepts any ``num_levels``, so larger ladders are scored
#: through the kernel instead of tabulated.
MAX_LADDER_ROWS = 1 << 16


class LadderTable(NamedTuple):
    """Every ladder design point of one layer list, priced once.

    Table I's action space offers each layer ``L x L`` (PE level, buffer
    level) points per dataflow, so the whole level-indexed design space
    of a model is a few thousand rows: 7,488 for full MobileNet-V2 at
    L = 12, 22,464 under MIX.  :meth:`build` prices them all in one
    :meth:`BatchedCostModel.evaluate` call; scoring a level-indexed point
    is then a gather of its row (:meth:`rows`, :meth:`gather`).  The
    kernel is elementwise per row, so every gathered figure equals
    ``CostModel.evaluate_layer`` on that point exactly.
    """

    #: ``(4, rows)``: latency, energy, area and power of every row.
    figures: np.ndarray
    #: Style slots per layer: all of :data:`BATCH_STYLES` under MIX, else
    #: the one fixed dataflow.
    num_styles: int
    num_levels: int
    #: Dataflow gene -> style slot under MIX; ``None`` for a fixed
    #: dataflow.
    style_slots: Optional[np.ndarray]

    @classmethod
    def build(cls, batched: "BatchedCostModel", table: LayerTable, space,
              dataflow: Optional[str] = None) -> Optional["LadderTable"]:
        """Price every (layer, style, PE level, buffer level) point of an
        :class:`~repro.env.spaces.ActionSpace` over ``table``'s layers.

        A MIX ``space`` tabulates every batch style, so rows and design
        points correspond one to one; otherwise the table covers the
        fixed ``dataflow``.  Returns ``None``, without calling the
        kernel, when that is more than :data:`MAX_LADDER_ROWS` rows.
        """
        levels = space.num_levels
        if space.is_mix:
            styles = np.arange(len(BATCH_STYLES), dtype=np.int64)
            slots = np.array([STYLE_INDEX[s] for s in space.dataflows],
                             dtype=np.int64)
        else:
            styles = np.array([STYLE_INDEX[dataflow]], dtype=np.int64)
            slots = None
        points = levels * levels
        rows = len(table) * len(styles) * points
        if rows > MAX_LADDER_ROWS:
            return None
        report = batched.evaluate(
            table,
            np.repeat(np.arange(len(table), dtype=np.int64),
                      len(styles) * points),
            np.tile(np.repeat(styles, points), len(table)),
            np.tile(np.repeat(np.array(space.pe_levels, dtype=np.int64),
                              levels), rows // points),
            np.tile(np.array(space.buf_levels, dtype=np.int64),
                    rows // levels))
        return cls(report.figures(), len(styles), levels, slots)

    def rows(self, layer_idx, pe_idx, buf_idx, df_idx=None) -> np.ndarray:
        """Table rows of level-indexed points: layer rows with their PE
        and buffer level indices, plus the dataflow genes under MIX.
        The arguments broadcast against each other."""
        style = 0 if self.style_slots is None else self.style_slots[df_idx]
        levels = self.num_levels
        return (((layer_idx * self.num_styles + style) * levels + pe_idx)
                * levels + buf_idx)

    def gather(self, rows: np.ndarray) -> np.ndarray:
        """``(4, *rows.shape)``: latency, energy, area and power of
        ``rows``."""
        return self.figures.take(rows, axis=1)


def evaluate_batch_kernel(
    hw: HardwareConfig,
    table: LayerTable,
    layer_idx: np.ndarray,
    style_idx: np.ndarray,
    pes: np.ndarray,
    l1_bytes: np.ndarray,
) -> BatchCostReport:
    """The validated core of :meth:`BatchedCostModel.evaluate`.

    Every operation is elementwise over the batch axis: row ``i`` of the
    report depends only on row ``i`` of the inputs, so evaluating any
    partition of the batch and concatenating the outputs in order is
    bit-identical to one call over the full batch.

    Callers are expected to have validated the arrays (``BatchedCostModel
    .evaluate`` does); the kernel itself runs no checks.
    """
    batch = layer_idx.size
    units = np.empty(batch, dtype=np.int64)
    unit_macs = np.empty(batch, dtype=np.int64)
    weight_fetches = np.empty(batch, dtype=np.float64)
    input_fetches = np.empty(batch, dtype=np.float64)
    output_fetches = np.empty(batch, dtype=np.float64)
    tile_k = np.empty(batch, dtype=np.int64)
    for index, style in enumerate(BATCH_STYLES):
        sel = np.flatnonzero(style_idx == index)
        if sel.size == 0:
            continue
        plan = DATAFLOWS[style].plan_batch(
            table.dims(layer_idx[sel]), pes[sel], l1_bytes[sel])
        units[sel] = plan.units
        unit_macs[sel] = plan.unit_macs
        weight_fetches[sel] = plan.weight_fetches
        input_fetches[sel] = plan.input_fetches
        output_fetches[sel] = plan.output_fetches
        tile_k[sel] = plan.tile_k

    # ---- estimator epilogue, mirroring _evaluate_uncached ----------
    pes_used = np.minimum(pes, units)
    passes = -(-units // pes_used)
    compute_cycles = (passes * unit_macs).astype(np.float64)
    utilization = units / (passes * pes_used)

    weight_bytes = table.weight_elements[layer_idx] * weight_fetches
    input_bytes = table.input_elements[layer_idx] * input_fetches
    output_bytes = table.output_elements[layer_idx] * output_fetches
    l2_traffic = weight_bytes + input_bytes + output_bytes

    dram_bytes = table.dram_bytes[layer_idx]
    memory_cycles = dram_bytes / hw.dram_bandwidth_bytes_per_cycle
    latency = np.maximum(compute_cycles, memory_cycles) \
        + hw.pipeline_fill_cycles

    l2_bytes = np.ceil(hw.l2_double_sizing * pes * l1_bytes) \
        .astype(np.int64)

    pe_area = hw.mac_area_um2 * pes
    l1_area = hw.l1_area_per_byte_um2 * l1_bytes * pes
    l2_area = hw.l2_area_per_byte_um2 * l2_bytes
    noc_area = hw.noc_area_per_pe_um2 * pes
    area = pe_area + l1_area + l2_area + noc_area

    macs = table.macs[layer_idx]
    dynamic_pj = (
        macs * hw.mac_energy_pj
        + macs * hw.l1_accesses_per_mac * hw.l1_energy_per_byte_pj
        + l2_traffic * hw.l2_energy_per_byte_pj
        + dram_bytes * hw.dram_energy_per_byte_pj
    )
    static_mw = (
        pes * hw.pe_static_power_mw
        + pes * l1_bytes * hw.l1_static_power_mw_per_byte
        + l2_bytes * hw.l2_static_power_mw_per_byte
    )
    static_pj = static_mw * latency / hw.clock_ghz
    energy_pj = dynamic_pj + static_pj
    power_mw = energy_pj / latency * hw.clock_ghz

    return BatchCostReport(
        latency_cycles=latency,
        energy_nj=energy_pj / 1000.0,
        area_um2=area,
        power_mw=power_mw,
        pes_used=pes_used,
        pe_utilization=utilization,
        l1_bytes_per_pe=l1_bytes,
        l2_bytes=l2_bytes,
        tile_k=tile_k,
        macs=macs,
        dram_bytes=dram_bytes,
        l2_traffic_bytes=l2_traffic,
        compute_cycles=compute_cycles,
        memory_cycles=memory_cycles,
        pe_area_um2=pe_area,
        l1_area_um2=l1_area,
        l2_area_um2=l2_area,
        noc_area_um2=noc_area,
    )


@functools.lru_cache(maxsize=16)
def _single_layer_table(layer: Layer) -> LayerTable:
    """The one-row :class:`LayerTable` behind ``evaluate_layer_batch``
    sweeps, built once per layer.  Bounded, so a long-lived ``repro
    serve`` process sweeping many models never grows it without limit."""
    return LayerTable.build([layer])


class BatchedCostModel:
    """Vectorized counterpart of :class:`~repro.costmodel.CostModel`.

    Stateless apart from the hardware constants: callers hold the
    :class:`LayerTable` (typically one per search) and pass index/value
    arrays describing the batch, which :func:`evaluate_batch_kernel`
    scores in-process.
    """

    def __init__(self, hw: HardwareConfig = DEFAULT_HW) -> None:
        self.hw = hw

    # ------------------------------------------------------------------
    def evaluate(
        self,
        table: LayerTable,
        layer_idx: np.ndarray,
        style_idx,
        pes: np.ndarray,
        l1_bytes: np.ndarray,
    ) -> BatchCostReport:
        """Evaluate a batch of (layer row, style, PEs, L1 bytes) points.

        Args:
            table: Precomputed invariants of the target layer list.
            layer_idx: Row index into ``table`` per batch element.
            style_idx: Dataflow index per element (see :data:`STYLE_INDEX`),
                or a scalar applied to the whole batch.
            pes: PE count per element (>= 1).
            l1_bytes: L1 bytes per PE per element (>= 1).

        Returns:
            A :class:`BatchCostReport` of arrays, element ``i`` matching
            ``CostModel.evaluate_layer`` on point ``i`` exactly.
        """
        return evaluate_batch_kernel(self.hw, table, *self._validate(
            table, layer_idx, style_idx, pes, l1_bytes))

    # ------------------------------------------------------------------
    def evaluate_constrained(self, table: LayerTable, layer_idx, style_idx,
                             pes, l1_bytes, deployment: str, kind: str,
                             budget: float) -> ConstraintFold:
        """Evaluate a population batch and reduce it under a platform
        budget.

        The batch must be in the tiled population layout every
        population consumer emits: ``layer_idx == tile(arange(len(table)),
        population)``, one row of ``len(table)`` layers per design.
        ``deployment`` picks the aggregation (see
        :func:`population_totals`), and the platform constraint ``kind``
        (``"area"`` or ``"power"``) and its ``budget`` give
        ``used``/``feasible``.  Returns a :class:`ConstraintFold`.
        """
        batch = self._validate(table, layer_idx, style_idx, pes, l1_bytes)
        num_layers = len(table)
        if batch[0].size % num_layers or not bool(
                (batch[0].reshape(-1, num_layers)
                 == np.arange(num_layers)).all()):
            raise ValueError(
                "evaluate_constrained needs the tiled population layout "
                "(layer_idx == tile(arange(len(table)), population))")
        figures = evaluate_batch_kernel(self.hw, table, *batch).figures()
        return ConstraintFold.of(
            population_totals(figures.reshape(4, -1, num_layers),
                              deployment), kind, budget)

    # ------------------------------------------------------------------
    @staticmethod
    def _validate(table: LayerTable, layer_idx, style_idx, pes, l1_bytes):
        """Coerce and validate one batch (shared by both evaluate
        entry points); returns the canonical int64 arrays."""
        layer_idx = np.asarray(layer_idx, dtype=np.int64)
        pes = np.asarray(pes, dtype=np.int64)
        l1_bytes = np.asarray(l1_bytes, dtype=np.int64)
        style_idx = np.broadcast_to(
            np.asarray(style_idx, dtype=np.int64), layer_idx.shape)
        if not (layer_idx.shape == pes.shape == l1_bytes.shape):
            raise ValueError("batch arrays must share one shape")
        if layer_idx.ndim != 1:
            raise ValueError("batch arrays must be 1-D")
        if layer_idx.size == 0:
            raise ValueError("cannot evaluate an empty batch")
        if layer_idx.min() < 0 or layer_idx.max() >= len(table):
            raise ValueError("layer_idx out of range for the table")
        if pes.min() < 1:
            raise ValueError("pes must be >= 1 for every batch element")
        if l1_bytes.min() < 1:
            raise ValueError("l1_bytes must be >= 1 for every batch element")
        if style_idx.min() < 0 or style_idx.max() >= len(BATCH_STYLES):
            raise ValueError(
                f"style_idx out of range; styles: {', '.join(BATCH_STYLES)}")
        return layer_idx, style_idx, pes, l1_bytes

    # ------------------------------------------------------------------
    def evaluate_layer_batch(self, layer: Layer, dataflow, pes,
                             l1_bytes) -> BatchCostReport:
        """Sweep one layer over vectors of (pes, l1_bytes) design points.

        The single-layer :class:`LayerTable` is cached per layer (in a
        bounded LRU), so repeated sweeps (contour grids, per-layer
        optima) pay the precompute once.  Scalar (0-d) ``pes`` /
        ``l1_bytes`` are promoted to length-1 vectors, returning a
        length-1 report.
        """
        style = get_dataflow(dataflow).style
        table = _single_layer_table(layer)
        pes = np.atleast_1d(np.asarray(pes, dtype=np.int64))
        l1_bytes = np.atleast_1d(np.asarray(l1_bytes, dtype=np.int64))
        if pes.shape != l1_bytes.shape:
            raise ValueError("pes and l1_bytes must share one shape")
        layer_idx = np.zeros(pes.shape, dtype=np.int64)
        return self.evaluate(table, layer_idx, STYLE_INDEX[style], pes,
                             l1_bytes)
