"""The analytical performance / energy / area / power estimator.

Given a layer, a dataflow style, a PE count, and an L1 buffer size, the
estimator produces a :class:`CostReport`:

* **Latency** -- serial work per spatial unit times the number of temporal
  passes over the PE array, bounded below by DRAM streaming time, plus a
  fixed pipeline-fill term.  Over-provisioned PEs are idle (utilization < 1)
  and buy nothing, producing the plateaus of Fig. 4/5.
* **Energy** -- MAC switching energy, L1/L2/DRAM traffic energy, plus static
  energy (leakage x latency), which is what makes more resources sometimes
  *reduce* energy through shorter runtime, as Section IV-B discusses.
* **Area** -- PEs (MAC + L1) + shared L2 (sized to double-buffer the
  aggregate tile) + NoC.
* **Power** -- average power, energy / latency (1 GHz clock).

The model is deliberately analytical and fast (microseconds per call):
ConfuciuX evaluates tens of thousands of design points per search.
"""

from __future__ import annotations

import math
from functools import lru_cache, partial
from typing import List, Optional, Sequence, Tuple, Union

from repro.costmodel.batched import BatchedCostModel
from repro.costmodel.constants import DEFAULT_HW, HardwareConfig
from repro.costmodel.dataflow import Dataflow, get_dataflow
from repro.costmodel.report import BatchCostReport, CostReport, ModelCostReport
from repro.models.layers import Layer

#: An assignment for one layer: (PEs, L1 bytes) or (PEs, L1 bytes, dataflow).
LayerAssignment = Union[Tuple[int, int], Tuple[int, int, str]]


def area_model(hw: HardwareConfig, pes: int,
               l1_bytes: int) -> Tuple[float, float, float, float, int]:
    """(pe, l1, l2, noc) areas and the L2 size for one design point.

    Area depends only on the resource assignment, never on the layer, so
    it has a closed form the planned-episode path can evaluate without
    running the dataflow mapper.  This is the *single* definition of the
    area arithmetic -- ``_evaluate_uncached`` consumes it too, so the
    cheap check and the full report cannot drift apart bit-wise.
    """
    # L2 sized to double-buffer the aggregate resident tile.
    l2_bytes = int(
        math.ceil(hw.l2_double_sizing * pes * l1_bytes)
    )
    pe_area = hw.mac_area_um2 * pes
    l1_area = hw.l1_area_per_byte_um2 * l1_bytes * pes
    l2_area = hw.l2_area_per_byte_um2 * l2_bytes
    noc_area = hw.noc_area_per_pe_um2 * pes
    return pe_area, l1_area, l2_area, noc_area, l2_bytes


def area_um2(hw: HardwareConfig, pes: int, l1_bytes: int) -> float:
    """Total accelerator area for one design point (see ``area_model``)."""
    pe_area, l1_area, l2_area, noc_area, _ = area_model(hw, pes, l1_bytes)
    return pe_area + l1_area + l2_area + noc_area


def _evaluate_uncached(hw: HardwareConfig, layer: Layer, dataflow: Dataflow,
                       pes: int, l1_bytes: int) -> CostReport:
    """One layer on one design point: the report ``CostModel`` caches."""
    plan = dataflow.plan(layer, pes, l1_bytes)

    pes_used = min(pes, plan.units)
    passes = math.ceil(plan.units / pes_used)
    compute_cycles = float(passes * plan.unit_macs)
    utilization = plan.units / (passes * pes_used)

    weight_bytes = layer.weight_elements * plan.weight_fetches
    input_bytes = layer.input_elements * plan.input_fetches
    output_bytes = layer.output_elements * plan.output_fetches
    l2_traffic = weight_bytes + input_bytes + output_bytes

    # DRAM sees each unique operand once; the L2 prefetches tiles.
    dram_bytes = float(
        layer.weight_elements + layer.input_elements
        + layer.output_elements
    )
    memory_cycles = dram_bytes / hw.dram_bandwidth_bytes_per_cycle
    latency = max(compute_cycles, memory_cycles) + hw.pipeline_fill_cycles

    pe_area, l1_area, l2_area, noc_area, l2_bytes = area_model(
        hw, pes, l1_bytes)
    area = pe_area + l1_area + l2_area + noc_area

    dynamic_pj = (
        layer.macs * hw.mac_energy_pj
        + layer.macs * hw.l1_accesses_per_mac * hw.l1_energy_per_byte_pj
        + l2_traffic * hw.l2_energy_per_byte_pj
        + dram_bytes * hw.dram_energy_per_byte_pj
    )
    static_mw = (
        pes * hw.pe_static_power_mw
        + pes * l1_bytes * hw.l1_static_power_mw_per_byte
        + l2_bytes * hw.l2_static_power_mw_per_byte
    )
    # 1 GHz: one cycle is 1 ns, so mW x cycles = pJ.
    static_pj = static_mw * latency / hw.clock_ghz
    energy_pj = dynamic_pj + static_pj
    power_mw = energy_pj / latency * hw.clock_ghz

    return CostReport(
        latency_cycles=latency,
        energy_nj=energy_pj / 1000.0,
        area_um2=area,
        power_mw=power_mw,
        pes_used=pes_used,
        pe_utilization=utilization,
        l1_bytes_per_pe=l1_bytes,
        l2_bytes=l2_bytes,
        tile_k=plan.tile_k,
        macs=layer.macs,
        dram_bytes=dram_bytes,
        l2_traffic_bytes=l2_traffic,
        compute_cycles=compute_cycles,
        memory_cycles=memory_cycles,
        pe_area_um2=pe_area,
        l1_area_um2=l1_area,
        l2_area_um2=l2_area,
        noc_area_um2=noc_area,
    )


class CostModel:
    """Stateful facade: caches per-layer evaluations across a search.

    The RL loop re-evaluates identical (layer, dataflow, PE, buffer) tuples
    thousands of times; an LRU cache keyed on those tuples gives a large
    constant-factor speedup without changing any result.
    """

    def __init__(self, hw: HardwareConfig = DEFAULT_HW,
                 cache_size: int = 200_000) -> None:
        self.hw = hw
        # Cache a module-level function bound to ``hw`` (frozen, never
        # reassigned), not the bound method: a cached bound method holds
        # the model, so model, cache and every cached report would form
        # a reference cycle only the cyclic collector frees.
        self._evaluate_cached = lru_cache(maxsize=cache_size)(
            partial(_evaluate_uncached, hw)
        )
        self._batched: Optional[BatchedCostModel] = None

    @property
    def batched(self) -> BatchedCostModel:
        """The vectorized engine sharing this model's hardware constants.

        Lazily constructed; callers evaluating whole populations (the GA
        generations, the baseline optimizers, the design-space sweeps) go
        through this instead of the scalar per-call path.
        """
        if self._batched is None:
            self._batched = BatchedCostModel(self.hw)
        return self._batched

    def evaluate_layer_batch(self, layer: Layer, dataflow, pes,
                             l1_bytes) -> BatchCostReport:
        """Vectorized sweep of one layer over (pes, l1_bytes) vectors.

        Returns arrays bit-identical to calling :meth:`evaluate_layer`
        elementwise, computed in a handful of NumPy operations.
        """
        return self.batched.evaluate_layer_batch(layer, dataflow, pes,
                                                 l1_bytes)

    # ------------------------------------------------------------------
    # Per-layer evaluation
    # ------------------------------------------------------------------
    def evaluate_layer(self, layer: Layer, dataflow, pes: int,
                       l1_bytes: int) -> CostReport:
        """Estimate one layer on one design point.

        Args:
            layer: The layer to run.
            dataflow: Style name ("dla"/"eye"/"shi") or Dataflow instance.
            pes: Number of processing elements (>= 1).
            l1_bytes: L1 scratchpad size per PE in bytes (>= 1).
        """
        if pes < 1:
            raise ValueError(f"pes must be >= 1, got {pes}")
        if l1_bytes < 1:
            raise ValueError(f"l1_bytes must be >= 1, got {l1_bytes}")
        # Resolve the style exactly once: the resolved singleton is both
        # the cache key and the mapper used on a miss.
        dataflow = get_dataflow(dataflow)
        return self._evaluate_cached(layer, dataflow, int(pes),
                                     int(l1_bytes))

    # ------------------------------------------------------------------
    # Whole-model evaluation
    # ------------------------------------------------------------------
    def evaluate_model(
        self,
        layers: Sequence[Layer],
        assignments: Sequence[LayerAssignment],
        dataflow: Optional[str] = None,
    ) -> ModelCostReport:
        """Evaluate a per-layer resource partition (the LP deployment).

        Args:
            layers: The model's layers, in order.
            assignments: One (pes, l1_bytes) -- or (pes, l1_bytes, style) for
                the MIX strategy -- per layer.
            dataflow: Default style used when an assignment omits one.

        Returns:
            Whole-model report: end-to-end latency and energy are sums over
            layers; area and power are sums over the per-layer partitions
            (the resources coexist on chip).

        Raises:
            KeyError: for an unknown style, ``dataflow`` included even when
                every assignment carries its own.
        """
        if len(layers) != len(assignments):
            raise ValueError(
                f"got {len(layers)} layers but {len(assignments)} assignments"
            )
        # The per-layer cache is called directly, with evaluate_layer's
        # checks inline, and the default style is resolved once: this loop
        # is the scalar chain every single-genome score runs through.
        default = None if dataflow is None else get_dataflow(dataflow)
        cached = self._evaluate_cached
        reports: List[CostReport] = []
        for layer, assignment in zip(layers, assignments):
            if len(assignment) == 3:
                pes, l1_bytes, style = assignment
            elif default is not None:
                pes, l1_bytes = assignment
                style = default
            else:
                raise ValueError(
                    "assignment lacks a dataflow and no default was given"
                )
            if pes < 1:
                raise ValueError(f"pes must be >= 1, got {pes}")
            if l1_bytes < 1:
                raise ValueError(f"l1_bytes must be >= 1, got {l1_bytes}")
            if style is not default:
                style = get_dataflow(style)
            reports.append(cached(layer, style, int(pes), int(l1_bytes)))
        # Totals add left to right, as the batched ``ordered_row_sum``
        # does.  Not ``sum()``: from Python 3.12 it compensates float
        # additions, which rounds differently.
        latency = energy = area = power = 0.0
        for report in reports:
            latency += report.latency_cycles
            energy += report.energy_nj
            area += report.area_um2
            power += report.power_mw
        return ModelCostReport(
            latency_cycles=latency,
            energy_nj=energy,
            area_um2=area,
            power_mw=power,
            per_layer=reports,
        )

    def evaluate_model_ls(
        self,
        layers: Sequence[Layer],
        pes: int,
        l1_bytes: int,
        dataflow: str,
    ) -> ModelCostReport:
        """Evaluate a single shared design point run layer-by-layer (LS).

        Latency and energy sum over the sequential layer executions; area is
        that of the one accelerator; power is the worst (peak) layer power.
        """
        # evaluate_layer's checks and style resolution, once for every
        # layer, as in ``evaluate_model``.
        if pes < 1:
            raise ValueError(f"pes must be >= 1, got {pes}")
        if l1_bytes < 1:
            raise ValueError(f"l1_bytes must be >= 1, got {l1_bytes}")
        style, pes, l1_bytes = get_dataflow(dataflow), int(pes), int(l1_bytes)
        cached = self._evaluate_cached
        reports = [cached(layer, style, pes, l1_bytes) for layer in layers]
        # Left-to-right totals, as in ``evaluate_model``.
        latency = energy = 0.0
        for report in reports:
            latency += report.latency_cycles
            energy += report.energy_nj
        return ModelCostReport(
            latency_cycles=latency,
            energy_nj=energy,
            area_um2=max(r.area_um2 for r in reports),
            power_mw=max(r.power_mw for r in reports),
            per_layer=reports,
        )

    def cache_info(self):
        """Expose LRU statistics (useful in perf tests)."""
        return self._evaluate_cached.cache_info()
