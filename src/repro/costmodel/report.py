"""Result records produced by the cost model."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

import numpy as np


def _resolve_objective_value(report, objective):
    """Shared ``objective`` of the report classes: any objective spec
    (a registered name, a composite spec or an
    :class:`repro.objectives.Objective` instance), resolved through the
    objectives registry."""
    from repro.objectives import resolve_objective

    return resolve_objective(objective).evaluate(report)


@dataclass(frozen=True)
class CostReport:
    """Per-layer estimate for one design point.

    All figures of merit the paper's environment consumes, plus the
    intermediate quantities the breakdown figures (Fig. 10) need.
    """

    latency_cycles: float
    energy_nj: float
    area_um2: float
    power_mw: float
    pes_used: int
    pe_utilization: float
    l1_bytes_per_pe: int
    l2_bytes: int
    tile_k: int
    macs: int
    dram_bytes: float
    l2_traffic_bytes: float
    compute_cycles: float
    memory_cycles: float
    pe_area_um2: float
    l1_area_um2: float
    l2_area_um2: float
    noc_area_um2: float

    def objective(self, name) -> float:
        """Evaluate an optimization objective: a registered name, a
        ``weighted:``/``multi:`` spec, or an
        :class:`repro.objectives.Objective` instance."""
        return _resolve_objective_value(self, name)

    def constraint(self, name: str) -> float:
        """Look up a platform-constraint quantity by name."""
        table = {"area": self.area_um2, "power": self.power_mw}
        try:
            return table[name]
        except KeyError:
            raise KeyError(
                f"unknown constraint {name!r}; available: {', '.join(table)}"
            ) from None


@dataclass(frozen=True)
class BatchCostReport:
    """Array-valued :class:`CostReport` for a whole batch of design points.

    Produced by the batched estimator: element ``i`` of every array holds
    the figure the scalar path would have returned for batch element ``i``.
    Integer quantities (``pes_used``, ``l1_bytes_per_pe``, ``l2_bytes``,
    ``tile_k``, ``macs``) are ``int64`` arrays; the rest are ``float64``.
    """

    latency_cycles: np.ndarray
    energy_nj: np.ndarray
    area_um2: np.ndarray
    power_mw: np.ndarray
    pes_used: np.ndarray
    pe_utilization: np.ndarray
    l1_bytes_per_pe: np.ndarray
    l2_bytes: np.ndarray
    tile_k: np.ndarray
    macs: np.ndarray
    dram_bytes: np.ndarray
    l2_traffic_bytes: np.ndarray
    compute_cycles: np.ndarray
    memory_cycles: np.ndarray
    pe_area_um2: np.ndarray
    l1_area_um2: np.ndarray
    l2_area_um2: np.ndarray
    noc_area_um2: np.ndarray

    def __len__(self) -> int:
        return len(self.latency_cycles)

    def figures(self) -> np.ndarray:
        """The four figures objectives and constraints read, stacked:
        ``(4, batch)`` latency, energy, area and power."""
        return np.stack((self.latency_cycles, self.energy_nj,
                         self.area_um2, self.power_mw))

    def objective(self, name) -> np.ndarray:
        """Objective values for the whole batch (name, spec, or
        :class:`repro.objectives.Objective` instance)."""
        return _resolve_objective_value(self, name)

    def constraint(self, name: str) -> np.ndarray:
        """Constraint-quantity values for the whole batch."""
        table = {"area": self.area_um2, "power": self.power_mw}
        try:
            return table[name]
        except KeyError:
            raise KeyError(
                f"unknown constraint {name!r}; available: {', '.join(table)}"
            ) from None

    def report(self, i: int) -> CostReport:
        """Materialize one batch element as a scalar :class:`CostReport`."""
        return CostReport(
            latency_cycles=float(self.latency_cycles[i]),
            energy_nj=float(self.energy_nj[i]),
            area_um2=float(self.area_um2[i]),
            power_mw=float(self.power_mw[i]),
            pes_used=int(self.pes_used[i]),
            pe_utilization=float(self.pe_utilization[i]),
            l1_bytes_per_pe=int(self.l1_bytes_per_pe[i]),
            l2_bytes=int(self.l2_bytes[i]),
            tile_k=int(self.tile_k[i]),
            macs=int(self.macs[i]),
            dram_bytes=float(self.dram_bytes[i]),
            l2_traffic_bytes=float(self.l2_traffic_bytes[i]),
            compute_cycles=float(self.compute_cycles[i]),
            memory_cycles=float(self.memory_cycles[i]),
            pe_area_um2=float(self.pe_area_um2[i]),
            l1_area_um2=float(self.l1_area_um2[i]),
            l2_area_um2=float(self.l2_area_um2[i]),
            noc_area_um2=float(self.noc_area_um2[i]),
        )


@dataclass(frozen=True)
class ModelCostReport:
    """Whole-model estimate: the sum over per-layer partitions (LP) or the
    layer-by-layer run of a single design point (LS)."""

    latency_cycles: float
    energy_nj: float
    area_um2: float
    power_mw: float
    per_layer: List[CostReport] = field(default_factory=list)

    def objective(self, name) -> float:
        return _resolve_objective_value(self, name)

    def constraint(self, name: str) -> float:
        table = {"area": self.area_um2, "power": self.power_mw}
        try:
            return table[name]
        except KeyError:
            raise KeyError(
                f"unknown constraint {name!r}; available: {', '.join(table)}"
            ) from None

    def area_breakdown(self) -> Dict[str, float]:
        """Aggregate PE / L1 / L2 / NoC area split (Fig. 10 pie chart)."""
        totals = {"pe": 0.0, "l1": 0.0, "l2": 0.0, "noc": 0.0}
        for report in self.per_layer:
            totals["pe"] += report.pe_area_um2
            totals["l1"] += report.l1_area_um2
            totals["l2"] += report.l2_area_um2
            totals["noc"] += report.noc_area_um2
        return totals


@dataclass(frozen=True)
class UtilizationReport:
    """Constraint-utilization summary ConfuciuX emits with its solution."""

    constraint: str
    budget: float
    used: float

    @property
    def fraction(self) -> float:
        return self.used / self.budget if self.budget > 0 else float("inf")

    def __str__(self) -> str:
        return (
            f"{self.constraint}: used {self.used:.3e} of {self.budget:.3e} "
            f"({100 * self.fraction:.1f}%)"
        )
