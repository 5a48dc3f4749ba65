"""Hardware technology constants for the analytical cost model.

The defaults are set by order of magnitude, not fitted to MAESTRO's 28nm
tables.  With them, the paper's Fig. 1 design point, a (PE=8, Buf=19B)
NVDLA-style accelerator, measures 3.15e4 um^2 on every layer and 77-420 mW
on MobileNet-V2's first 8 layers (39-87 mW on ResNet-50's); DESIGN.md's
calibration entry (substitution 1) records these figures.  Every experiment
in this repository uses relative comparisons, which are insensitive to the
absolute scale.

All energies are tracked internally in picojoules and reported in nanojoules;
the clock is 1 GHz so one cycle is one nanosecond, which makes average power
in milliwatts exactly ``energy_pj / latency_cycles``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property


@dataclass(frozen=True)
class HardwareConfig:
    """Technology and system parameters of the modelled accelerator.

    Attributes:
        clock_ghz: Clock frequency; 1.0 makes cycles equal nanoseconds.
        mac_area_um2: Area of one PE's MAC datapath plus control.
        l1_area_per_byte_um2: Area of L1 (per-PE scratchpad) SRAM per byte.
        l2_area_per_byte_um2: Area of the shared L2 SRAM per byte
            (denser than L1: larger banks amortize periphery).
        noc_area_per_pe_um2: NoC wiring/router area per PE for a
            stall-free distribution/collection network.
        mac_energy_pj: Energy of one multiply-accumulate.
        l1_energy_per_byte_pj: Energy per byte of an L1 access.
        l2_energy_per_byte_pj: Energy per byte of an L2 access.
        dram_energy_per_byte_pj: Energy per byte fetched from DRAM.
        dram_bandwidth_bytes_per_cycle: Sustained DRAM bandwidth.
        pe_static_power_mw: Leakage + clock power per PE (datapath only).
        l1_static_power_mw_per_byte: Leakage per L1 byte.
        l2_static_power_mw_per_byte: Leakage per L2 byte.
        l1_accesses_per_mac: Average L1 bytes moved per MAC (operand reads
            and partial-sum read-modify-write, after stationary reuse).
        l2_sizing_factor: The L2 is sized to this multiple of the aggregate
            L1 working set so the next tile can be prefetched
            (double-buffering = 2.0 of half the set = 1.0 of the full set).
        pipeline_fill_cycles: Fixed per-layer ramp-up latency.
    """

    clock_ghz: float = 1.0
    mac_area_um2: float = 1500.0
    l1_area_per_byte_um2: float = 80.0
    l2_area_per_byte_um2: float = 20.0
    noc_area_per_pe_um2: float = 160.0
    mac_energy_pj: float = 1.0
    l1_energy_per_byte_pj: float = 1.2
    l2_energy_per_byte_pj: float = 5.0
    dram_energy_per_byte_pj: float = 80.0
    dram_bandwidth_bytes_per_cycle: float = 16.0
    pe_static_power_mw: float = 0.35
    l1_static_power_mw_per_byte: float = 0.004
    l2_static_power_mw_per_byte: float = 0.001
    l1_accesses_per_mac: float = 2.0
    l2_sizing_factor: float = 1.0
    pipeline_fill_cycles: int = 32

    @cached_property
    def l2_double_sizing(self) -> float:
        """``2 * l2_sizing_factor`` -- the constant factor of the L2
        capacity rule, precomputed once because both the scalar and the
        batched estimator apply it per design point.  Multiplying the
        prefolded constant first keeps the two paths bit-identical with the
        original ``2.0 * factor * pes * l1`` expression."""
        return 2.0 * self.l2_sizing_factor

    def __post_init__(self) -> None:
        for name in (
            "clock_ghz",
            "mac_area_um2",
            "l1_area_per_byte_um2",
            "l2_area_per_byte_um2",
            "mac_energy_pj",
            "l1_energy_per_byte_pj",
            "l2_energy_per_byte_pj",
            "dram_energy_per_byte_pj",
            "dram_bandwidth_bytes_per_cycle",
        ):
            if getattr(self, name) <= 0:
                raise ValueError(f"HardwareConfig.{name} must be positive")
        for name in (
            "noc_area_per_pe_um2",
            "pe_static_power_mw",
            "l1_static_power_mw_per_byte",
            "l2_static_power_mw_per_byte",
            "l1_accesses_per_mac",
            "l2_sizing_factor",
            "pipeline_fill_cycles",
        ):
            if getattr(self, name) < 0:
                raise ValueError(f"HardwareConfig.{name} must be non-negative")


DEFAULT_HW = HardwareConfig()
