"""Analytical DNN-accelerator cost model (the MAESTRO substitute).

ConfuciuX consumes MAESTRO as a black box mapping
``(layer, dataflow, PEs, L1 buffer)`` to scalar latency / energy / area /
power.  This package reimplements that mapping analytically for the three
dataflow styles the paper evaluates (NVDLA-, Eyeriss-, and ShiDianNao-style),
modelling spatial utilization, reuse-driven traffic at every level of the
memory hierarchy (L1 / L2 / DRAM), and static + dynamic energy.

See DESIGN.md ("Substitutions") for the fidelity argument and the constant
calibration.
"""

from repro.costmodel.constants import HardwareConfig, DEFAULT_HW
from repro.costmodel.dataflow import (
    DATAFLOWS,
    BatchDims,
    BatchPlan,
    Dataflow,
    EyerissStyle,
    NVDLAStyle,
    ShiDianNaoStyle,
    get_dataflow,
)
from repro.costmodel.report import BatchCostReport, CostReport, ModelCostReport
from repro.costmodel.batched import (
    BATCH_STYLES,
    STYLE_INDEX,
    BatchedCostModel,
    LayerTable,
)
from repro.costmodel.estimator import CostModel

__all__ = [
    "HardwareConfig",
    "DEFAULT_HW",
    "Dataflow",
    "NVDLAStyle",
    "EyerissStyle",
    "ShiDianNaoStyle",
    "DATAFLOWS",
    "BatchDims",
    "BatchPlan",
    "get_dataflow",
    "CostReport",
    "ModelCostReport",
    "BatchCostReport",
    "BATCH_STYLES",
    "STYLE_INDEX",
    "BatchedCostModel",
    "LayerTable",
    "CostModel",
]
