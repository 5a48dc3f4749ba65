"""Precompiled fused cost-model tensor programs (ROADMAP item 3).

The batched engine (:mod:`repro.costmodel.batched`) already evaluates a
whole population in array arithmetic, but every call still walks a chain
of allocations: per-style masked selects, ``LayerTable`` gathers, and an
epilogue of ~30 intermediate arrays.  :func:`compile_program` folds all
of that **once per (model, platform)** into a :class:`FusedProgram`:

* Per-layer constants (window sizes, tile caps, negated numerators for
  in-place ceiling division, DRAM cycles, the layer-only energy terms)
  are computed at compile time into ``(L,)`` rows.
* When the batch is the evaluator's standard *tiled* layout
  (``layer_idx == tile(arange(L), P)`` -- every whole-population call),
  the batch is viewed as a ``(P, L)`` tensor and the rows broadcast:
  every per-element gather disappears.  Any other layout (parallel
  backend shards, hand-built batches) falls back to gathered rows --
  same values, the fast path is only a layout observation.
* Single-style batches (every fixed-dataflow search) run exactly one
  style's plan; mixed batches compact each present style's rows with a
  gather, plan them at their compacted size, and scatter the results
  back -- elementwise identical to the batched engine's masked-select
  loop, with each element planned exactly once.
* Intermediates live in preallocated, thread-local scratch buffers that
  are reused across calls (report arrays are always freshly allocated:
  callers hold on to them).

Two compiled kinds share the interface behind the
``SearchSpec.kernel`` / ``$REPRO_KERNEL`` knob:

* ``"fused"`` -- float64, **bit-identical** to the batched engine (and
  therefore to the scalar estimator); the parity suites lock this.
* ``"fused32"`` -- the float epilogue in float32: faster and half the
  memory traffic, at ~1e-7 relative error on the float outputs (integer
  outputs -- ``pes_used``, ``l2_bytes``, ``tile_k`` -- stay exact).

Like :func:`~repro.costmodel.batched.evaluate_batch_kernel`, a compiled
program is elementwise over the batch axis and therefore
*shard-invariant*: the execution backends ship ``(table, kernel)`` to
their workers once and reuse the worker-side compiled program for every
shard.  See PERFORMANCE.md ("Fused tensor programs") for measurements.
"""

from __future__ import annotations

import os
import threading
from collections import OrderedDict
from types import SimpleNamespace
from typing import NamedTuple, Optional, Tuple

import numpy as np

from repro.costmodel.constants import HardwareConfig
from repro.costmodel.dataflow import fold_layer_rows
from repro.costmodel.report import BatchCostReport

__all__ = [
    "DEFAULT_KERNEL",
    "KERNELS",
    "KERNEL_ENV",
    "ConstraintFold",
    "FusedProgram",
    "LRUCache",
    "compile_program",
    "resolve_kernel",
]

#: Kernel names accepted by ``SearchSpec.kernel`` / ``$REPRO_KERNEL``.
KERNELS: Tuple[str, ...] = ("batched", "fused", "fused32")

#: The reference engine (``evaluate_batch_kernel``) runs when no kernel
#: is requested.
DEFAULT_KERNEL = "batched"

#: Environment variable consulted when neither the spec nor the caller
#: names a kernel.
KERNEL_ENV = "REPRO_KERNEL"


def resolve_kernel(kernel: Optional[str] = None) -> str:
    """The effective kernel name: ``kernel``, else ``$REPRO_KERNEL``,
    else :data:`DEFAULT_KERNEL`.  Every kernel is bit-identical to the
    batched engine except ``fused32`` (documented float32 error bounds),
    so the env var is a safe deploy-time knob."""
    if kernel is None:
        kernel = os.environ.get(KERNEL_ENV) or DEFAULT_KERNEL
    if kernel not in KERNELS:
        raise ValueError(
            f"kernel must be one of {KERNELS}, got {kernel!r}")
    return kernel


class LRUCache:
    """A small, thread-safe least-recently-used mapping.

    Used to bound the per-owner caches this subsystem needs -- compiled
    programs keyed by ``(table_token(table), kind)`` and the
    single-layer ``LayerTable`` cache -- so long-lived ``repro serve``
    processes sweeping many models never grow without bound.
    """

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._data: "OrderedDict" = OrderedDict()
        self._lock = threading.Lock()

    def get(self, key, default=None):
        with self._lock:
            try:
                self._data.move_to_end(key)
                return self._data[key]
            except KeyError:
                return default

    def put(self, key, value) -> None:
        with self._lock:
            self._data[key] = value
            self._data.move_to_end(key)
            while len(self._data) > self.capacity:
                self._data.popitem(last=False)

    def __len__(self) -> int:
        with self._lock:
            return len(self._data)

    def __contains__(self, key) -> bool:
        with self._lock:
            return key in self._data


# ----------------------------------------------------------------------
# Internal helpers
# ----------------------------------------------------------------------
class _Scratch:
    """Named, shape-checked buffer pool (one per thread per program)."""

    def __init__(self) -> None:
        self._bufs = {}

    def get(self, name: str, shape, dtype) -> np.ndarray:
        buf = self._bufs.get(name)
        if buf is None or buf.shape != shape or buf.dtype != dtype:
            buf = np.empty(shape, dtype=dtype)
            self._bufs[name] = buf
        return buf


class _GatherView:
    """Lazily gathers ``(L,)`` rows to ``(n,)`` for non-tiled batches.

    Attribute access gathers once and memoizes on the instance, so a
    plan only pays for the rows it actually touches.
    """

    def __init__(self, rows: SimpleNamespace, layer_idx: np.ndarray) -> None:
        object.__setattr__(self, "_rows", rows)
        object.__setattr__(self, "_li", layer_idx)

    def __getattr__(self, name: str):
        value = getattr(self._rows, name)[self._li]
        object.__setattr__(self, name, value)
        return value


#: Style row indices, fixed by ``repro.costmodel.batched.BATCH_STYLES``
#: (= ``DATAFLOW_ORDER``): dla=0, shi=1, eye=2.  Asserted at compile
#: time so a reorder cannot silently mis-route plans.
_DLA, _SHI, _EYE = 0, 1, 2


class ConstraintFold(NamedTuple):
    """Per-population reductions folded into the fused epilogue.

    Produced by :meth:`FusedProgram.evaluate_constrained` when the batch
    is in the evaluator's tiled ``(P, L)`` layout: the four cost totals
    plus the platform-budget comparison the population evaluator would
    otherwise compute in a separate post-pass over the report arrays.
    Every field is bit-identical to that two-step path -- the sums
    accumulate column by column through
    :func:`repro.costmodel.batched.ordered_row_sum` on the very arrays
    the report carries, so skipping the post-pass can never change a
    search trajectory.
    """

    latency_total: np.ndarray
    energy_total: np.ndarray
    area_total: np.ndarray
    power_total: np.ndarray
    #: The budgeted quantity (``area_total`` or ``power_total``).
    used: np.ndarray
    #: ``used <= budget`` per population row.
    feasible: np.ndarray


class FusedProgram:
    """One compiled (hardware platform, layer table) tensor program.

    Build with :func:`compile_program`; call :meth:`evaluate` with the
    same validated arrays :func:`~repro.costmodel.batched
    .evaluate_batch_kernel` takes.  Instances are immutable after
    construction apart from thread-local scratch, so one program may be
    shared by concurrent threads.
    """

    def __init__(self, hw: HardwareConfig, table, kind: str = "fused") -> None:
        if kind not in ("fused", "fused32"):
            raise ValueError(
                f"compiled kernel must be one of ('fused', 'fused32'), "
                f"got {kind!r}")
        from repro.costmodel.batched import BATCH_STYLES

        assert tuple(BATCH_STYLES) == ("dla", "shi", "eye"), BATCH_STYLES
        self.hw = hw
        self.table = table
        self.kind = kind
        self._f32 = kind == "fused32"
        ft = np.float32 if self._f32 else np.float64
        self.ft = ft
        self._L = len(table.layers)
        self._arange = np.arange(self._L, dtype=np.int64)
        self._tls = threading.local()

        # -- per-layer integer rows (style plan constants) --------------
        rows = SimpleNamespace(**fold_layer_rows(
            table.K, table.C, table.out_y, table.out_x, table.R, table.S,
            table.is_dw))
        # -- per-layer float rows (estimator epilogue constants) --------
        rows.R_f = table.R.astype(ft)
        rows.we_f = table.weight_elements.astype(ft)
        rows.ie_f = table.input_elements.astype(ft)
        rows.oe_f = table.output_elements.astype(ft)
        rows.dram64 = table.dram_bytes  # float64, reported verbatim
        rows.dram_f = table.dram_bytes.astype(ft)
        rows.mem_cycles = rows.dram_f / ft(hw.dram_bandwidth_bytes_per_cycle)
        rows.macs = table.macs
        macs_f = table.macs.astype(ft) if self._f32 else table.macs
        # The first two dynamic-energy terms depend only on the layer;
        # precomputing their (left-associated) sum preserves the scalar
        # path's rounding: ((t1+t2)+t3)+t4 == (dyn12+t3)+dyn4.
        rows.dyn12 = (macs_f * ft(hw.mac_energy_pj)
                      + macs_f * ft(hw.l1_accesses_per_mac)
                      * ft(hw.l1_energy_per_byte_pj))
        rows.dyn4 = rows.dram_f * ft(hw.dram_energy_per_byte_pj)
        self.rows = rows

        # -- hardware scalars in the program dtype ----------------------
        self._fill = ft(hw.pipeline_fill_cycles)
        self._l2sz64 = np.float64(hw.l2_double_sizing)
        self._mac_area = ft(hw.mac_area_um2)
        self._l1_area_pb = ft(hw.l1_area_per_byte_um2)
        self._l2_area_pb = ft(hw.l2_area_per_byte_um2)
        self._noc_pp = ft(hw.noc_area_per_pe_um2)
        self._l2e = ft(hw.l2_energy_per_byte_pj)
        self._pe_sp = ft(hw.pe_static_power_mw)
        self._l1_sp = ft(hw.l1_static_power_mw_per_byte)
        self._l2_sp = ft(hw.l2_static_power_mw_per_byte)
        self._clock = ft(hw.clock_ghz)
        self._thousand = ft(1000.0)

    # ------------------------------------------------------------------
    def _scratch(self) -> _Scratch:
        scratch = getattr(self._tls, "scratch", None)
        if scratch is None:
            scratch = _Scratch()
            self._tls.scratch = scratch
        return scratch

    def _its(self, int_arr, scalar, out) -> np.ndarray:
        """``int_arr * scalar`` into ``out`` (mirrors the batched
        engine's int64-times-float-scalar products; fused32 converts
        explicitly so NEP-50 promotion cannot bounce back to float64)."""
        if self._f32:
            out[...] = int_arr
            np.multiply(out, scalar, out=out)
        else:
            np.multiply(int_arr, scalar, out=out)
        return out

    # ------------------------------------------------------------------
    # Style plans: elementwise transcriptions of Dataflow.plan_batch over
    # precomputed rows.  Integer reassociation is exact, so folding e.g.
    # out*window into one row changes no value; every float op keeps the
    # batched engine's expression order.
    # ------------------------------------------------------------------
    def _plan_dla(self, c, pes, l1, sc, shape):
        i64 = np.int64
        k = sc.get("dla_k", shape, i64)
        np.subtract(l1, c.window, out=k)
        np.floor_divide(k, c.wplus1, out=k)
        np.maximum(k, 1, out=k)
        np.minimum(k, c.K, out=k)
        np.maximum(k, 1, out=k)
        kt = sc.get("dla_kt", shape, i64)
        np.floor_divide(c.negK, k, out=kt)
        np.negative(kt, out=kt)
        units = sc.get("dla_units", shape, i64)
        np.multiply(kt, c.C, out=units)
        np.copyto(units, c.C, where=c.dw)
        um = sc.get("dla_um", shape, i64)
        np.multiply(k, c.outwin, out=um)
        np.copyto(um, c.outwin, where=c.dw)
        co = sc.get("dla_co", shape, i64)
        np.floor_divide(pes, c.Cmax1, out=co)
        np.minimum(co, kt, out=co)
        np.maximum(co, 1, out=co)
        t = sc.get("dla_t", shape, i64)
        np.negative(kt, out=t)
        np.floor_divide(t, co, out=t)
        np.negative(t, out=t)
        np.copyto(t, 1, where=c.dw)
        inf = sc.get("dla_inf", shape, self.ft)
        inf[...] = t
        cs = sc.get("dla_cs", shape, i64)
        np.floor_divide(pes, kt, out=cs)
        mask = sc.get("dla_mask", shape, bool)
        np.less(pes, kt, out=mask)
        np.copyto(cs, 1, where=mask)
        np.minimum(cs, c.C, out=cs)
        np.maximum(cs, 1, out=cs)
        np.floor_divide(c.negC, cs, out=cs)
        np.negative(cs, out=cs)
        np.copyto(cs, 1, where=c.dw)
        outf = sc.get("dla_outf", shape, self.ft)
        outf[...] = cs
        return SimpleNamespace(units=units, unit_macs=um, wf=None, inf=inf,
                               outf=outf, k=k, dw_tile=True)

    def _plan_eye(self, c, pes, l1, sc, shape):
        i64 = np.int64
        k = sc.get("eye_k", shape, i64)
        np.subtract(l1, c.S, out=k)
        np.floor_divide(k, c.Splus1, out=k)
        np.maximum(k, 1, out=k)
        np.minimum(k, c.cap, out=k)
        np.maximum(k, 1, out=k)
        ct = sc.get("eye_ct", shape, i64)
        np.floor_divide(c.neg_cap, k, out=ct)
        np.negative(ct, out=ct)
        um = sc.get("eye_um", shape, i64)
        np.multiply(k, c.um_eye, out=um)
        units = sc.get("eye_units", shape, i64)
        np.multiply(c.oyR, ct, out=units)
        co = sc.get("eye_co", shape, i64)
        np.floor_divide(pes, c.Rmax1, out=co)
        np.minimum(co, c.out_y, out=co)
        np.maximum(co, 1, out=co)
        t = sc.get("eye_t", shape, i64)
        np.floor_divide(c.neg_outy, co, out=t)
        np.negative(t, out=t)
        wf = sc.get("eye_wf", shape, self.ft)
        wf[...] = t
        np.floor_divide(pes, c.oyRmax1, out=co)
        np.minimum(co, ct, out=co)
        np.maximum(co, 1, out=co)
        np.negative(ct, out=t)
        np.floor_divide(t, co, out=t)
        np.negative(t, out=t)
        inf = sc.get("eye_inf", shape, self.ft)
        inf[...] = t
        outf = sc.get("eye_outf", shape, self.ft)
        outf[...] = 1.0
        mask = sc.get("eye_mask", shape, bool)
        np.less(pes, c.R, out=mask)
        np.copyto(outf, c.R_f, where=mask)
        return SimpleNamespace(units=units, unit_macs=um, wf=wf, inf=inf,
                               outf=outf, k=k, dw_tile=False)

    def _plan_shi(self, c, pes, l1, sc, shape):
        i64 = np.int64
        k = sc.get("shi_k", shape, i64)
        np.subtract(l1, c.winpS, out=k)
        np.floor_divide(k, 2, out=k)
        np.maximum(k, 1, out=k)
        np.minimum(k, c.cap, out=k)
        np.maximum(k, 1, out=k)
        ct = sc.get("shi_ct", shape, i64)
        np.floor_divide(c.neg_cap, k, out=ct)
        np.negative(ct, out=ct)
        um = sc.get("shi_um", shape, i64)
        np.multiply(k, c.um_shi, out=um)
        units = sc.get("shi_units", shape, i64)
        np.multiply(c.out, ct, out=units)
        t = sc.get("shi_t", shape, i64)
        np.minimum(pes, units, out=t)
        np.maximum(t, 1, out=t)
        p = sc.get("shi_p", shape, i64)
        np.negative(units, out=p)
        np.floor_divide(p, t, out=p)
        np.negative(p, out=p)  # passes
        wf = sc.get("shi_wf", shape, self.ft)
        wf[...] = p
        np.subtract(p, 1, out=p)
        inf = sc.get("shi_inf", shape, self.ft)
        inf[...] = p
        np.multiply(inf, self.ft(0.25), out=inf)
        np.add(inf, self.ft(1.0), out=inf)
        return SimpleNamespace(units=units, unit_macs=um, wf=wf, inf=inf,
                               outf=None, k=k, dw_tile=False)

    _PLANNERS = {_DLA: _plan_dla, _SHI: _plan_shi, _EYE: _plan_eye}

    def _plan_mix(self, st, c, pes, l1, sc, shape):
        """Per-style compacted plans: gather only the rows of each
        present style, plan them at their compacted size, and scatter
        the results back.  Elementwise identical to the batched
        engine's masked-select loop (every plan operation is
        elementwise over the batch axis), but each element is planned
        exactly once -- the old where-lattice planned every present
        style over the *full* tensor and selected with boolean masks,
        ~3x the arithmetic on an all-style MIX batch."""
        i64 = np.int64
        sel = SimpleNamespace(
            units=sc.get("mix_units", shape, i64),
            unit_macs=sc.get("mix_um", shape, i64),
            wf=sc.get("mix_wf", shape, self.ft),
            inf=sc.get("mix_inf", shape, self.ft),
            outf=sc.get("mix_outf", shape, self.ft),
            k=sc.get("mix_k", shape, i64),
            dw_tile=False,
        )
        st_flat = st.reshape(-1)
        pes_flat = pes.reshape(-1)
        l1_flat = l1.reshape(-1)
        tiled = c is self.rows
        if not tiled:
            layer_flat = c._li
        one = self.ft(1.0)
        for style in np.unique(st_flat):
            idx = np.flatnonzero(st_flat == style)
            # Tiled layout: flat element i evaluates layer i mod L.
            compact_li = idx % self._L if tiled else layer_flat[idx]
            cv = _GatherView(self.rows, compact_li)
            plan = self._PLANNERS[int(style)](
                self, cv, pes_flat[idx], l1_flat[idx], sc, (idx.size,))
            sel.units.reshape(-1)[idx] = plan.units
            sel.unit_macs.reshape(-1)[idx] = plan.unit_macs
            sel.inf.reshape(-1)[idx] = plan.inf
            sel.wf.reshape(-1)[idx] = (
                plan.wf if plan.wf is not None else one)
            sel.outf.reshape(-1)[idx] = (
                plan.outf if plan.outf is not None else one)
            k = plan.k
            if plan.dw_tile:
                # Fold the dla depthwise tile override into the
                # compacted rows so the scattered selection is final.
                np.copyto(k, 1, where=cv.dw)
            sel.k.reshape(-1)[idx] = k
        return sel

    # ------------------------------------------------------------------
    def evaluate(self, layer_idx: np.ndarray, style_idx: np.ndarray,
                 pes: np.ndarray, l1_bytes: np.ndarray) -> BatchCostReport:
        """Evaluate one validated batch (see ``evaluate_batch_kernel``:
        same contract, same shard-invariance)."""
        return self._run(layer_idx, style_idx, pes, l1_bytes)[0]

    # ------------------------------------------------------------------
    def evaluate_constrained(
        self, layer_idx: np.ndarray, style_idx: np.ndarray,
        pes: np.ndarray, l1_bytes: np.ndarray, deployment: str,
        kind: str, budget: float,
    ) -> Tuple[BatchCostReport, Optional[ConstraintFold]]:
        """Evaluate a batch and fold the platform budget check in.

        Same contract as :meth:`evaluate`, plus the evaluator's
        reduction parameters: ``deployment`` (``"lp"`` sums per-layer
        rows, ``"ls"`` takes the row max for area/power), the platform
        constraint ``kind`` (``"area"`` or ``"power"``) and its
        ``budget``.  Returns ``(report, fold)``; ``fold`` is ``None``
        when the batch is not in the tiled population layout -- callers
        then run their usual post-pass over the report.
        """
        report, shape = self._run(layer_idx, style_idx, pes, l1_bytes)
        if len(shape) != 2:
            return report, None
        return report, self._fold(report, shape, deployment, kind, budget)

    # ------------------------------------------------------------------
    def _run(self, layer_idx, style_idx, pes, l1_bytes):
        """Plan + epilogue for one batch; returns ``(report, shape)``
        so callers can tell the tiled ``(P, L)`` layout apart."""
        n = layer_idx.size
        L = self._L
        sc = self._scratch()
        if n % L == 0 and bool(
                (layer_idx.reshape(-1, L) == self._arange).all()):
            shape = (n // L, L)
            c = self.rows
        else:
            shape = (n,)
            c = _GatherView(self.rows, layer_idx)
        pes_v = pes.reshape(shape)
        l1_v = l1_bytes.reshape(shape)

        first = int(style_idx[0])
        if bool((style_idx == first).all()):
            plan = self._PLANNERS[first](self, c, pes_v, l1_v, sc, shape)
        else:
            plan = self._plan_mix(style_idx.reshape(shape), c, pes_v, l1_v,
                                  sc, shape)
        report = self._epilogue(c, plan, pes_v, l1_v, l1_bytes, sc, shape, n)
        return report, shape

    # ------------------------------------------------------------------
    @staticmethod
    def _fold(report, shape, deployment, kind, budget) -> ConstraintFold:
        """The evaluator's population reductions, over the report arrays
        while they are still cache-hot.  Deferred import: ``batched``
        imports this module at load time, but is always fully
        initialized by the first evaluation."""
        from repro.costmodel.batched import ordered_row_sum

        latency = report.latency_cycles.reshape(shape)
        energy = report.energy_nj.reshape(shape)
        area = report.area_um2.reshape(shape)
        power = report.power_mw.reshape(shape)
        latency_total = ordered_row_sum(latency)
        energy_total = ordered_row_sum(energy)
        if deployment == "ls":
            area_total = area.max(axis=1)
            power_total = power.max(axis=1)
        else:
            area_total = ordered_row_sum(area)
            power_total = ordered_row_sum(power)
        used = area_total if kind == "area" else power_total
        return ConstraintFold(
            latency_total=latency_total,
            energy_total=energy_total,
            area_total=area_total,
            power_total=power_total,
            used=used,
            feasible=used <= budget,
        )

    # ------------------------------------------------------------------
    def _epilogue(self, c, plan, pes_v, l1_v, l1_flat, sc, shape,
                  n) -> BatchCostReport:
        """The estimator epilogue over one planned batch.  Output arrays
        are freshly allocated (consumers keep reports); intermediates
        reuse scratch."""
        ft = self.ft
        i64 = np.int64

        def fresh(dtype):
            flat = np.empty(n, dtype=dtype)
            return flat, flat.reshape(shape)

        units, um = plan.units, plan.unit_macs
        pes_used, pu_v = fresh(i64)
        np.minimum(pes_v, units, out=pu_v)
        passes = sc.get("ep_passes", shape, i64)
        np.negative(units, out=passes)
        np.floor_divide(passes, pu_v, out=passes)
        np.negative(passes, out=passes)
        ti = sc.get("ep_ti", shape, i64)
        np.multiply(passes, um, out=ti)
        compute_cycles, cc_v = fresh(ft)
        cc_v[...] = ti
        np.multiply(passes, pu_v, out=passes)
        utilization, util_v = fresh(ft)
        np.divide(units, passes, out=util_v)

        # L2 traffic: (weight + input) + output bytes, batched order.
        ib = sc.get("ep_ib", shape, ft)
        np.multiply(c.ie_f, plan.inf, out=ib)
        l2_traffic, l2t_v = fresh(ft)
        if plan.wf is None:
            np.add(c.we_f, ib, out=l2t_v)
        else:
            wb = sc.get("ep_wb", shape, ft)
            np.multiply(c.we_f, plan.wf, out=wb)
            np.add(wb, ib, out=l2t_v)
        if plan.outf is None:
            np.add(l2t_v, c.oe_f, out=l2t_v)
        else:
            np.multiply(c.oe_f, plan.outf, out=ib)
            np.add(l2t_v, ib, out=l2t_v)

        dram_bytes, dram_v = fresh(np.float64)
        dram_v[...] = c.dram64
        memory_cycles, mc_v = fresh(ft)
        mc_v[...] = c.mem_cycles
        latency, lat_v = fresh(ft)
        np.maximum(cc_v, mc_v, out=lat_v)
        np.add(lat_v, self._fill, out=lat_v)

        # L2 sizing stays float64 in every kind so the integer output is
        # exact: ceil((sizing * pes) * l1) in the batched order.
        f64 = sc.get("ep_f64", shape, np.float64)
        np.multiply(pes_v, self._l2sz64, out=f64)
        np.multiply(f64, l1_v, out=f64)
        np.ceil(f64, out=f64)
        l2_bytes, l2b_v = fresh(i64)
        l2b_v[...] = f64

        pe_area, pa_v = fresh(ft)
        self._its(pes_v, self._mac_area, pa_v)
        l1_area, la_v = fresh(ft)
        self._its(l1_v, self._l1_area_pb, la_v)
        np.multiply(la_v, pes_v, out=la_v)
        l2_area, l2a_v = fresh(ft)
        self._its(l2b_v, self._l2_area_pb, l2a_v)
        noc_area, noc_v = fresh(ft)
        self._its(pes_v, self._noc_pp, noc_v)
        area, area_v = fresh(ft)
        np.add(pa_v, la_v, out=area_v)
        np.add(area_v, l2a_v, out=area_v)
        np.add(area_v, noc_v, out=area_v)

        macs, macs_v = fresh(i64)
        macs_v[...] = c.macs
        dyn = sc.get("ep_dyn", shape, ft)
        np.multiply(l2t_v, self._l2e, out=dyn)
        np.add(c.dyn12, dyn, out=dyn)
        np.add(dyn, c.dyn4, out=dyn)

        sm = sc.get("ep_sm", shape, ft)
        self._its(pes_v, self._pe_sp, sm)
        tf = sc.get("ep_tf", shape, ft)
        np.multiply(pes_v, l1_v, out=ti)
        self._its(ti, self._l1_sp, tf)
        np.add(sm, tf, out=sm)
        self._its(l2b_v, self._l2_sp, tf)
        np.add(sm, tf, out=sm)
        np.multiply(sm, lat_v, out=sm)
        np.divide(sm, self._clock, out=sm)

        energy, en_v = fresh(ft)
        np.add(dyn, sm, out=en_v)
        power, pw_v = fresh(ft)
        np.divide(en_v, lat_v, out=pw_v)
        np.multiply(pw_v, self._clock, out=pw_v)
        np.divide(en_v, self._thousand, out=en_v)  # energy_pj -> nJ

        tile_k, tk_v = fresh(i64)
        tk_v[...] = plan.k
        if plan.dw_tile:
            np.copyto(tk_v, 1, where=c.dw)

        return BatchCostReport(
            latency_cycles=latency,
            energy_nj=energy,
            area_um2=area,
            power_mw=power,
            pes_used=pes_used,
            pe_utilization=utilization,
            l1_bytes_per_pe=l1_flat,
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


def compile_program(hw: HardwareConfig, table,
                    kind: str = "fused") -> FusedProgram:
    """Compile one fused tensor program for ``(hw, table)``.

    ``kind`` is one of ``"fused"`` (float64, bit-identical to the
    batched engine) or ``"fused32"`` (float32 epilogue).  Compilation
    folds the per-layer constants once -- microseconds for typical
    models -- and is cached by the owners (``BatchedCostModel``, the
    execution backends, worker processes) in small :class:`LRUCache`
    instances keyed on the table's never-recycled generation token
    (``table_token(table), kind``).
    """
    return FusedProgram(hw, table, kind)
