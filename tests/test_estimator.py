"""Tests for the analytical cost estimator."""

import dataclasses
import gc
import math
import weakref

import numpy as np
import pytest

from repro.costmodel import CostModel, HardwareConfig
from repro.costmodel.report import CostReport, ModelCostReport
from repro.models.layers import Layer, LayerType


class TestHardwareConfig:
    def test_defaults_valid(self):
        HardwareConfig()

    @pytest.mark.parametrize("field", [
        "clock_ghz", "mac_area_um2", "mac_energy_pj",
        "dram_bandwidth_bytes_per_cycle",
    ])
    def test_rejects_nonpositive(self, field):
        with pytest.raises(ValueError, match=field):
            HardwareConfig(**{field: 0.0})

    @pytest.mark.parametrize("field", [
        "pe_static_power_mw", "l1_accesses_per_mac", "pipeline_fill_cycles",
    ])
    def test_rejects_negative(self, field):
        with pytest.raises(ValueError, match=field):
            HardwareConfig(**{field: -1.0})


class TestEvaluateLayer:
    def test_report_fields_positive(self, cost_model, conv_layer):
        report = cost_model.evaluate_layer(conv_layer, "dla", 16, 39)
        assert report.latency_cycles > 0
        assert report.energy_nj > 0
        assert report.area_um2 > 0
        assert report.power_mw > 0
        assert 0 < report.pe_utilization <= 1.0
        assert report.pes_used <= 16

    def test_invalid_pes(self, cost_model, conv_layer):
        with pytest.raises(ValueError, match="pes"):
            cost_model.evaluate_layer(conv_layer, "dla", 0, 39)

    def test_invalid_buffer(self, cost_model, conv_layer):
        with pytest.raises(ValueError, match="l1_bytes"):
            cost_model.evaluate_layer(conv_layer, "dla", 16, 0)

    def test_latency_non_increasing_in_pes(self, cost_model, conv_layer):
        latencies = [
            cost_model.evaluate_layer(conv_layer, "dla", pes, 39)
            .latency_cycles
            for pes in (1, 2, 4, 8, 16, 32, 64, 128)
        ]
        assert all(b <= a for a, b in zip(latencies, latencies[1:]))

    def test_area_strictly_increasing_in_pes(self, cost_model, conv_layer):
        areas = [
            cost_model.evaluate_layer(conv_layer, "dla", pes, 39).area_um2
            for pes in (1, 2, 4, 8, 16)
        ]
        assert all(b > a for a, b in zip(areas, areas[1:]))

    def test_area_strictly_increasing_in_buffer(self, cost_model,
                                                conv_layer):
        areas = [
            cost_model.evaluate_layer(conv_layer, "dla", 16, b).area_um2
            for b in (19, 39, 69, 129)
        ]
        assert all(b > a for a, b in zip(areas, areas[1:]))

    def test_overprovisioning_plateau(self, cost_model):
        # A tiny layer cannot use a big array: latency flattens.
        layer = Layer("tiny", LayerType.CONV, K=2, C=2, Y=8, X=8, R=3, S=3)
        r64 = cost_model.evaluate_layer(layer, "dla", 64, 19)
        r128 = cost_model.evaluate_layer(layer, "dla", 128, 19)
        assert r64.latency_cycles == r128.latency_cycles

    def test_power_equals_energy_over_latency(self, cost_model, conv_layer):
        report = cost_model.evaluate_layer(conv_layer, "dla", 16, 39)
        assert report.power_mw == pytest.approx(
            report.energy_nj * 1000.0 / report.latency_cycles)

    def test_latency_bounded_by_memory(self, cost_model, gemm):
        report = cost_model.evaluate_layer(gemm, "dla", 128, 129)
        assert report.latency_cycles >= report.memory_cycles

    def test_l2_double_buffers_tile(self, cost_model, conv_layer):
        hw = HardwareConfig()
        report = cost_model.evaluate_layer(conv_layer, "dla", 16, 39)
        assert report.l2_bytes == int(2 * hw.l2_sizing_factor * 16 * 39)

    def test_area_breakdown_sums_to_total(self, cost_model, conv_layer):
        r = cost_model.evaluate_layer(conv_layer, "dla", 16, 39)
        assert r.area_um2 == pytest.approx(
            r.pe_area_um2 + r.l1_area_um2 + r.l2_area_um2 + r.noc_area_um2)

    def test_objective_lookup(self, cost_model, conv_layer):
        r = cost_model.evaluate_layer(conv_layer, "dla", 16, 39)
        assert r.objective("latency") == r.latency_cycles
        assert r.objective("energy") == r.energy_nj
        assert r.objective("edp") == pytest.approx(
            r.latency_cycles * r.energy_nj)
        with pytest.raises(KeyError, match="unknown objective"):
            r.objective("throughput")

    def test_constraint_lookup(self, cost_model, conv_layer):
        r = cost_model.evaluate_layer(conv_layer, "dla", 16, 39)
        assert r.constraint("area") == r.area_um2
        assert r.constraint("power") == r.power_mw
        with pytest.raises(KeyError, match="unknown constraint"):
            r.constraint("volume")

    def test_custom_hw_config_changes_results(self, conv_layer):
        base = CostModel().evaluate_layer(conv_layer, "dla", 16, 39)
        doubled = CostModel(
            HardwareConfig(mac_area_um2=3000.0)
        ).evaluate_layer(conv_layer, "dla", 16, 39)
        assert doubled.area_um2 > base.area_um2

    def test_cache_hits(self, conv_layer):
        model = CostModel()
        model.evaluate_layer(conv_layer, "dla", 16, 39)
        model.evaluate_layer(conv_layer, "dla", 16, 39)
        info = model.cache_info()
        assert info.hits >= 1
        assert CostModel().cache_info().hits == 0

    def test_model_is_freed_without_the_cyclic_collector(self, tiny_model):
        """The LRU cache must not hold the model: with the collector off,
        a model that has used its scalar and batched paths is freed when
        its last reference goes, and its cached reports with it."""
        model = CostModel()
        model.evaluate_model(tiny_model, [(16, 39)] * len(tiny_model),
                             dataflow="dla")
        model.evaluate_layer_batch(tiny_model[0], "dla", np.array([8, 16]),
                                   np.array([39, 39]))
        assert model.cache_info().currsize == len(tiny_model)
        model_ref = weakref.ref(model)
        batched_ref = weakref.ref(model.batched)
        enabled = gc.isenabled()
        gc.disable()
        try:
            del model
            assert model_ref() is None
            assert batched_ref() is None
        finally:
            if enabled:
                gc.enable()

    @pytest.mark.parametrize("style", ["dla", "eye", "shi"])
    def test_all_styles_all_types(self, cost_model, tiny_model, style):
        for layer in tiny_model:
            report = cost_model.evaluate_layer(layer, style, 12, 49)
            assert report.latency_cycles > 0


class TestEvaluateModel:
    def test_lp_sums_per_layer(self, cost_model, tiny_model):
        assignments = [(16, 39)] * len(tiny_model)
        report = cost_model.evaluate_model(tiny_model, assignments,
                                           dataflow="dla")
        assert report.latency_cycles == pytest.approx(
            sum(r.latency_cycles for r in report.per_layer))
        assert report.area_um2 == pytest.approx(
            sum(r.area_um2 for r in report.per_layer))
        assert len(report.per_layer) == len(tiny_model)

    def test_lp_heterogeneous_assignments(self, cost_model, tiny_model):
        assignments = [(1, 19), (8, 29), (64, 79), (128, 129)]
        report = cost_model.evaluate_model(tiny_model, assignments,
                                           dataflow="dla")
        assert report.per_layer[0].area_um2 < report.per_layer[3].area_um2

    def test_lp_mix_styles(self, cost_model, tiny_model):
        assignments = [(16, 39, "dla"), (16, 39, "eye"), (16, 39, "shi"),
                       (16, 39, "dla")]
        report = cost_model.evaluate_model(tiny_model, assignments)
        assert report.latency_cycles > 0

    def test_lp_missing_dataflow_raises(self, cost_model, tiny_model):
        with pytest.raises(ValueError, match="dataflow"):
            cost_model.evaluate_model(tiny_model,
                                      [(16, 39)] * len(tiny_model))

    def test_lp_length_mismatch_raises(self, cost_model, tiny_model):
        with pytest.raises(ValueError, match="assignments"):
            cost_model.evaluate_model(tiny_model, [(16, 39)], dataflow="dla")

    def test_ls_single_accelerator(self, cost_model, tiny_model):
        report = cost_model.evaluate_model_ls(tiny_model, 16, 39, "dla")
        # One accelerator: area is the max single-layer area, not the sum.
        per_layer_areas = [r.area_um2 for r in report.per_layer]
        assert report.area_um2 == max(per_layer_areas)
        assert report.latency_cycles == pytest.approx(
            sum(r.latency_cycles for r in report.per_layer))

    @pytest.mark.parametrize("deployment", ["lp", "ls"])
    def test_totals_add_left_to_right(self, cost_model, tiny_model,
                                      monkeypatch, deployment):
        """Model totals fold the layers in order, as the batched
        ``ordered_row_sum`` does.  A compensated sum (``math.fsum``, or
        ``sum()`` from Python 3.12) rounds these figures up.  The seam is
        the per-layer cached function both totals read from."""
        figures = [1.0, 1e-16, 1e-16, 1e-16]
        assert math.fsum(figures) > 1.0
        base = cost_model.evaluate_layer(tiny_model[0], "dla", 16, 39)
        reports = iter([dataclasses.replace(
            base, latency_cycles=value, energy_nj=value, area_um2=value,
            power_mw=value) for value in figures])
        monkeypatch.setattr(cost_model, "_evaluate_cached",
                            lambda *args: next(reports))
        if deployment == "lp":
            report = cost_model.evaluate_model(
                tiny_model, [(16, 39)] * len(tiny_model), dataflow="dla")
            totals = [report.latency_cycles, report.energy_nj,
                      report.area_um2, report.power_mw]
        else:
            report = cost_model.evaluate_model_ls(tiny_model, 16, 39, "dla")
            totals = [report.latency_cycles, report.energy_nj]
        assert totals == [1.0] * len(totals)

    def test_model_report_objective_and_breakdown(self, cost_model,
                                                  tiny_model):
        report = cost_model.evaluate_model(
            tiny_model, [(16, 39)] * len(tiny_model), dataflow="dla")
        assert report.objective("latency") == report.latency_cycles
        breakdown = report.area_breakdown()
        assert set(breakdown) == {"pe", "l1", "l2", "noc"}
        assert sum(breakdown.values()) == pytest.approx(report.area_um2)
        with pytest.raises(KeyError):
            report.objective("nope")
        with pytest.raises(KeyError):
            report.constraint("nope")
