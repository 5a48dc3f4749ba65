"""Tests for solution reporting (Fig. 10 helpers and table rendering)."""

import pytest

from repro.core.reporting import (
    area_breakdown_fractions,
    ascii_bars,
    format_table,
)


@pytest.fixture
def report(cost_model, tiny_model):
    assignments = [(8, 29), (16, 39), (32, 59), (64, 99)]
    return cost_model.evaluate_model(tiny_model, assignments,
                                     dataflow="dla")


class TestBreakdowns:
    def test_fractions_sum_to_one(self, report):
        fractions = area_breakdown_fractions(report)
        assert set(fractions) == {"pe", "l1", "l2", "noc"}
        assert sum(fractions.values()) == pytest.approx(1.0)
        assert all(0 <= v <= 1 for v in fractions.values())

    def test_pe_and_buffers_dominate(self, report):
        # Fig. 10 shows PE(ALU) ~40-50% and buffers ~30%: compute and L1
        # should together dominate the NoC.
        fractions = area_breakdown_fractions(report)
        assert fractions["pe"] + fractions["l1"] > fractions["noc"]


class TestRendering:
    def test_format_table_aligns(self):
        text = format_table(["a", "method"], [["1", "x"], ["22", "yy"]],
                            title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "method" in lines[1]
        assert len(lines) == 5

    def test_ascii_bars(self):
        text = ascii_bars([1.0, 2.0, 4.0], width=8)
        lines = text.splitlines()
        assert len(lines) == 3
        assert lines[2].count("#") == 8
        assert lines[0].count("#") == 2

    def test_ascii_bars_handles_zero_peak(self):
        assert ascii_bars([0.0, 0.0]) != ""
