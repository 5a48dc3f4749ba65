"""Tests for platform constraints (Table II) and the design evaluator."""

import pytest

from repro.core.constraints import (
    PLATFORM_FRACTIONS,
    PlatformConstraint,
    ResourceConstraint,
    measure_max_consumption,
    platform_constraint,
)
from repro.core.evaluator import DesignPointEvaluator
from repro.costmodel.report import UtilizationReport
from repro.env.spaces import ActionSpace


class TestPlatformConstraint:
    def test_fractions_match_table2(self):
        assert PLATFORM_FRACTIONS == {
            "unlimited": float("inf"), "cloud": 0.5, "iot": 0.1,
            "iotx": 0.05}

    def test_validation(self):
        with pytest.raises(ValueError, match="kind"):
            PlatformConstraint(kind="volume", budget=1.0)
        with pytest.raises(ValueError, match="budget"):
            PlatformConstraint(kind="area", budget=0.0)


class TestDerivation:
    def test_max_consumption_is_uniform_top_pair(self, cost_model,
                                                 tiny_model, space_dla):
        measured = measure_max_consumption(tiny_model, "dla", "area",
                                           cost_model, space_dla)
        expected = sum(
            cost_model.evaluate_layer(l, "dla", 128, 129).area_um2
            for l in tiny_model)
        assert measured == pytest.approx(expected)

    @pytest.mark.parametrize("platform,fraction", [
        ("cloud", 0.5), ("iot", 0.1), ("iotx", 0.05)])
    def test_budget_fractions(self, cost_model, tiny_model, space_dla,
                              platform, fraction):
        c_max = measure_max_consumption(tiny_model, "dla", "area",
                                        cost_model, space_dla)
        constraint = platform_constraint(tiny_model, "dla", "area", platform,
                                         cost_model, space_dla)
        assert constraint.budget == pytest.approx(fraction * c_max)

    def test_unlimited_is_infinite(self, cost_model, tiny_model):
        constraint = platform_constraint(tiny_model, "dla", "area",
                                         "unlimited", cost_model)
        assert constraint.budget == float("inf")

    def test_unknown_platform(self, cost_model, tiny_model):
        with pytest.raises(KeyError, match="unknown platform"):
            platform_constraint(tiny_model, "dla", "area", "laptop",
                                cost_model)

    def test_power_constraints_derive_too(self, cost_model, tiny_model):
        constraint = platform_constraint(tiny_model, "dla", "power", "iot",
                                         cost_model)
        assert constraint.kind == "power"
        assert constraint.budget > 0


class TestResourceConstraint:
    def test_validation(self):
        with pytest.raises(ValueError):
            ResourceConstraint(max_pes=0, max_l1_bytes=100)
        with pytest.raises(ValueError):
            ResourceConstraint(max_pes=10, max_l1_bytes=0)

    def test_fields(self):
        cons = ResourceConstraint(max_pes=256, max_l1_bytes=4096)
        assert cons.kind == "resource"


class TestDesignPointEvaluator:
    @pytest.fixture
    def evaluator(self, cost_model, tiny_model, space_dla):
        constraint = platform_constraint(tiny_model, "dla", "area", "cloud",
                                         cost_model, space_dla)
        return DesignPointEvaluator(tiny_model, "latency", constraint,
                                    cost_model, space_dla, dataflow="dla")

    def test_genome_length(self, evaluator, tiny_model):
        assert evaluator.genome_length == 2 * len(tiny_model)

    def test_decode_genome(self, evaluator):
        genome = [0, 0, 11, 11, 4, 2, 1, 1]
        assignments = evaluator.decode_genome(genome)
        assert assignments[0] == (1, 19)
        assert assignments[1] == (128, 129)
        assert assignments[2] == (12, 39)

    def test_decode_rejects_wrong_length(self, evaluator):
        with pytest.raises(ValueError, match="genome length"):
            evaluator.decode_genome([0, 0])

    def test_decode_rejects_negative_and_out_of_range_genes(self,
                                                           evaluator):
        with pytest.raises(ValueError, match="PE level index -1"):
            evaluator.decode_genome([0, 0, -1, 0, 0, 0, 0, 0])
        with pytest.raises(ValueError, match="buffer level index 12"):
            evaluator.decode_genome([0, 0, 0, 0, 0, 0, 0, 12])

    def test_feasibility_boundary(self, evaluator):
        # The max pair must violate a 50% budget; the min pair must fit.
        top = evaluator.evaluate_genome([11, 11] * 4)
        bottom = evaluator.evaluate_genome([0, 0] * 4)
        assert not top.feasible
        assert bottom.feasible

    def test_cost_matches_report_objective(self, evaluator):
        outcome = evaluator.evaluate_genome([3, 3] * 4)
        assert outcome.cost == outcome.report.latency_cycles

    def test_counts_evaluations(self, evaluator):
        start = evaluator.evaluations
        evaluator.evaluate_genome([0, 0] * 4)
        evaluator.evaluate_genome([1, 1] * 4)
        assert evaluator.evaluations == start + 2

    def test_ls_deployment_uses_first_gene(self, cost_model, tiny_model,
                                           space_dla):
        constraint = platform_constraint(tiny_model, "dla", "area",
                                         "unlimited", cost_model, space_dla)
        evaluator = DesignPointEvaluator(
            tiny_model, "latency", constraint, cost_model, space_dla,
            dataflow="dla", deployment="ls")
        outcome = evaluator.evaluate_genome([4, 2] * 4)
        expected = cost_model.evaluate_model_ls(tiny_model, 12, 39, "dla")
        assert outcome.cost == pytest.approx(expected.latency_cycles)

    def test_rejects_bad_deployment(self, cost_model, tiny_model, space_dla):
        constraint = PlatformConstraint(kind="area", budget=1e12)
        with pytest.raises(ValueError, match="deployment"):
            DesignPointEvaluator(tiny_model, "latency", constraint,
                                 cost_model, space_dla, dataflow="dla",
                                 deployment="pipeline")

    def test_requires_dataflow_for_non_mix(self, cost_model, tiny_model,
                                           space_dla):
        constraint = PlatformConstraint(kind="area", budget=1e12)
        with pytest.raises(ValueError, match="dataflow"):
            DesignPointEvaluator(tiny_model, "latency", constraint,
                                 cost_model, space_dla)

    def test_mix_genome(self, cost_model, tiny_model, space_mix):
        constraint = PlatformConstraint(kind="area", budget=1e12)
        evaluator = DesignPointEvaluator(tiny_model, "latency", constraint,
                                         cost_model, space_mix)
        genome = [0, 0, 0, 1, 1, 1, 2, 2, 2, 3, 3, 0]
        assert evaluator.genome_length == 12
        outcome = evaluator.evaluate_genome(genome)
        assert outcome.feasible

    def test_resource_constraint_accounting(self, cost_model, tiny_model,
                                            space_dla):
        constraint = ResourceConstraint(max_pes=40, max_l1_bytes=100_000)
        evaluator = DesignPointEvaluator(tiny_model, "latency", constraint,
                                         cost_model, space_dla,
                                         dataflow="dla")
        # 4 layers x 8 PEs = 32 <= 40: feasible.
        assert evaluator.evaluate_genome([3, 0] * 4).feasible
        # 4 layers x 16 PEs = 64 > 40: infeasible.
        assert not evaluator.evaluate_genome([5, 0] * 4).feasible

    def test_resource_constraint_l1_cap(self, cost_model, tiny_model,
                                        space_dla):
        constraint = ResourceConstraint(max_pes=10_000, max_l1_bytes=500)
        evaluator = DesignPointEvaluator(tiny_model, "latency", constraint,
                                         cost_model, space_dla,
                                         dataflow="dla")
        # 4 layers x (1 PE x 129B) = 516 > 500.
        assert not evaluator.evaluate_genome([0, 11] * 4).feasible
        assert evaluator.evaluate_genome([0, 0] * 4).feasible

    def test_utilization_report(self, evaluator):
        outcome = evaluator.evaluate_genome([0, 0] * 4)
        util = UtilizationReport(constraint="area",
                                 budget=evaluator.constraint.budget,
                                 used=outcome.used)
        assert 0 < util.fraction < 1
        assert "area" in str(util)
