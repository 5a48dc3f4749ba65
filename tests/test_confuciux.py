"""Tests for the two-stage ConfuciuX orchestrator and the MIX search."""

import pytest

from repro import ConfuciuX, JointSearch
from repro.core.constraints import PlatformConstraint, ResourceConstraint
from repro.core.joint import dataflow_assignment_table, style_histogram
from repro.search import SearchSession, SearchSpec


class TestConfuciuXPipeline:
    @pytest.fixture(scope="class")
    def result(self, cost_model, mobilenet_slice):
        pipeline = ConfuciuX(mobilenet_slice, objective="latency",
                             dataflow="dla", platform="iot",
                             constraint_kind="area", seed=0,
                             cost_model=cost_model)
        return pipeline._run(global_epochs=60, finetune_generations=25)

    def test_finds_feasible(self, result):
        assert result.best_cost is not None

    def test_stage2_not_worse_than_stage1(self, result):
        assert result.best_cost <= result.global_cost

    def test_stage1_not_worse_than_first_valid(self, result):
        assert result.global_cost <= result.initial_valid_cost

    def test_improvement_fractions_in_range(self, result):
        impr1, impr2 = result.improvement_fractions()
        assert 0.0 <= impr1 <= 1.0
        assert 0.0 <= impr2 <= 1.0

    def test_trace_is_monotone_and_spans_both_stages(self, result):
        trace = result.trace
        expected = len(result.global_result.history) + len(
            result.finetune_result.history)
        assert len(trace) == expected
        finite = [v for v in trace if v != float("inf")]
        assert all(b <= a for a, b in zip(finite, finite[1:]))

    def test_utilization_within_budget(self, result):
        utilization = result.utilization()
        assert utilization is not None
        assert utilization.used <= utilization.budget

    def test_assignments_cover_all_layers(self, result, mobilenet_slice):
        assert len(result.best_assignments) == len(mobilenet_slice)


class TestConfiguration:
    def test_skip_finetune(self, cost_model, mobilenet_slice):
        pipeline = ConfuciuX(mobilenet_slice, seed=0, platform="cloud",
                             cost_model=cost_model)
        result = pipeline._run(global_epochs=15, finetune_generations=0)
        assert result.finetune_result is None
        assert result.best_cost == result.global_cost

    def test_explicit_constraint_object(self, cost_model, mobilenet_slice):
        constraint = PlatformConstraint(kind="area", budget=1e15,
                                        platform="custom")
        pipeline = ConfuciuX(mobilenet_slice, constraint=constraint, seed=0,
                             cost_model=cost_model)
        result = pipeline._run(global_epochs=10, finetune_generations=0)
        assert result.best_cost is not None

    def test_resource_constraint_fpga_mode(self, cost_model,
                                           mobilenet_slice):
        constraint = ResourceConstraint(max_pes=256, max_l1_bytes=16384)
        pipeline = ConfuciuX(mobilenet_slice, constraint=constraint, seed=0,
                             cost_model=cost_model)
        result = pipeline._run(global_epochs=30, finetune_generations=10)
        assert result.best_cost is not None
        total_pes = sum(a[0] for a in result.best_assignments)
        total_l1 = sum(a[0] * a[1] for a in result.best_assignments)
        assert total_pes <= 256
        assert total_l1 <= 16384

    def test_mlp_policy_option(self, cost_model, mobilenet_slice):
        pipeline = ConfuciuX(mobilenet_slice, policy="mlp", seed=0,
                             platform="cloud", cost_model=cost_model)
        result = pipeline._run(global_epochs=15, finetune_generations=0)
        assert result.best_cost is not None

    @pytest.mark.parametrize("levels", [10, 14])
    def test_action_level_sweep(self, cost_model, mobilenet_slice, levels):
        pipeline = ConfuciuX(mobilenet_slice, num_levels=levels, seed=0,
                             platform="cloud", cost_model=cost_model)
        result = pipeline._run(global_epochs=15, finetune_generations=0)
        assert result.best_cost is not None

    @pytest.mark.parametrize("objective", ["energy", "edp"])
    def test_other_objectives(self, cost_model, mobilenet_slice, objective):
        pipeline = ConfuciuX(mobilenet_slice, objective=objective, seed=0,
                             platform="cloud", cost_model=cost_model)
        result = pipeline._run(global_epochs=15, finetune_generations=0)
        assert result.best_cost is not None

    def test_power_constraint(self, cost_model, mobilenet_slice):
        pipeline = ConfuciuX(mobilenet_slice, constraint_kind="power",
                             platform="iot", seed=0, cost_model=cost_model)
        result = pipeline._run(global_epochs=100, finetune_generations=0)
        assert result.best_cost is not None


class TestRunShimRemoval:
    """The deprecated ``ConfuciuX.run`` shim is gone (1.1 warned, 1.3
    removed).  Three guarantees remain: calling it raises *guidance*
    (never a bare AttributeError), the internal driver the session API
    uses stays warning-free, and that driver is bit-identical to the
    session path -- so nothing was lost with the shim."""

    def test_run_raises_guidance_not_attribute_error(self, cost_model,
                                                     mobilenet_slice):
        pipeline = ConfuciuX(mobilenet_slice, seed=0, cost_model=cost_model)
        with pytest.raises(RuntimeError,
                           match=r"repro\.explore.*method='confuciux'"):
            pipeline.run(global_epochs=2, finetune_generations=0)
        # Specifically never an AttributeError: the attribute exists and
        # its error names the replacement.
        try:
            pipeline.run()
        except AttributeError:  # pragma: no cover - the regression
            pytest.fail("ConfuciuX.run must give guidance, not vanish")
        except RuntimeError:
            pass

    def test_internal_run_matches_explore_bit_for_bit(self, cost_model):
        import repro

        epochs, finetune, seed, layers = 10, 4, 21, 4
        pipeline = ConfuciuX(
            repro.get_model("mobilenet_v2")[:layers], seed=seed,
            platform="iot", cost_model=cost_model)
        legacy = pipeline._run(global_epochs=epochs,
                               finetune_generations=finetune)
        modern = repro.explore(model="mobilenet_v2", method="confuciux",
                               budget=epochs, finetune=finetune, seed=seed,
                               platform="iot", layer_slice=layers,
                               cost_model=cost_model)
        assert modern.best_cost == legacy.best_cost
        assert modern.best_assignments == legacy.best_assignments
        assert modern.result.history == legacy.trace
        assert modern.detail.global_cost == legacy.global_cost
        assert modern.detail.initial_valid_cost == legacy.initial_valid_cost

    def test_internal_run_does_not_warn(self, cost_model, mobilenet_slice):
        import warnings

        pipeline = ConfuciuX(mobilenet_slice, seed=0, cost_model=cost_model)
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            pipeline._run(global_epochs=2, finetune_generations=0)


class TestSessionConstraint:
    """A two-stage session runs under its task's constraint, as every
    other method does: under MIX the budget is calibrated on
    ``SearchSpec.dataflow``, not on the pipeline's default style, so the
    best design re-scores feasible through the task's own evaluator."""

    @pytest.mark.parametrize("seed", [0, 1])
    def test_mix_session_runs_under_the_task_budget(self, cost_model, seed):
        spec = SearchSpec(model="mobilenet_v2", method="confuciux",
                          layer_slice=8, mix=True, dataflow="eye",
                          budget=60, seed=seed)
        outcome = SearchSession(spec, cost_model=cost_model).run()
        task = spec.task()
        constraint = task.constraint(cost_model)
        assert outcome.detail.constraint == constraint
        assert outcome.result.extra["constraint_budget"] == constraint.budget
        rescored = task.make_evaluator(cost_model, constraint).evaluate_raw(
            outcome.best_assignments)
        assert rescored.feasible
        assert rescored.cost == outcome.best_cost


class TestJointSearch:
    @pytest.fixture(scope="class")
    def mix_result(self, cost_model, mobilenet_slice):
        search = JointSearch(mobilenet_slice, platform="iot", seed=0,
                             cost_model=cost_model)
        return search.run(global_epochs=60, finetune_generations=0)

    def test_mix_finds_feasible(self, mix_result):
        assert mix_result.best_cost is not None

    def test_assignment_table(self, mix_result, mobilenet_slice):
        rows = dataflow_assignment_table(mix_result, mobilenet_slice)
        assert len(rows) == len(mobilenet_slice)
        assert all(row["style"] in ("dla", "eye", "shi") for row in rows)
        assert all(row["letter"] in "DSE" for row in rows)
        assert rows[0]["layer"] == 1

    def test_style_histogram(self, mix_result, mobilenet_slice):
        rows = dataflow_assignment_table(mix_result, mobilenet_slice)
        histogram = style_histogram(rows)
        assert sum(histogram.values()) == len(mobilenet_slice)

    def test_table_rejects_non_mix_result(self, cost_model,
                                          mobilenet_slice):
        pipeline = ConfuciuX(mobilenet_slice, seed=0, platform="cloud",
                             cost_model=cost_model)
        result = pipeline._run(global_epochs=10, finetune_generations=0)
        with pytest.raises(ValueError, match="MIX"):
            dataflow_assignment_table(result, mobilenet_slice)

    def test_mix_beats_or_matches_worst_fixed_style(self, cost_model,
                                                    mobilenet_slice):
        # Table VI's qualitative claim, with a small-budget tolerance:
        # MIX should not lose to every fixed dataflow.
        fixed_costs = []
        for style in ("dla", "eye", "shi"):
            pipeline = ConfuciuX(mobilenet_slice, dataflow=style,
                                 platform="iot", seed=0,
                                 cost_model=cost_model)
            fixed = pipeline._run(global_epochs=60, finetune_generations=0)
            if fixed.best_cost is not None:
                fixed_costs.append(fixed.best_cost)
        search = JointSearch(mobilenet_slice, platform="iot", seed=0,
                             cost_model=cost_model)
        mix = search.run(global_epochs=60, finetune_generations=0)
        assert mix.best_cost <= max(fixed_costs)
