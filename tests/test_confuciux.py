"""Tests for the two-stage ConfuciuX search and the MIX search."""

import pytest

import repro
from repro.core.constraints import PlatformConstraint, ResourceConstraint
from repro.core.joint import dataflow_assignment_table, style_histogram
from repro.experiments.tasks import TaskSpec
from repro.search import SearchSession, SearchSpec, get_method
from repro.search.session import SessionContext, run_method


def two_stage(cost_model, budget, finetune, **spec_options):
    """The :class:`ConfuciuXResult` of a ``confuciux`` session (or of the
    ``method`` option) on the 8-layer MobileNet-V2 slice."""
    options = {"model": "mobilenet_v2", "layer_slice": 8, "seed": 0,
               **spec_options}
    return repro.explore(budget=budget, finetune=finetune,
                         cost_model=cost_model, **options).detail


def two_stage_under(constraint, cost_model, layers, budget, finetune):
    """The same for ``layers`` under an explicit constraint object."""
    context = SessionContext(TaskSpec(model=layers), budget, seed=0,
                             finetune=finetune, cost_model=cost_model,
                             constraint=constraint)
    run_method(get_method("confuciux"), context)
    return context.detail


class TestConfuciuXPipeline:
    @pytest.fixture(scope="class")
    def result(self, cost_model):
        return two_stage(cost_model, 60, 25, objective="latency",
                         dataflow="dla", platform="iot",
                         constraint_kind="area")

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
    def test_skip_finetune(self, cost_model):
        result = two_stage(cost_model, 15, 0, platform="cloud")
        assert result.finetune_result is None
        assert result.best_cost == result.global_cost

    def test_explicit_constraint_object(self, cost_model, mobilenet_slice):
        constraint = PlatformConstraint(kind="area", budget=1e15,
                                        platform="custom")
        result = two_stage_under(constraint, cost_model, mobilenet_slice,
                                 10, 0)
        assert result.best_cost is not None
        assert result.constraint is constraint

    def test_resource_constraint_fpga_mode(self, cost_model,
                                           mobilenet_slice):
        constraint = ResourceConstraint(max_pes=256, max_l1_bytes=16384)
        result = two_stage_under(constraint, cost_model, mobilenet_slice,
                                 30, 10)
        assert result.best_cost is not None
        total_pes = sum(a[0] for a in result.best_assignments)
        total_l1 = sum(a[0] * a[1] for a in result.best_assignments)
        assert total_pes <= 256
        assert total_l1 <= 16384

    def test_mlp_policy_option(self, cost_model):
        result = two_stage(cost_model, 15, 0, method="confuciux-mlp",
                           platform="cloud")
        assert result.best_cost is not None

    @pytest.mark.parametrize("levels", [10, 14])
    def test_action_level_sweep(self, cost_model, levels):
        result = two_stage(cost_model, 15, 0, num_levels=levels,
                           platform="cloud")
        assert result.best_cost is not None

    @pytest.mark.parametrize("objective", ["energy", "edp"])
    def test_other_objectives(self, cost_model, objective):
        result = two_stage(cost_model, 15, 0, objective=objective,
                           platform="cloud")
        assert result.best_cost is not None

    def test_power_constraint(self, cost_model):
        result = two_stage(cost_model, 100, 0, constraint_kind="power",
                           platform="iot")
        assert result.best_cost is not None


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


class TestRunShimRemoval:
    """``ConfuciuX.run`` and the class behind it are gone.  What remains is
    the guarantee its internal driver gave: the two-stage runner the
    session API uses is bit-identical to ``repro.explore`` and to
    REINFORCE followed by the local GA run by hand, so nothing was lost
    with the class."""

    def test_internal_run_matches_explore_bit_for_bit(self, cost_model):
        from repro.ga.local_ga import raw_bounds

        epochs, finetune, seed, layers = 10, 4, 21, 4
        task = TaskSpec(model="mobilenet_v2", platform="iot",
                        layer_slice=layers)
        context = SessionContext(task, epochs, seed=seed, finetune=finetune,
                                 cost_model=cost_model)
        run_method(get_method("confuciux"), context)
        internal = context.detail
        modern = repro.explore(model="mobilenet_v2", method="confuciux",
                               budget=epochs, finetune=finetune, seed=seed,
                               platform="iot", layer_slice=layers,
                               cost_model=cost_model)
        constraint = task.constraint(cost_model)
        stage1 = repro.Reinforce(seed=seed).search(
            task.make_env(cost_model, constraint), epochs)
        evaluator = task.make_evaluator(cost_model, constraint)
        stage2 = repro.LocalGA(seed=seed, **raw_bounds(evaluator.space)).search(
            evaluator, stage1.best_assignments, finetune)
        for detail in (internal, modern.detail):
            assert detail.best_cost == stage2.best_cost
            assert detail.best_assignments == stage2.best_assignments
            assert detail.global_cost == stage1.best_cost
            assert detail.initial_valid_cost == next(
                cost for cost in stage1.history if cost != float("inf"))
        assert modern.best_cost == internal.best_cost
        assert modern.best_assignments == internal.best_assignments
        assert modern.result.history == internal.trace
        assert modern.detail.global_cost == internal.global_cost
        assert modern.detail.initial_valid_cost == internal.initial_valid_cost


class TestJointSearch:
    @pytest.fixture(scope="class")
    def mix_result(self, cost_model):
        return two_stage(cost_model, 60, 0, mix=True, platform="iot")

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
        result = two_stage(cost_model, 10, 0, platform="cloud")
        with pytest.raises(ValueError, match="MIX"):
            dataflow_assignment_table(result, mobilenet_slice)

    def test_mix_beats_or_matches_worst_fixed_style(self, cost_model,
                                                    mix_result):
        # Table VI's qualitative claim, with a small-budget tolerance:
        # MIX should not lose to every fixed dataflow.
        fixed_costs = []
        for style in ("dla", "eye", "shi"):
            fixed = two_stage(cost_model, 60, 0, dataflow=style,
                              platform="iot")
            if fixed.best_cost is not None:
                fixed_costs.append(fixed.best_cost)
        assert mix_result.best_cost <= max(fixed_costs)
