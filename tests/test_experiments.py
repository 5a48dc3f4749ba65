"""Tests for the experiment harness: TaskSpec, runner, LS/LP studies."""

import numpy as np
import pytest

from repro.env.spaces import ActionSpace
from repro.experiments import TaskSpec, compare_methods, default_epochs
from repro.experiments.ls_study import (
    best_action_pair,
    heuristic_a,
    heuristic_b,
    layer_contour,
    most_compute_intensive,
    per_layer_optima,
    plateau_fraction,
    uniform_cost,
)
from repro.experiments.lp_study import format_row, winners


class TestTaskSpec:
    def test_builds_env_and_evaluator(self, cost_model):
        task = TaskSpec(model="mobilenet_v2", layer_slice=6)
        env = task.make_env(cost_model)
        evaluator = task.make_evaluator(cost_model)
        assert env.num_steps == 6
        assert evaluator.genome_length == 12

    def test_layer_slice(self, cost_model):
        assert len(TaskSpec(model="ncf").layers()) == 4
        assert len(TaskSpec(model="ncf", layer_slice=2).layers()) == 2

    def test_accepts_explicit_layers(self, tiny_model, cost_model):
        task = TaskSpec(model=tiny_model)
        assert task.layers() == list(tiny_model)

    def test_mix_task(self, cost_model):
        task = TaskSpec(model="ncf", mix=True)
        env = task.make_env(cost_model)
        assert env.space.is_mix

    def test_resource_constraint_task(self, cost_model):
        task = TaskSpec(model="ncf", constraint_kind="resource",
                        max_total_pes=100, max_total_l1=5000)
        constraint = task.constraint(cost_model)
        assert constraint.kind == "resource"
        assert constraint.max_pes == 100

    def test_default_epochs_env_var(self, monkeypatch):
        monkeypatch.delenv("REPRO_EPOCHS", raising=False)
        assert default_epochs(123) == 123
        monkeypatch.setenv("REPRO_EPOCHS", "7")
        assert default_epochs(123) == 7
        monkeypatch.setenv("REPRO_EPOCHS", "0")
        with pytest.raises(ValueError):
            default_epochs()


class TestRunner:
    def test_compare_methods_mixed_families(self, cost_model):
        task = TaskSpec(model="mobilenet_v2", layer_slice=6,
                        platform="cloud")
        results = compare_methods(task, ["random", "reinforce"], epochs=20,
                                  cost_model=cost_model)
        assert set(results) == {"random", "reinforce"}
        for result in results.values():
            assert len(result.history) == 20

    def test_compare_methods_cache_hits_and_interop(self, cost_model,
                                                    tmp_path):
        """The grid shares the service's content-addressed store: a
        second identical grid is all hits (and bit-identical up to wall
        clock), the service can read what the grid wrote, and
        ``force=True`` re-runs."""
        from repro.service import ResultStore, SearchServer

        store = ResultStore(root=tmp_path / "cache")
        task = TaskSpec(model="mnasnet", layer_slice=3, platform="cloud")
        first = compare_methods(task, ["random", "ga"], epochs=20,
                                cost_model=cost_model, cache=store)
        assert store.stats()["entries"] == 2
        second = compare_methods(task, ["random", "ga"], epochs=20,
                                 cost_model=cost_model, cache=store)
        assert store.hits >= 2
        for name in first:
            assert second[name].best_cost == first[name].best_cost
            assert second[name].history == first[name].history
        with SearchServer(store=store) as server:
            from repro.experiments.runner import _grid_spec

            spec = _grid_spec(task, "random", 20, 0, 1)
            job = server.submit(spec).wait(timeout=60)
            assert job.cached
            assert server.executions == 0
        forced = compare_methods(task, ["random"], epochs=20,
                                 cost_model=cost_model, cache=store,
                                 force=True)
        assert forced["random"].best_cost == first["random"].best_cost

    def test_unrunnable_grid_is_refused_before_its_first_cell(
            self, cost_model, tmp_path, monkeypatch):
        """reinforce has no lockstep-wave path, so a grid at ``envs=4``
        is refused before a2c, the cell ahead of it, runs or is
        stored."""
        import repro.search.session as session
        from repro.service import ResultStore

        ran = []
        run_method = session.run_method
        monkeypatch.setattr(session, "run_method", lambda info, context: (
            ran.append(info.name) or run_method(info, context)))
        store = ResultStore(root=tmp_path / "cache")
        task = TaskSpec(model="mobilenet_v2", layer_slice=8,
                        platform="cloud")
        with pytest.raises(ValueError, match="reinforce"):
            compare_methods(task, ["a2c", "reinforce"], epochs=40, envs=4,
                            cost_model=cost_model, cache=store)
        assert ran == []
        assert store.stats()["entries"] == 0 and store.puts == 0

    def test_compare_methods_layer_list_tasks_skip_the_cache(
            self, tiny_model, cost_model, tmp_path):
        from repro.service import ResultStore

        store = ResultStore(root=tmp_path / "cache")
        task = TaskSpec(model=tiny_model, platform="cloud")
        compare_methods(task, ["random"], epochs=10,
                        cost_model=cost_model, cache=store)
        assert store.stats()["entries"] == 0

    def test_run_row_and_formatting(self, cost_model):
        task = TaskSpec(model="ncf", platform="cloud")
        results = compare_methods(task, ["random", "ga"], epochs=25,
                                  cost_model=cost_model)
        row = format_row("ncf", results, ["random", "ga"])
        assert row[0] == "ncf"
        assert len(row) == 3

    def test_winners(self, cost_model):
        task = TaskSpec(model="ncf", platform="cloud")
        results = compare_methods(task, ["random", "ga"], epochs=25,
                                  cost_model=cost_model)
        best = winners(results)
        assert best
        assert all(name in results for name in best)


class TestLSStudy:
    @pytest.fixture(scope="class")
    def space(self):
        return ActionSpace.build("dla")

    def test_contour_shape_and_positivity(self, cost_model, conv_layer,
                                          space):
        grid = layer_contour(conv_layer, "dla", "latency", cost_model,
                             space)
        assert grid.shape == (12, 12)
        assert np.all(grid > 0)

    def test_best_action_pair(self, cost_model, conv_layer, space):
        grid = layer_contour(conv_layer, "dla", "latency", cost_model,
                             space)
        pe_idx, buf_idx, value = best_action_pair(grid)
        assert value == grid.min()
        assert grid[pe_idx, buf_idx] == value

    def test_plateau_exists(self, cost_model, dw_layer, space):
        # DWCONV under dla: latency flat along the buffer axis (Fig. 5).
        grid = layer_contour(dw_layer, "dla", "latency", cost_model, space)
        assert plateau_fraction(grid) > 0.9

    def test_most_compute_intensive(self, tiny_model):
        index = most_compute_intensive(tiny_model)
        assert tiny_model[index].macs == max(l.macs for l in tiny_model)

    def test_heuristics_end_to_end(self, cost_model, mobilenet_slice,
                                   space):
        a = heuristic_a(mobilenet_slice, "dla", "latency", cost_model,
                        space)
        b = heuristic_b(mobilenet_slice, "dla", "latency", cost_model,
                        space)
        # B optimizes exactly the reported metric, so it can't lose to A.
        assert b.end_to_end_cost <= a.end_to_end_cost
        assert a.end_to_end_cost == pytest.approx(uniform_cost(
            mobilenet_slice, "dla", "latency", cost_model, a.pes,
            a.l1_bytes))

    def test_per_layer_optima_differ(self, cost_model, mobilenet_slice,
                                     space):
        # The Fig. 5 claim: no single action pair suits all layers.
        optima = per_layer_optima(mobilenet_slice, "dla", "latency",
                                  cost_model, space)
        pairs = {(pe, buf) for pe, buf, _ in optima}
        assert len(pairs) > 1
