"""Cross-module integration tests: full pipelines on realistic slices."""

import pytest

from repro import explore, get_model
from repro.costmodel import CostModel
from repro.experiments import TaskSpec, compare_methods
from repro.experiments.lp_study import winners


@pytest.fixture(scope="module")
def shared_cost_model():
    return CostModel()


def confuciux(cost_model, model, budget, finetune, **spec_options):
    """The two-stage result of a seed-0 ``confuciux`` session on the
    first 8 layers of ``model``."""
    return explore(model=model, method="confuciux", budget=budget,
                   finetune=finetune, seed=0, layer_slice=8,
                   cost_model=cost_model, **spec_options).detail


class TestFullPipelines:
    @pytest.mark.parametrize("dataflow", ["dla", "eye", "shi"])
    def test_pipeline_per_dataflow(self, shared_cost_model, dataflow):
        result = confuciux(shared_cost_model, "mobilenet_v2", 50, 15,
                           dataflow=dataflow, platform="iot")
        assert result.best_cost is not None
        util = result.utilization()
        assert util.used <= util.budget

    @pytest.mark.parametrize("model", ["ncf", "gnmt"])
    def test_gemm_models_end_to_end(self, shared_cost_model, model):
        result = confuciux(shared_cost_model, model, 40, 10,
                           platform="cloud")
        assert result.best_cost is not None

    def test_tighter_constraints_cost_more(self, shared_cost_model):
        # Tightening the platform tier can only hurt the best objective.
        costs = {}
        for platform in ("cloud", "iot"):
            result = confuciux(shared_cost_model, "mobilenet_v2", 80, 30,
                               platform=platform)
            costs[platform] = result.best_cost
        assert costs["iot"] >= costs["cloud"] * 0.95

    def test_reinforce_beats_weakest_baselines_tight(self,
                                                     shared_cost_model):
        # The Table-IV shape: under a tight budget, random/SA/GA struggle
        # while Con'X(global) finds a feasible point.
        task = TaskSpec(model="mobilenet_v2", layer_slice=10,
                        platform="iotx")
        results = compare_methods(task, ["random", "sa", "ga", "reinforce"],
                                  epochs=120, seed=0,
                                  cost_model=shared_cost_model)
        assert results["reinforce"].feasible
        baseline_best = [r.best_cost for name, r in results.items()
                         if name != "reinforce" and r.best_cost is not None]
        if baseline_best:
            assert results["reinforce"].best_cost <= min(baseline_best) * 2.0

    def test_mix_pipeline_with_finetune(self, shared_cost_model):
        result = confuciux(shared_cost_model, "mobilenet_v2", 50, 10,
                           mix=True, platform="iot")
        assert result.best_cost is not None
        assert all(len(a) == 3 for a in result.best_assignments)

    def test_winner_is_reinforce_or_close(self, shared_cost_model):
        task = TaskSpec(model="mobilenet_v2", layer_slice=8, platform="iot")
        results = compare_methods(task, ["ga", "reinforce"], epochs=100,
                                  seed=0, cost_model=shared_cost_model)
        best = winners(results)
        assert best, "no method found a feasible design"
        if "reinforce" not in best:
            ratio = (results["reinforce"].best_cost
                     / results[best[0]].best_cost)
            assert ratio < 2.0


class TestCostModelScalability:
    def test_full_mobilenet_evaluates_quickly(self, shared_cost_model):
        import time
        layers = get_model("mobilenet_v2")
        assignments = [(16, 39)] * len(layers)
        started = time.perf_counter()
        report = shared_cost_model.evaluate_model(layers, assignments,
                                                  dataflow="dla")
        elapsed = time.perf_counter() - started
        assert report.latency_cycles > 0
        assert elapsed < 1.0

    @pytest.mark.parametrize("model", ["resnet50", "transformer"])
    def test_large_models_evaluate(self, shared_cost_model, model):
        layers = get_model(model)
        report = shared_cost_model.evaluate_model(
            layers, [(64, 99)] * len(layers), dataflow="dla")
        assert report.latency_cycles > 0
        assert len(report.per_layer) == len(layers)
