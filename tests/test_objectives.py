"""The objective subsystem: registry, specs, and legacy bit-parity.

Two contracts are locked down here.  First, the spec grammar: names,
``weighted:`` / ``multi:`` strings, dicts, and instances all resolve,
round-trip through JSON, and fail fast on typos.  Second -- the
refactor's acceptance bar -- registry objectives are *bit-identical* to
the legacy string paths: for every batchable method, a session run with
``objective="latency"|"energy"|"edp"`` given as a name, a resolved
instance, or a re-parsed spec produces the same costs, RNG streams, and
reports.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro
from repro.core.serialization import search_result_to_dict
from repro.objectives import (
    ComponentObjective,
    CostTotals,
    MultiObjective,
    Objective,
    PenaltyObjective,
    WeightedObjective,
    list_objectives,
    objective_label,
    objective_spec,
    register_objective,
    resolve_objective,
    unregister_objective,
)
from repro.search import SearchSession, SearchSpec, list_methods

LEGACY = ("latency", "energy", "edp")


def _batchable_names():
    return [info.name for info in list_methods() if info.batchable]


# ----------------------------------------------------------------------
# Registry and spec grammar
# ----------------------------------------------------------------------
class TestRegistry:
    def test_builtin_components_registered(self):
        assert {"latency", "energy", "edp", "area", "power"} \
            <= set(list_objectives())

    def test_resolve_name_string_dict_instance(self):
        by_name = resolve_objective("latency")
        assert isinstance(by_name, ComponentObjective)
        assert resolve_objective(by_name) is by_name
        weighted = resolve_objective("weighted:latency=0.5,energy=0.5")
        assert isinstance(weighted, WeightedObjective)
        assert resolve_objective(weighted.spec()) == weighted
        multi = resolve_objective("multi:latency,energy")
        assert isinstance(multi, MultiObjective)
        assert multi.component_names == ["latency", "energy"]

    def test_unknown_name_raises_keyerror(self):
        with pytest.raises(KeyError, match="nope"):
            resolve_objective("nope")

    @pytest.mark.parametrize("bad", [
        "weighted:", "weighted:latency", "weighted:latency=x",
        "multi:", {"kind": "mystery"},
    ])
    def test_malformed_specs_raise(self, bad):
        with pytest.raises((ValueError, KeyError)):
            resolve_objective(bad)

    def test_register_and_unregister_custom(self):
        class Inverse(Objective):
            name = "neg-power"

            def evaluate(self, report):
                return -report.power_mw

            def spec(self):
                return "neg-power"

        register_objective("neg-power", Inverse)
        try:
            assert resolve_objective("neg-power").evaluate(
                CostTotals(0.0, 0.0, 0.0, 3.0)) == -3.0
            spec = SearchSpec(model="mobilenet_v2", objective="neg-power")
            assert spec.objective == "neg-power"
            with pytest.raises(ValueError, match="already registered"):
                register_objective("neg-power", Inverse)
        finally:
            unregister_objective("neg-power")
        with pytest.raises(KeyError):
            resolve_objective("neg-power")

    def test_penalty_dict_round_trip(self):
        penalty = PenaltyObjective(resolve_objective("latency"),
                                   limit_on="area", limit=100.0, weight=2.0)
        rebuilt = resolve_objective(penalty.spec())
        assert rebuilt == penalty
        totals = CostTotals(10.0, 0.0, 150.0, 0.0)
        assert rebuilt.evaluate(totals) == 10.0 + 2.0 * 50.0
        under = CostTotals(10.0, 0.0, 50.0, 0.0)
        assert rebuilt.evaluate(under) == 10.0

    def test_labels(self):
        assert objective_label("latency") == "latency"
        assert objective_label("multi:latency,energy") \
            == "multi(latency,energy)"
        assert "weighted" in objective_label(
            {"kind": "weighted", "weights": {"edp": 1.0}})

    def test_objective_spec_canonicalizes_instances(self):
        assert objective_spec(resolve_objective("edp")) == "edp"
        assert objective_spec("multi:latency,energy") \
            == "multi:latency,energy"


# ----------------------------------------------------------------------
# Evaluation semantics
# ----------------------------------------------------------------------
class TestEvaluation:
    def test_components_match_report_attributes(self, cost_model,
                                                conv_layer):
        report = cost_model.evaluate_layer(conv_layer, "dla", 64, 128)
        assert resolve_objective("latency").evaluate(report) \
            == report.latency_cycles
        assert resolve_objective("energy").evaluate(report) \
            == report.energy_nj
        assert resolve_objective("edp").evaluate(report) \
            == report.energy_nj * report.latency_cycles
        assert resolve_objective("area").evaluate(report) \
            == report.area_um2
        assert resolve_objective("power").evaluate(report) \
            == report.power_mw

    def test_legacy_names_bit_identical_to_string_path(self, cost_model,
                                                       tiny_model):
        report = cost_model.evaluate_model(
            tiny_model, [(16, 64)] * len(tiny_model), dataflow="dla")
        for name in LEGACY:
            assert resolve_objective(name).evaluate(report) \
                == report.objective(name)

    def test_scalar_results_stay_python_floats(self):
        totals = CostTotals(2.0, 3.0, 5.0, 7.0)
        weighted = resolve_objective("weighted:latency=0.25,energy=0.75")
        assert type(weighted.evaluate(totals)) is float
        penalty = PenaltyObjective(weighted, "area", 1.0, weight=0.5)
        assert type(penalty.evaluate(totals)) is float

    def test_elementwise_over_batch_arrays(self):
        totals = CostTotals(np.array([1.0, 2.0]), np.array([3.0, 4.0]),
                            np.array([5.0, 6.0]), np.array([7.0, 8.0]))
        weighted = resolve_objective("weighted:latency=1,area=2")
        np.testing.assert_array_equal(weighted.evaluate(totals),
                                      np.array([11.0, 14.0]))
        multi = resolve_objective("multi:latency,energy")
        np.testing.assert_array_equal(
            multi.evaluate_components(totals),
            np.array([[1.0, 2.0], [3.0, 4.0]]))
        assert multi.evaluate(totals) is totals.latency_cycles

    def test_report_objective_accepts_instances(self, cost_model,
                                                conv_layer):
        report = cost_model.evaluate_layer(conv_layer, "dla", 32, 99)
        weighted = resolve_objective("weighted:latency=0.5,energy=0.5")
        assert report.objective(weighted) == weighted.evaluate(report)
        assert report.objective("area") == report.area_um2

    def test_multi_rejects_nesting_and_empty(self):
        with pytest.raises(ValueError):
            MultiObjective([])
        with pytest.raises(ValueError, match="nest"):
            MultiObjective([resolve_objective("multi:latency,energy")])

    def test_penalty_rejects_multi_base(self):
        """A penalty over a multi base would silently collapse the
        trade-off to its primary component; the supported shape is a
        multi of penalty-augmented components."""
        with pytest.raises(ValueError, match="multi"):
            PenaltyObjective(resolve_objective("multi:latency,energy"),
                             limit_on="area", limit=1e8)
        supported = MultiObjective([
            PenaltyObjective(resolve_objective("latency"), "area", 1e8),
            resolve_objective("energy"),
        ])
        assert supported.is_multi and len(supported.components) == 2


# ----------------------------------------------------------------------
# SearchSpec threading
# ----------------------------------------------------------------------
class TestSpecThreading:
    def test_instance_stored_as_json_spec(self):
        spec = SearchSpec(model="mobilenet_v2",
                          objective=resolve_objective(
                              "weighted:latency=0.5,energy=0.5"))
        assert spec.objective == {"kind": "weighted",
                                  "weights": {"latency": 0.5,
                                              "energy": 0.5}}
        assert SearchSpec.from_json(spec.to_json()) == spec

    def test_string_specs_round_trip_verbatim(self):
        for objective in ("latency", "multi:latency,energy",
                          "weighted:latency=0.5,edp=0.5"):
            spec = SearchSpec(model="mobilenet_v2", objective=objective)
            assert spec.objective == objective
            assert SearchSpec.from_json(spec.to_json()) == spec

    def test_invalid_objective_raises_valueerror(self):
        with pytest.raises(ValueError, match="objective"):
            SearchSpec(model="mobilenet_v2", objective="throughput")

    def test_resolved_objective(self):
        spec = SearchSpec(model="mobilenet_v2",
                          objective="multi:latency,area")
        assert resolve_objective(spec.objective).is_multi

    def test_specs_stay_hashable_with_dict_objectives(self):
        """Frozen specs are dedup keys; composite objective specs must
        not break that, and equal specs must hash equal."""
        weighted = {"kind": "weighted", "weights": {"latency": 1.0}}
        a = SearchSpec(model="mobilenet_v2", objective=weighted)
        b = SearchSpec(model="mobilenet_v2", objective=dict(weighted))
        assert a == b
        assert hash(a) == hash(b)
        assert len({a, b}) == 1
        plain = SearchSpec(model="mobilenet_v2")
        assert hash(plain) != hash(a)


# ----------------------------------------------------------------------
# Legacy bit-parity across every batchable method
# ----------------------------------------------------------------------
def _comparable(outcome) -> dict:
    data = search_result_to_dict(outcome.result)
    data.pop("wall_time_s", None)
    return data


@pytest.mark.parametrize("method", _batchable_names())
def test_registry_objectives_bit_identical_per_batchable_method(method):
    """Name vs instance vs re-parsed spec: one answer per method.

    The legacy string path and the resolved-objective path must agree on
    everything the result records -- costs, genomes, histories (which
    pin the RNG streams), evaluation counts.
    """
    info = repro.get_method(method)
    budget, finetune = (6, 3) if info.kind == "two-stage" else (30, None)
    objective = "edp"
    reference = None
    for form in (objective,
                 resolve_objective(objective),
                 objective_spec(resolve_objective(objective))):
        spec = SearchSpec(model="mobilenet_v2", method=method,
                          objective=form, budget=budget, finetune=finetune,
                          seed=7, layer_slice=4)
        observed = _comparable(SearchSession(spec).run())
        if reference is None:
            reference = observed
        else:
            assert observed == reference, (
                f"{method}: objective form {form!r} diverged")


@pytest.mark.parametrize("objective", LEGACY)
def test_population_matches_scalar_path_for_every_legacy_name(
        cost_model, tiny_model, objective):
    """evaluate_population stays bit-identical to evaluate_genome under
    resolved objectives (the pre-refactor parity, re-proven on the new
    code path)."""
    from repro.core.constraints import platform_constraint
    from repro.core.evaluator import DesignPointEvaluator
    from repro.env.spaces import ActionSpace

    space = ActionSpace.build("dla")
    constraint = platform_constraint(tiny_model, "dla", "area", "cloud",
                                     cost_model, space)
    evaluator = DesignPointEvaluator(tiny_model, objective, constraint,
                                     cost_model, space, dataflow="dla")
    rng = np.random.default_rng(5)
    genomes = [[int(g) for g in rng.integers(space.num_levels,
                                             size=evaluator.genome_length)]
               for _ in range(16)]
    batched = evaluator.evaluate_population(genomes)
    for genome, got in zip(genomes, batched):
        want = evaluator.evaluate_genome(genome)
        assert got.cost == want.cost
        assert got.feasible == want.feasible
        assert got.used == want.used


@pytest.mark.parametrize("objective", [
    "area", "weighted:latency=0.5,energy=0.5",
    {"kind": "penalty", "base": "latency", "limit_on": "area",
     "limit": 1e9, "weight": 0.001},
])
def test_population_matches_scalar_path_for_new_objectives(
        cost_model, tiny_model, objective):
    """The batched kernel and the scalar path agree on the *new*
    objective kinds too (same totals, same elementwise arithmetic)."""
    from repro.core.constraints import platform_constraint
    from repro.core.evaluator import DesignPointEvaluator
    from repro.env.spaces import ActionSpace

    space = ActionSpace.build("dla")
    constraint = platform_constraint(tiny_model, "dla", "area", "cloud",
                                     cost_model, space)
    evaluator = DesignPointEvaluator(tiny_model, objective, constraint,
                                     cost_model, space, dataflow="dla")
    rng = np.random.default_rng(6)
    genomes = [[int(g) for g in rng.integers(space.num_levels,
                                             size=evaluator.genome_length)]
               for _ in range(12)]
    batched = evaluator.evaluate_population(genomes)
    for genome, got in zip(genomes, batched):
        want = evaluator.evaluate_genome(genome)
        assert got.cost == want.cost
        assert got.feasible == want.feasible


def test_env_rewards_identical_for_name_and_instance(cost_model,
                                                     mobilenet_slice):
    """The environment's reward stream is the same whether the objective
    arrives as a string or a resolved instance."""
    from repro.experiments.tasks import TaskSpec

    def run(objective):
        task = TaskSpec(model=mobilenet_slice, objective=objective,
                        platform="cloud")
        env = task.make_env(cost_model)
        env.reset()
        rewards = []
        rng = np.random.default_rng(3)
        done = False
        while not done:
            action = (int(rng.integers(env.space.num_levels)),
                      int(rng.integers(env.space.num_levels)))
            _, reward, done, _ = env.step(action)
            rewards.append(reward)
        return rewards

    assert run("energy") == run(resolve_objective("energy"))


def test_weighted_objective_session_runs_and_serializes(tmp_path):
    outcome = repro.explore(model="mobilenet_v2", method="random",
                            objective="weighted:latency=0.7,energy=0.3",
                            budget=40, seed=0, layer_slice=4)
    assert outcome.feasible
    path = tmp_path / "weighted.json"
    outcome.save(path)
    loaded = repro.SessionResult.load(path)
    assert loaded.spec == outcome.spec
    assert loaded.best_cost == outcome.best_cost


# ----------------------------------------------------------------------
# Scenario presets (battery-life / sla)
# ----------------------------------------------------------------------
class TestScenarioPresets:
    def test_registered_and_resolvable(self):
        names = list_objectives()
        assert "battery-life" in names and "sla" in names

    @pytest.mark.parametrize("name, base, limit_on", [
        ("battery-life", "energy", "area"),
        ("sla", "latency", "power"),
    ])
    def test_name_is_the_spec_and_roundtrips(self, name, base, limit_on):
        objective = resolve_objective(name)
        assert objective.spec() == name
        assert objective.name == name
        assert objective.base.name == base
        assert objective.limit_on == limit_on
        assert resolve_objective(objective.spec()) == objective

    @pytest.mark.parametrize("name", ["battery-life", "sla"])
    def test_evaluates_as_documented_penalty(self, name):
        """The preset equals its explicit penalty construction, on both
        sides of the cap."""
        preset = resolve_objective(name)
        explicit = PenaltyObjective(
            base=ComponentObjective(preset.base.name),
            limit_on=preset.limit_on, limit=preset.limit,
            weight=preset.weight)
        below = CostTotals(1.0e6, 2.0e5, preset.limit * 0.5,
                           preset.limit * 0.5)
        above = CostTotals(1.0e6, 2.0e5, preset.limit * 3.0,
                           preset.limit * 3.0)
        for totals in (below, above):
            assert preset.evaluate(totals) == explicit.evaluate(totals)
        assert preset.evaluate(above) > preset.evaluate(below)

    def test_custom_caps_serialize_as_penalty_dicts(self):
        from repro.objectives import BatteryLifeObjective, SlaObjective

        custom = BatteryLifeObjective(limit=2.0e7)
        spec = custom.spec()
        assert isinstance(spec, dict) and spec["kind"] == "penalty"
        assert resolve_objective(spec).evaluate(
            CostTotals(1.0, 1.0, 3.0e7, 1.0)) \
            == custom.evaluate(CostTotals(1.0, 1.0, 3.0e7, 1.0))
        assert SlaObjective(weight=2.0).spec()["weight"] == 2.0

    @pytest.mark.parametrize("name", ["battery-life", "sla"])
    def test_search_spec_roundtrip(self, name):
        spec = SearchSpec(model="mobilenet_v2", objective=name)
        restored = SearchSpec.from_json(spec.to_json())
        assert restored == spec
        assert resolve_objective(restored.objective) \
            == resolve_objective(name)

    def test_session_runs_and_labels(self, tmp_path):
        outcome = repro.explore(model="mobilenet_v2", method="random",
                                objective="battery-life", budget=40,
                                seed=0, layer_slice=4)
        assert outcome.feasible
        assert "battery-life" in outcome.summary()
        path = tmp_path / "battery.json"
        outcome.save(path)
        loaded = repro.SessionResult.load(path)
        assert loaded.spec == outcome.spec
        assert loaded.best_cost == outcome.best_cost
        # the penalty actually bites above the cap: a known over-cap
        # design scores strictly worse than its bare energy component
        preset = resolve_objective("battery-life")
        over_cap = CostTotals(1.0e6, 2.0e5, preset.limit * 2.0, 1.0e3)
        assert preset.evaluate(over_cap) \
            == over_cap.energy_nj + preset.weight * preset.limit
