"""Lockstep-wave rollouts: the envs=1 bit-parity matrix and the envs knob.

The contract (API.md "``envs`` -- lockstep episode waves"):

* ``envs=1`` -- driving a2c, acktr or ppo2 (the agents with a
  lockstep-wave path) through a one-env
  :class:`~repro.env.vector.VectorHWAssignmentEnv` produces results
  bit-identical to scalar stepping (same costs, same histories, same
  RNG stream, same counters); and a session run at ``envs=1`` equals the
  scalar-stepping session for every episodic method.
* ``envs>1`` -- a new scenario: reproducible for a fixed (seed, envs)
  pair, spending exactly the episode budget, reachable through
  ``SearchSpec.envs`` / ``--envs`` and observable through the standard
  callback protocol.  The other episodic and the two-stage methods
  refuse it (``tests/test_search_session.py``).
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.costmodel import CostModel
from repro.env.vector import VectorHWAssignmentEnv
from repro.experiments.runner import compare_methods
from repro.experiments.tasks import TaskSpec
from repro.search import (
    EarlyStopping,
    SearchSession,
    SearchSpec,
    method_names,
)
from repro.search.registry import KIND_EPISODIC

EPISODIC_METHODS = method_names(kind=KIND_EPISODIC)
WAVE_METHODS = ("a2c", "acktr", "ppo2")
BUDGET = 6


@pytest.fixture(scope="module")
def cost_model():
    return CostModel()


@pytest.fixture(scope="module")
def task():
    return TaskSpec(model="mobilenet_v2", layer_slice=5)


@pytest.fixture(scope="module")
def constraint(task, cost_model):
    return task.constraint(cost_model)


def assert_results_equal(a, b):
    """SearchResult equality minus wall-clock."""
    assert a.algorithm == b.algorithm
    assert a.best_cost == b.best_cost
    assert a.history == b.history
    assert a.evaluations == b.evaluations
    assert a.episodes == b.episodes
    assert a.best_genome == b.best_genome
    assert a.best_assignments == b.best_assignments
    assert a.cache_hits == b.cache_hits
    assert a.memory_bytes == b.memory_bytes


class TestEnvsOneBitParity:
    @pytest.mark.parametrize("name, layers, platform, budget", [
        *(pytest.param(name, 5, "iot", BUDGET, id=name)
          for name in WAVE_METHODS),
        # A longer run: 48 updates on 20-layer episodes, cloud tier.
        pytest.param("a2c", 20, "cloud", 48, id="a2c-cloud-20x48"),
    ])
    def test_vector_env_matches_scalar_stepping(self, name, layers,
                                                platform, budget,
                                                cost_model):
        """The full matrix: every agent with a wave path, one-env waves
        vs the scalar stepping loop, bit-identical."""
        from repro.search.registry import get_method

        task = TaskSpec(model="mobilenet_v2", layer_slice=layers,
                        platform=platform)
        constraint = task.constraint(cost_model)
        info = get_method(name)
        scalar_method = info.factory(seed=0)
        scalar_result = scalar_method.search(
            task.make_env(cost_model, constraint), budget)
        vector_method = info.factory(seed=0)
        vector_result = vector_method.search(
            VectorHWAssignmentEnv(task.make_env(cost_model, constraint), 1),
            budget)
        assert_results_equal(scalar_result, vector_result)

    @pytest.mark.parametrize("name", EPISODIC_METHODS)
    def test_session_envs_one_equals_scalar_session(self, name):
        """SessionResult equality: an explicit ``envs=1`` run equals the
        default (scalar-stepping) session for every episodic method."""
        spec = SearchSpec(model="mobilenet_v2", method=name, budget=BUDGET,
                          seed=0, layer_slice=5)
        scalar = SearchSession(spec).run()
        vector = SearchSession(dataclasses.replace(spec, envs=1)).run()
        assert_results_equal(scalar.result, vector.result)
        assert vector.provenance["envs"] == 1
        assert not vector.stopped_early

    def test_mix_and_power_parity(self, cost_model):
        """The matrix holds off the default task too: MIX spaces and the
        power constraint (which planned episodes cannot batch)."""
        from repro.search.registry import get_method

        for kwargs in ({"mix": True}, {"constraint_kind": "power"}):
            task = TaskSpec(model="mobilenet_v2", layer_slice=4, **kwargs)
            constraint = task.constraint(cost_model)
            for name in WAVE_METHODS:
                info = get_method(name)
                scalar = info.factory(seed=1).search(
                    task.make_env(cost_model, constraint), 4)
                vector = info.factory(seed=1).search(
                    VectorHWAssignmentEnv(
                        task.make_env(cost_model, constraint), 1), 4)
                assert_results_equal(scalar, vector)


class TestEnvsGreaterThanOne:
    @pytest.mark.parametrize("name", WAVE_METHODS)
    def test_reproducible_per_seed_and_envs(self, name, task, cost_model,
                                            constraint):
        from repro.search.registry import get_method

        info = get_method(name)
        runs = []
        for _ in range(2):
            method = info.factory(seed=3)
            venv = VectorHWAssignmentEnv(
                task.make_env(cost_model, constraint), 4)
            runs.append(method.search(venv, 10))
        assert_results_equal(*runs)

    @pytest.mark.parametrize("envs", [2, 3, 8])
    def test_budget_spent_exactly(self, envs, task, cost_model,
                                  constraint):
        """Waves spend exactly the episode budget even when it does not
        divide by ``envs`` (the last wave set shrinks)."""
        from repro.search.registry import get_method

        method = get_method("a2c").factory(seed=0)
        venv = VectorHWAssignmentEnv(
            task.make_env(cost_model, constraint), envs)
        result = method.search(venv, 7)
        assert result.episodes == 7
        assert len(result.history) == 7

    def test_session_envs_resolution(self):
        spec = SearchSpec(model="mobilenet_v2", budget=8)
        assert spec.resolved_envs() == 1
        assert dataclasses.replace(spec, envs=2).resolved_envs() == 2
        with pytest.raises(ValueError):
            SearchSpec(model="mobilenet_v2", envs=0)

    def test_spec_roundtrip_carries_envs(self):
        spec = SearchSpec(model="mobilenet_v2", method="ppo2", envs=8)
        assert SearchSpec.from_json(spec.to_json()) == spec
        assert SearchSpec.from_json(spec.to_json()).resolved_envs() == 8

    def test_session_run_with_envs(self):
        spec = SearchSpec(model="mobilenet_v2", method="ppo2", budget=10,
                          seed=0, layer_slice=5, envs=4)
        first = SearchSession(spec).run()
        second = SearchSession(spec).run()
        assert_results_equal(first.result, second.result)
        assert first.provenance["envs"] == 4
        assert first.result.episodes == 10

    def test_observers_see_vector_episodes(self):
        """Callbacks fire once per finished episode inside waves, and
        early stopping unwinds gracefully at a wave-set boundary."""
        from repro.search.callbacks import SearchObserver

        class Recorder(SearchObserver):
            def __init__(self):
                super().__init__()
                self.steps = 0

            def on_step(self, step, cost, best_cost):
                self.steps = step
                return False

        recorder = Recorder()
        spec = SearchSpec(model="mobilenet_v2", method="a2c", budget=9,
                          seed=0, layer_slice=5, envs=3)
        outcome = SearchSession(spec).run(callbacks=[recorder])
        assert recorder.steps == 9
        assert outcome.result.episodes == 9

        stopped = SearchSession(spec).run(
            callbacks=[EarlyStopping(patience=2)])
        assert stopped.stopped_early
        assert stopped.result.extra.get("stopped_early") is True

    def test_compare_methods_envs(self, task, cost_model):
        results = compare_methods(task, ["a2c"], epochs=8, seed=0,
                                  cost_model=cost_model, envs=4)
        direct = compare_methods(task, ["a2c"], epochs=8, seed=0,
                                 cost_model=cost_model, envs=4)
        assert_results_equal(results["a2c"], direct["a2c"])
        assert results["a2c"].episodes == 8

    def test_genome_methods_ignore_envs(self):
        spec = SearchSpec(model="mobilenet_v2", method="random", budget=40,
                          seed=0, layer_slice=4)
        scalar = SearchSession(spec).run()
        vector = SearchSession(dataclasses.replace(spec, envs=8)).run()
        assert_results_equal(scalar.result, vector.result)


class TestTwoStageEnvs:
    """A two-stage method at ``envs=1`` runs its global stage by scalar
    stepping; ``envs>1`` is refused (its REINFORCE agent has no wave
    path)."""

    def _spec(self, **overrides) -> SearchSpec:
        base = dict(model="mobilenet_v2", method="confuciux", budget=6,
                    seed=0, layer_slice=5, finetune=2)
        base.update(overrides)
        return SearchSpec(**base)

    def test_envs_one_equals_default_two_stage(self):
        scalar = SearchSession(self._spec()).run()
        vector = SearchSession(self._spec(envs=1)).run()
        assert_results_equal(scalar.result, vector.result)
        assert vector.provenance["envs"] == 1
