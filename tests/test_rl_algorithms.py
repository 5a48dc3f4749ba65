"""Behavioural tests for every RL search algorithm.

Each agent must run, respect the epoch budget, report memory, and -- on a
small loose-constraint task -- find a feasible solution.  REINFORCE
additionally gets learning-progress tests (it is the paper's agent).
"""

import numpy as np
import pytest

from repro.core.constraints import platform_constraint
from repro.env import ActionSpace, HWAssignmentEnv
from repro.rl import RL_ALGORITHMS, Reinforce
from repro.rl.offpolicy import continuous_to_levels
from repro.rl.policies import MLPPolicy, RecurrentPolicy, build_policy


def make_env(cost_model, layers, platform="cloud", objective="latency"):
    space = ActionSpace.build("dla")
    constraint = platform_constraint(layers, "dla", "area", platform,
                                     cost_model, space)
    return HWAssignmentEnv(layers, space, objective, constraint, cost_model,
                           dataflow="dla")


class TestPolicies:
    def test_recurrent_policy_shapes(self):
        policy = RecurrentPolicy(10, (12, 12),
                                 rng=np.random.default_rng(0))
        from repro.nn import Tensor
        dists, state = policy(Tensor(np.zeros((1, 10))),
                              policy.initial_state())
        assert len(dists) == 2
        assert dists[0].probs.shape == (1, 12)

    def test_mlp_policy_shapes(self):
        policy = MLPPolicy(10, (12, 12, 3), rng=np.random.default_rng(0))
        from repro.nn import Tensor
        dists, state = policy(Tensor(np.zeros((1, 10))), None)
        assert len(dists) == 3
        assert state is None

    def test_build_policy_factory(self):
        assert isinstance(build_policy("rnn", 10, (12, 12)), RecurrentPolicy)
        assert isinstance(build_policy("mlp", 10, (12, 12)), MLPPolicy)
        with pytest.raises(ValueError):
            build_policy("transformer", 10, (12, 12))


class TestReinforce:
    def test_finds_feasible_and_improves(self, cost_model, mobilenet_slice):
        env = make_env(cost_model, mobilenet_slice, platform="iot")
        agent = Reinforce(seed=0)
        result = agent.search(env, 40)
        assert result.feasible
        assert len(result.history) == 40
        # Convergence trace is the best-so-far: non-increasing.
        finite = [v for v in result.history if v != float("inf")]
        assert all(b <= a for a, b in zip(finite, finite[1:]))

    def test_learning_beats_random_policy(self, cost_model,
                                          mobilenet_slice):
        env = make_env(cost_model, mobilenet_slice, platform="iot")
        agent = Reinforce(seed=0)
        result = agent.search(env, 80)
        # Compare against the same number of uniformly random episodes.
        rng = np.random.default_rng(0)
        random_env = make_env(cost_model, mobilenet_slice, platform="iot")
        best_random = None
        for _ in range(80):
            random_env.reset()
            done = False
            while not done:
                action = (rng.integers(12), rng.integers(12))
                _, _, done, info = random_env.step(action)
            episode = info["episode"]
            if episode.feasible and (best_random is None
                                     or episode.cost < best_random):
                best_random = episode.cost
        assert result.best_cost is not None
        assert best_random is None or result.best_cost <= best_random * 1.5

    def test_seed_reproducibility(self, cost_model, mobilenet_slice):
        results = []
        for _ in range(2):
            env = make_env(cost_model, mobilenet_slice)
            results.append(Reinforce(seed=7).search(env, 15).history)
        assert results[0] == results[1]

    def test_mlp_policy_variant(self, cost_model, mobilenet_slice):
        env = make_env(cost_model, mobilenet_slice)
        agent = Reinforce(policy="mlp", seed=0)
        result = agent.search(env, 20)
        assert result.feasible

    def test_rejects_zero_epochs(self, cost_model, mobilenet_slice):
        env = make_env(cost_model, mobilenet_slice)
        with pytest.raises(ValueError):
            Reinforce(seed=0).search(env, 0)

    def test_incremental_search_continues(self, cost_model,
                                          mobilenet_slice):
        env = make_env(cost_model, mobilenet_slice)
        agent = Reinforce(seed=0)
        first = agent.search(env, 10)
        second = agent.search(env, 10)
        # Policy persists across calls; best never regresses.
        assert second.best_cost <= first.best_cost

    def test_memory_reported(self, cost_model, mobilenet_slice):
        env = make_env(cost_model, mobilenet_slice)
        result = Reinforce(seed=0).search(env, 5)
        assert result.memory_bytes > 0


@pytest.mark.parametrize("name", sorted(RL_ALGORITHMS))
class TestAllAgents:
    def test_runs_and_finds_feasible(self, name, cost_model,
                                     mobilenet_slice):
        env = make_env(cost_model, mobilenet_slice, platform="cloud")
        agent = RL_ALGORITHMS[name](seed=0)
        result = agent.search(env, 25)
        assert result.algorithm == name
        assert len(result.history) == 25
        assert result.feasible, f"{name} found no feasible point"
        assert result.memory_bytes > 0
        assert result.evaluations > 0
        assert result.wall_time_s >= 0

    def test_epoch_budget_respected(self, name, cost_model,
                                    mobilenet_slice):
        env = make_env(cost_model, mobilenet_slice)
        agent = RL_ALGORITHMS[name](seed=0)
        result = agent.search(env, 8)
        assert result.episodes == 8


class TestOffPolicyMachinery:
    def test_continuous_to_levels_endpoints(self):
        assert continuous_to_levels(np.array([-1.0, 1.0]), (12, 12)) \
            == [0, 11]

    def test_continuous_to_levels_midpoint(self):
        assert continuous_to_levels(np.array([0.0]), (13,)) == [6]

    def test_continuous_to_levels_clips(self):
        assert continuous_to_levels(np.array([-5.0, 5.0]), (12, 12)) \
            == [0, 11]

    @pytest.mark.parametrize("name", ["ddpg", "td3", "sac"])
    def test_updates_actually_run(self, name, cost_model, mobilenet_slice):
        env = make_env(cost_model, mobilenet_slice)
        agent = RL_ALGORITHMS[name](seed=0, warmup_steps=16, batch_size=8)
        result = agent.search(env, 10)
        assert agent._total_steps > 16
        assert result.feasible


def test_reinforce_planned_episodes_match_scalar_stepping(monkeypatch):
    """The batched-epoch REINFORCE path (one cost call per episode at
    commit) is bit-identical to per-step scalar calls, including RNG
    consumption around mid-episode constraint violations."""
    import repro

    def run():
        return repro.explore(model="mobilenet_v2", method="confuciux",
                             layer_slice=5, platform="iot", seed=13,
                             budget=12, finetune=0).detail

    planned = run()
    # Without plan support REINFORCE steps every episode through the
    # scalar env.
    monkeypatch.setattr(HWAssignmentEnv, "plan_supported", lambda self: False)
    scalar = run()
    assert scalar.trace == planned.trace
    assert scalar.best_cost == planned.best_cost
    assert scalar.best_assignments == planned.best_assignments
    assert (scalar.global_result.evaluations
            == planned.global_result.evaluations)
