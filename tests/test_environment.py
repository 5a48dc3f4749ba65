"""Tests for the HW-assignment environment: rewards, penalties, budgets."""

import numpy as np
import pytest

from repro.core.constraints import (
    PlatformConstraint,
    ResourceConstraint,
    platform_constraint,
)
from repro.core.evaluator import DesignPointEvaluator
from repro.env import ActionSpace, HWAssignmentEnv


@pytest.fixture
def loose_env(cost_model, tiny_model, space_dla):
    constraint = platform_constraint(tiny_model, "dla", "area", "unlimited",
                                     cost_model, space_dla)
    return HWAssignmentEnv(tiny_model, space_dla, "latency", constraint,
                           cost_model, dataflow="dla")


@pytest.fixture
def tight_env(cost_model, tiny_model, space_dla):
    constraint = platform_constraint(tiny_model, "dla", "area", "iotx",
                                     cost_model, space_dla)
    return HWAssignmentEnv(tiny_model, space_dla, "latency", constraint,
                           cost_model, dataflow="dla")


class TestEpisodeMechanics:
    def test_reset_returns_observation(self, loose_env):
        obs = loose_env.reset()
        assert obs.shape == (10,)
        assert np.all(np.abs(obs) <= 1.0)

    def test_full_episode_steps_all_layers(self, loose_env):
        loose_env.reset()
        done = False
        steps = 0
        while not done:
            _, _, done, info = loose_env.step((3, 3))
            steps += 1
        assert steps == loose_env.num_steps
        assert info["episode"] is not None
        assert info["episode"].feasible

    def test_step_after_done_raises(self, loose_env):
        loose_env.reset()
        for _ in range(loose_env.num_steps):
            loose_env.step((0, 0))
        with pytest.raises(RuntimeError, match="finished"):
            loose_env.step((0, 0))

    def test_requires_dataflow(self, cost_model, tiny_model, space_dla):
        constraint = PlatformConstraint(kind="area", budget=1e12)
        with pytest.raises(ValueError, match="dataflow"):
            HWAssignmentEnv(tiny_model, space_dla, "latency", constraint,
                            cost_model)

    def test_rejects_empty_model(self, cost_model, space_dla):
        constraint = PlatformConstraint(kind="area", budget=1e12)
        with pytest.raises(ValueError, match="no layers"):
            HWAssignmentEnv([], space_dla, "latency", constraint,
                            cost_model, dataflow="dla")


class TestRewardShaping:
    def test_rewards_nonnegative_while_feasible(self, loose_env):
        loose_env.reset()
        done = False
        while not done:
            _, reward, done, info = loose_env.step((5, 5))
            if not info["violated"]:
                assert reward >= 0.0

    def test_pmin_tracked_across_episodes(self, loose_env):
        loose_env.reset()
        for _ in range(loose_env.num_steps):
            loose_env.step((0, 0))
        p_min_first = loose_env.p_min
        loose_env.reset()
        for _ in range(loose_env.num_steps):
            loose_env.step((11, 11))
        # P_min only falls (it is a global minimum of performance).
        assert loose_env.p_min <= p_min_first

    def test_better_action_gets_higher_reward(self, cost_model, tiny_model,
                                              space_dla):
        # After P_min is anchored by a slow episode, a fast config must
        # receive a strictly larger shaped reward than a slow one.
        constraint = PlatformConstraint(kind="area", budget=1e15)
        env = HWAssignmentEnv(tiny_model, space_dla, "latency", constraint,
                              cost_model, dataflow="dla")
        env.reset()
        _, slow_reward, _, _ = env.step((0, 0))
        env.reset()
        _, fast_reward, _, _ = env.step((11, 5))
        assert fast_reward > slow_reward

    def test_penalty_is_negated_accumulated_reward(self, tight_env):
        tight_env.reset()
        rewards = []
        done = False
        while not done:
            _, reward, done, info = tight_env.step((11, 11))
            rewards.append(reward)
        assert info["violated"]
        # Equation 2: the final reward is minus the sum of the previous.
        assert rewards[-1] == pytest.approx(-sum(rewards[:-1]))

    def test_violation_ends_episode_early(self, tight_env):
        tight_env.reset()
        _, _, done, info = tight_env.step((11, 11))
        assert done
        assert info["violated"]
        assert not info["episode"].feasible


class TestBudgetAccounting:
    def test_budget_left_decreases(self, loose_env):
        # Unlimited budget stays infinite.
        loose_env.reset()
        assert loose_env.budget_left() == float("inf")

    def test_area_budget_matches_evaluator(self, cost_model, tiny_model,
                                           space_dla):
        constraint = platform_constraint(tiny_model, "dla", "area", "cloud",
                                         cost_model, space_dla)
        env = HWAssignmentEnv(tiny_model, space_dla, "latency", constraint,
                              cost_model, dataflow="dla")
        env.reset()
        done = False
        while not done:
            _, _, done, info = env.step((2, 2))
        episode = info["episode"]
        evaluator = DesignPointEvaluator(tiny_model, "latency", constraint,
                                         cost_model, space_dla,
                                         dataflow="dla")
        outcome = evaluator.evaluate_genome(episode.genome)
        assert episode.cost == pytest.approx(outcome.cost)
        assert episode.used == pytest.approx(outcome.used)
        assert episode.feasible == outcome.feasible

    def test_resource_constraint_budget(self, cost_model, tiny_model,
                                        space_dla):
        constraint = ResourceConstraint(max_pes=20, max_l1_bytes=10_000)
        env = HWAssignmentEnv(tiny_model, space_dla, "latency", constraint,
                              cost_model, dataflow="dla")
        env.reset()
        env.step((3, 0))  # 8 PEs
        assert env.budget_left() == 12
        _, _, done, info = env.step((5, 0))  # +16 PEs > 20
        assert done and info["violated"]


class TestBestTracking:
    def test_best_keeps_lowest_cost(self, loose_env):
        for action in ((0, 0), (5, 5), (2, 2)):
            loose_env.reset()
            done = False
            while not done:
                _, _, done, info = loose_env.step(action)
        best = loose_env.best
        assert best is not None
        assert best.feasible
        # Re-run each uniform config to confirm the min was kept.
        costs = []
        for action in ((0, 0), (5, 5), (2, 2)):
            loose_env.reset()
            done = False
            while not done:
                _, _, done, info = loose_env.step(action)
            costs.append(info["episode"].cost)
        assert best.cost == pytest.approx(min(costs))

    def test_infeasible_never_becomes_best(self, tight_env):
        tight_env.reset()
        done = False
        while not done:
            _, _, done, _ = tight_env.step((11, 11))
        assert tight_env.best is None

    def test_episode_genome_roundtrip(self, loose_env):
        loose_env.reset()
        done = False
        while not done:
            _, _, done, info = loose_env.step((4, 2))
        episode = info["episode"]
        assert episode.genome == [4, 2] * loose_env.num_steps
        assert episode.assignments[0] == (12, 39)


class TestMixEnvironment:
    def test_mix_actions_carry_style(self, cost_model, tiny_model,
                                     space_mix):
        constraint = PlatformConstraint(kind="area", budget=1e15)
        env = HWAssignmentEnv(tiny_model, space_mix, "latency", constraint,
                              cost_model)
        env.reset()
        _, _, _, info = env.step((3, 3, 2))
        assert len(env._episode_assignments[0]) == 3

    def test_mix_episode_completes(self, cost_model, tiny_model, space_mix):
        constraint = PlatformConstraint(kind="area", budget=1e15)
        env = HWAssignmentEnv(tiny_model, space_mix, "latency", constraint,
                              cost_model)
        env.reset()
        done = False
        step = 0
        while not done:
            _, _, done, info = env.step((3, 3, step % 3))
            step += 1
        assert info["episode"].feasible


class TestObjectives:
    @pytest.mark.parametrize("objective", ["latency", "energy", "edp"])
    def test_all_objectives_run(self, cost_model, tiny_model, space_dla,
                                objective):
        constraint = PlatformConstraint(kind="area", budget=1e15)
        env = HWAssignmentEnv(tiny_model, space_dla, objective, constraint,
                              cost_model, dataflow="dla")
        env.reset()
        done = False
        while not done:
            _, _, done, info = env.step((3, 3))
        assert info["episode"].cost > 0


class TestEpisodePlans:
    def test_power_constrained_env_stays_on_scalar_path(self, cost_model):
        """Power budgets need full per-layer reports to detect
        violations, so planned episodes must refuse rather than silently
        diverge."""
        from repro.search import SearchSpec

        task = SearchSpec(model="mobilenet_v2", constraint_kind="power",
                          layer_slice=4).task()
        env = task.make_env(cost_model, task.constraint(cost_model))
        assert not env.plan_supported()
        with pytest.raises(RuntimeError, match="power"):
            env.begin_plan()
