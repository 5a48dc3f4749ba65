"""Tests for the HW-assignment environment: rewards, penalties, budgets."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.constraints import (
    PlatformConstraint,
    ResourceConstraint,
    platform_constraint,
)
from repro.core.evaluator import DesignPointEvaluator
from repro.costmodel import DEFAULT_HW, BatchedCostModel, CostModel
from repro.costmodel.batched import LadderTable
from repro.costmodel.estimator import area_um2
from repro.env import ActionSpace, HWAssignmentEnv
from repro.models import get_model


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
        done = False
        while not done:
            _, _, done, info = env.step((3, 3, 2))
        assignment = info["episode"].assignments[0]
        assert len(assignment) == 3
        assert assignment[2] == space_mix.dataflows[2]

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


def _drive_scalar(env, actions):
    """One episode through ``step``: (observations, rewards, episode)."""
    observations = [env.reset()]
    rewards = []
    for action in actions:
        observation, reward, done, info = env.step(action)
        observations.append(observation)
        rewards.append(reward)
        if done:
            return observations, rewards, info["episode"]
    raise AssertionError("episode did not finish")


def _drive_planned(env, actions):
    """The same episode through ``begin_plan``/``step``/``commit``."""
    observations = [env.reset()]
    plan = env.begin_plan()
    for action in actions:
        observation, done = plan.step(action)
        observations.append(observation)
        if done:
            rewards, episode = plan.commit()
            return observations, rewards, episode
    raise AssertionError("episode did not finish")


def _assert_twins_agree(scalar_env, planned_env, episodes):
    for actions in episodes:
        want = _drive_scalar(scalar_env, actions)
        got = _drive_planned(planned_env, actions)
        assert len(got[0]) == len(want[0])
        for a, b in zip(got[0], want[0]):
            assert np.array_equal(a, b)
        assert got[1] == want[1]
        assert got[2] == want[2]
        assert planned_env.p_min == scalar_env.p_min
        assert planned_env.evaluations == scalar_env.evaluations
        assert planned_env.episodes == scalar_env.episodes
        assert planned_env.best == scalar_env.best


_PLAN_LAYERS = get_model("mobilenet_v2")[:8]


@st.composite
def _planned_task(draw):
    """A plannable env spec plus action sequences that often violate
    the cap mid-episode."""
    mix = draw(st.booleans())
    space = ActionSpace.build("dla", mix=mix)
    heads = space.head_sizes
    action = st.tuples(*[st.integers(0, size - 1) for size in heads])
    episodes = draw(st.lists(
        st.lists(action, min_size=len(_PLAN_LAYERS),
                 max_size=len(_PLAN_LAYERS)),
        min_size=1, max_size=5))
    # Caps are fractions of what the top action on every layer uses.
    top_pes = space.pe_levels[-1] * len(_PLAN_LAYERS)
    slack = st.floats(0.05, 1.2)
    if draw(st.booleans()):
        constraint = ResourceConstraint(
            max_pes=int(draw(slack) * top_pes),
            max_l1_bytes=int(draw(slack) * top_pes * space.buf_levels[-1]))
    else:
        top = area_um2(DEFAULT_HW, space.pe_levels[-1],
                       space.buf_levels[-1])
        constraint = PlatformConstraint(
            kind="area", budget=draw(slack) * top * len(_PLAN_LAYERS))
    options = dict(
        objective=draw(st.sampled_from(["latency", "energy", "edp"])),
        reward_shaping=draw(st.sampled_from(["pmin", "raw"])),
        penalty_mode=draw(st.sampled_from(["accumulated", "constant"])))
    return space, constraint, options, episodes


class TestAccumulatedPenalty:
    def test_penalty_folds_rewards_left_to_right_on_both_paths(self,
                                                               cost_model):
        """Equation 2's penalty adds the episode's rewards left to right
        from 0.0, as Python's ``sum()`` did before 3.12 compensated it,
        on scalar steps and planned commits alike.  The checked episode
        is one where a compensated sum rounds differently."""
        from repro.experiments.tasks import TaskSpec

        task = TaskSpec(model="mobilenet_v2", layer_slice=16,
                        objective="energy")
        scalar_env, planned_env = (task.make_env(cost_model)
                                   for _ in range(2))
        rng = np.random.default_rng(0)
        for _ in range(40):
            actions = rng.integers(scalar_env.space.head_sizes,
                                   size=(16, 2)).tolist()
            _, rewards, episode = _drive_scalar(scalar_env, actions)
            _, planned, _ = _drive_planned(planned_env, actions)
            assert planned == rewards
            folded = 0.0
            for reward in rewards[:-1]:
                folded += reward
            if not episode.feasible and math.fsum(rewards[:-1]) != folded:
                break
        else:
            pytest.fail("no violating episode whose compensated reward "
                        "sum differs from the left-to-right fold")
        assert rewards[-1] == planned[-1] == -folded


class TestPlannedEpisodesUnderCaps:
    @settings(max_examples=60, deadline=None)
    @given(task=_planned_task())
    def test_planned_episodes_match_scalar_steps(self, cost_model, task):
        """Twin envs driven with the same action sequences -- one
        through planned episodes, one step by step -- agree on every
        observation, reward, ``p_min``, episode cost, evaluation count
        and :class:`EpisodeResult`, under FPGA resource caps and area
        budgets, fixed dataflow and MIX, violations included."""
        space, constraint, options, episodes = task

        def make():
            return HWAssignmentEnv(
                _PLAN_LAYERS, space, options["objective"], constraint,
                cost_model, dataflow=None if space.is_mix else "dla",
                reward_shaping=options["reward_shaping"],
                penalty_mode=options["penalty_mode"])

        scalar_env, planned_env = make(), make()
        assert planned_env.plan_supported()
        _assert_twins_agree(scalar_env, planned_env, episodes)

    def test_resource_cap_violations_happen_mid_episode(self, cost_model,
                                                        space_mix):
        """A cap the third layer breaks ends both twins on that layer."""
        constraint = ResourceConstraint(max_pes=20, max_l1_bytes=10 ** 9)
        envs = [HWAssignmentEnv(_PLAN_LAYERS, space_mix, "latency",
                                constraint, cost_model) for _ in range(2)]
        actions = [(3, 4, 0), (3, 2, 1), (5, 0, 2)] + [(0, 0, 0)] * 5
        _assert_twins_agree(*envs, [actions, actions])
        assert envs[1].best is None
        assert envs[1].evaluations == 6

    @pytest.mark.parametrize("mix", [False, True])
    def test_oversized_ladder_commits_through_the_kernel(self, mix,
                                                         monkeypatch):
        """A 64-level ladder on full MobileNet-V2 is too big to
        tabulate: commits score each episode with one kernel call of
        its own rows, bit-identical to scalar steps, and the ladder is
        sized once, not on every commit."""
        cost_model = CostModel()
        layers = get_model("mobilenet_v2")
        space = ActionSpace.build("dla", num_levels=64, max_pes=256,
                                  mix=mix)
        constraint = ResourceConstraint(max_pes=2000, max_l1_bytes=10 ** 9)
        envs = [HWAssignmentEnv(layers, space, "latency", constraint,
                                cost_model,
                                dataflow=None if mix else "dla")
                for _ in range(2)]
        batch_rows = []
        evaluate = BatchedCostModel.evaluate

        def spy(self, table, layer_idx, *args):
            batch_rows.append(len(layer_idx))
            return evaluate(self, table, layer_idx, *args)

        monkeypatch.setattr(BatchedCostModel, "evaluate", spy)
        builds = []
        build = LadderTable.build

        def counting_build(*args):
            builds.append(build(*args))
            return builds[-1]

        monkeypatch.setattr(LadderTable, "build", counting_build)
        rng = np.random.default_rng(9)
        episodes = [rng.integers(space.head_sizes,
                                 size=(len(layers),
                                       len(space.head_sizes))).tolist()
                    for _ in range(4)]
        _assert_twins_agree(*envs, episodes)
        assert batch_rows and max(batch_rows) <= len(layers)
        assert builds == [None]
