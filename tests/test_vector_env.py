"""VectorHWAssignmentEnv: lockstep waves vs scalar stepping.

Three layers of guarantees:

* **Protocol** -- reset/step shapes, masked done-handling, validation.
* **Single-env bit-parity** -- driving one lockstep episode produces the
  exact observation / reward / done / p_min stream of
  ``HWAssignmentEnv.step`` (the agent-level matrix lives in
  ``test_rl_vector_parity.py``).
* **Replay property** -- for *any* interleaving of violating episodes
  (hypothesis-generated action matrices, every constraint kind), each
  finished episode's bookkeeping (cost, used budget, termination step,
  feasibility, assignments) matches a per-episode scalar replay, and the
  env counters add up.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.constraints import PlatformConstraint, ResourceConstraint
from repro.costmodel import CostModel
from repro.env.environment import HWAssignmentEnv
from repro.env.spaces import ActionSpace
from repro.env.vector import VectorHWAssignmentEnv
from repro.models import get_model


@pytest.fixture(scope="module")
def cost_model():
    return CostModel()


@pytest.fixture(scope="module")
def layers():
    return get_model("mobilenet_v2")[:4]


@pytest.fixture(scope="module")
def space():
    return ActionSpace.build("dla")


def make_envs(layers, space, cost_model, num_envs, constraint=None,
              mix=False, **env_kwargs):
    if constraint is None:
        constraint = PlatformConstraint(kind="area", budget=6.0e6,
                                        platform="custom")
    if mix:
        space = ActionSpace.build(mix=True)
        env_kwargs.setdefault("dataflow", None)
    else:
        env_kwargs.setdefault("dataflow", "dla")
    env = HWAssignmentEnv(layers, space, "latency", constraint, cost_model,
                          **env_kwargs)
    return env, VectorHWAssignmentEnv(env, num_envs)


class TestProtocol:
    def test_reset_shape_and_live(self, layers, space, cost_model):
        _, venv = make_envs(layers, space, cost_model, 3)
        observations = venv.reset()
        assert observations.shape == (3, 10)
        assert list(venv.live_indices) == [0, 1, 2]
        assert not venv.all_done
        # every episode starts from the scalar first observation
        scalar_first = venv.env.encoder.encode(layers[0], 0, None)
        assert np.array_equal(observations,
                              np.tile(scalar_first, (3, 1)))

    def test_partial_wave_set(self, layers, space, cost_model):
        _, venv = make_envs(layers, space, cost_model, 8)
        observations = venv.reset(3)
        assert observations.shape == (3, 10)
        assert venv.num_active == 3

    def test_reset_bounds(self, layers, space, cost_model):
        _, venv = make_envs(layers, space, cost_model, 2)
        with pytest.raises(ValueError):
            venv.reset(0)
        with pytest.raises(ValueError):
            venv.reset(3)

    def test_step_before_reset_raises(self, layers, space, cost_model):
        _, venv = make_envs(layers, space, cost_model, 2)
        with pytest.raises(RuntimeError):
            venv.step(np.zeros((2, 2), dtype=np.int64))

    def test_step_shape_validation(self, layers, space, cost_model):
        _, venv = make_envs(layers, space, cost_model, 2)
        venv.reset()
        with pytest.raises(ValueError):
            venv.step(np.zeros((3, 2), dtype=np.int64))
        with pytest.raises(ValueError):
            venv.step(np.full((2, 2), 99, dtype=np.int64))

    def test_wrapping_requirements(self, layers, space, cost_model):
        env, venv = make_envs(layers, space, cost_model, 2)
        with pytest.raises(ValueError):
            VectorHWAssignmentEnv(env, 0)
        with pytest.raises(TypeError):
            VectorHWAssignmentEnv(venv, 2)

    def test_done_rows_are_masked_out(self, layers, space, cost_model):
        # One episode picks the maximum pair (violates the tight budget
        # immediately), the other the minimum pair (survives).
        tight = PlatformConstraint(kind="area", budget=1.0e6,
                                   platform="custom")
        _, venv = make_envs(layers, space, cost_model, 2, constraint=tight)
        venv.reset()
        top = space.num_levels - 1
        _, _, dones, info = venv.step(np.array([[top, top], [0, 0]]))
        assert list(dones) == [True, False]
        assert info["episodes"][0] is not None
        assert not info["episodes"][0].feasible
        assert info["episodes"][1] is None
        assert list(venv.live_indices) == [1]
        # subsequent waves only accept actions for the live episode
        observations, rewards, dones, _ = venv.step(np.array([[0, 0]]))
        assert observations.shape == (1, 10)
        assert rewards.shape == (1,)

    def test_counters_shared_with_scalar_env(self, layers, space,
                                             cost_model):
        env, venv = make_envs(layers, space, cost_model, 2)
        venv.reset()
        venv.step(np.zeros((2, 2), dtype=np.int64))
        assert env.evaluations == 2
        assert venv.evaluations == 2
        assert venv.episodes == env.episodes


class TestSingleEnvBitParity:
    @pytest.mark.parametrize("mix", [False, True])
    @pytest.mark.parametrize("shaping", ["pmin", "raw"])
    def test_stream_matches_scalar(self, layers, space, cost_model, mix,
                                   shaping):
        """Observations, rewards, dones, p_min and the episode results of
        one lockstep episode equal the scalar stream exactly."""
        env, venv = make_envs(layers, space, cost_model, 1, mix=mix,
                              reward_shaping=shaping)
        scalar_env, _ = make_envs(layers, space, cost_model, 1, mix=mix,
                                  reward_shaping=shaping)
        head_sizes = venv.space.head_sizes
        rng = np.random.default_rng(5)
        for _ in range(4):  # several episodes: p_min carries across
            vec_obs = venv.reset(1)
            scalar_obs = scalar_env.reset()
            assert np.array_equal(vec_obs[0], scalar_obs)
            done = False
            while not done:
                action = [int(rng.integers(0, min(size, 4)))
                          for size in head_sizes]
                vec_obs, vec_rew, vec_done, vec_info = venv.step(
                    np.array([action]))
                scalar_obs, scalar_rew, done, scalar_info = \
                    scalar_env.step(action)
                assert np.array_equal(vec_obs[0], scalar_obs)
                assert float(vec_rew[0]) == scalar_rew
                assert bool(vec_done[0]) == done
                assert env.p_min == scalar_env.p_min
                if done:
                    vec_episode = vec_info["episodes"][0]
                    scalar_episode = scalar_info["episode"]
                    assert vec_episode.cost == scalar_episode.cost
                    assert vec_episode.used == scalar_episode.used
                    assert vec_episode.feasible == scalar_episode.feasible
                    assert vec_episode.actions == scalar_episode.actions
                    assert vec_episode.assignments \
                        == scalar_episode.assignments
                    assert vec_episode.genome == scalar_episode.genome
        assert venv.evaluations == scalar_env.evaluations
        assert venv.episodes == scalar_env.episodes
        assert (venv.best.cost if venv.best else None) \
            == (scalar_env.best.cost if scalar_env.best else None)

    def test_constant_penalty_mode(self, layers, space, cost_model):
        tight = PlatformConstraint(kind="area", budget=1.0e6,
                                   platform="custom")
        env, venv = make_envs(layers, space, cost_model, 1,
                              constraint=tight,
                              penalty_mode="constant",
                              constant_penalty=-7.0)
        venv.reset(1)
        top = space.num_levels - 1
        _, rewards, dones, _ = venv.step(np.array([[top, top]]))
        assert bool(dones[0]) and float(rewards[0]) == -7.0


class TestCrossEpisodePMin:
    def test_wave_folds_in_episode_index_order(self, layers, space,
                                               cost_model):
        """Episode e's reward sees the p_min fold of episodes < e in the
        same wave (the paper's worst-performance-across-episodes stream,
        in a deterministic order)."""
        constraint = PlatformConstraint(kind="area", budget=1e12,
                                        platform="custom")
        env, venv = make_envs(layers, space, cost_model, 3,
                              constraint=constraint)
        venv.reset()
        actions = np.array([[3, 3], [0, 0], [2, 2]])
        _, rewards, _, info = venv.step(actions)
        costs = env.objective.evaluate(info["batch"])
        performance = -np.asarray(costs)
        # row 0 sets p_min to its own performance -> reward 0
        assert rewards[0] == 0.0
        expected_1 = performance[1] - min(performance[0], performance[1])
        expected_2 = performance[2] - min(performance[:3])
        assert rewards[1] == expected_1
        assert rewards[2] == expected_2
        assert env.p_min == min(performance)


@st.composite
def wave_actions(draw):
    """Episode count, action matrix stream, a constraint kind, and the
    reward shaping and penalty mode."""
    episodes = draw(st.integers(min_value=1, max_value=4))
    # Level indices skewed low so some episodes survive several steps
    # while high draws violate early -- arbitrary interleavings.
    matrix = draw(st.lists(
        st.lists(st.integers(min_value=0, max_value=11),
                 min_size=2 * episodes, max_size=2 * episodes),
        min_size=4, max_size=4))
    kind = draw(st.sampled_from(["area", "power", "resource"]))
    shaping = draw(st.sampled_from(["pmin", "raw"]))
    penalty = draw(st.sampled_from(["accumulated", "constant"]))
    return episodes, matrix, kind, shaping, penalty


class TestReplayProperty:
    @settings(max_examples=80, deadline=None)
    @given(wave_actions())
    def test_any_interleaving_matches_scalar_replay(self, case):
        """Every finished episode's bookkeeping equals a fresh scalar
        replay of its actions -- and a planned replay where planning is
        supported -- regardless of which episodes violate when; every
        wave's rewards and the final p_min follow the row-order fold;
        evaluations count one per live episode per wave."""
        episodes, matrix, kind, shaping, penalty = case
        layers = get_model("mobilenet_v2")[:4]
        space = ActionSpace.build("dla")
        cost_model = CostModel()
        if kind == "resource":
            constraint = ResourceConstraint(max_pes=64,
                                            max_l1_bytes=16384)
        else:
            budget = 8.0e6 if kind == "area" else 700.0
            constraint = PlatformConstraint(kind=kind, budget=budget,
                                            platform="custom")
        env_kwargs = dict(dataflow="dla", reward_shaping=shaping,
                          penalty_mode=penalty, constant_penalty=-7.0)

        def make_env():
            return HWAssignmentEnv(layers, space, "latency", constraint,
                                   cost_model, **env_kwargs)

        env = make_env()
        venv = VectorHWAssignmentEnv(env, episodes)
        venv.reset()
        finished = {}
        steps_taken = 0
        wave = 0
        p_min = None
        reward_sums = [0.0] * episodes
        while not venv.all_done:
            live = venv.live_indices
            row_actions = np.array(
                matrix[wave % len(matrix)]).reshape(-1, 2)[:len(live)]
            steps_taken += len(live)
            _, rewards, _, info = venv.step(row_actions)
            costs = np.asarray(env.objective.evaluate(info["batch"]))
            # The test's own fold, row by row in episode-index order.
            for row, index in enumerate(live.tolist()):
                episode = info["episodes"][row]
                if episode is not None and not episode.feasible:
                    expected = (-reward_sums[index]
                                if penalty == "accumulated" else -7.0)
                else:
                    performance = -float(costs[row])
                    if p_min is None or performance < p_min:
                        p_min = performance
                    expected = (performance - p_min if shaping == "pmin"
                                else performance)
                assert float(rewards[row]) == expected
                reward_sums[index] += expected
                if episode is not None:
                    finished[index] = episode
            wave += 1
        assert env.p_min == p_min
        assert len(finished) == episodes
        assert env.evaluations == steps_taken
        assert env.episodes == episodes
        for episode in finished.values():
            replay_env = make_env()
            replay_env.reset()
            replay = None
            replay_rewards = []
            for action in episode.actions:
                _, reward, _, step_info = replay_env.step(list(action))
                replay_rewards.append(reward)
                replay = step_info["episode"]
            assert replay is not None
            assert replay.steps == episode.steps
            assert replay.feasible == episode.feasible
            assert replay.cost == episode.cost
            assert replay.used == episode.used
            assert replay.assignments == episode.assignments
            if not replay_env.plan_supported():
                continue
            plan_env = make_env()
            plan_env.reset()
            plan = plan_env.begin_plan()
            done = False
            for action in episode.actions:
                assert not done
                _, done = plan.step(list(action))
            assert done
            planned_rewards, planned = plan.commit()
            assert planned == replay
            assert planned_rewards == replay_rewards
            assert plan_env.p_min == replay_env.p_min
