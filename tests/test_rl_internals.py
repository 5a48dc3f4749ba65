"""White-box tests for RL algorithm internals: update math, target
networks, preconditioning, and the search-over-time contracts."""

import numpy as np
import pytest

from repro.core.constraints import PlatformConstraint, platform_constraint
from repro.env import ActionSpace, HWAssignmentEnv
from repro.nn import Tensor
from repro.rl import A2C, ACKTR, DDPG, PPO2, SAC, TD3, Reinforce
from repro.rl.sac import GaussianActor


@pytest.fixture
def loose_env(cost_model, mobilenet_slice, space_dla):
    constraint = platform_constraint(mobilenet_slice, "dla", "area",
                                     "cloud", cost_model, space_dla)
    return HWAssignmentEnv(mobilenet_slice, space_dla, "latency",
                           constraint, cost_model, dataflow="dla")


class TestReinforceUpdate:
    def test_update_moves_parameters(self, loose_env):
        agent = Reinforce(seed=0)
        agent._build(loose_env)
        before = [p.data.copy() for p in agent.policy.parameters()]
        rollout, rewards, _ = agent.run_episode(loose_env)
        agent.update(rollout, rewards)
        after = agent.policy.parameters()
        assert any(not np.allclose(b, a.data)
                   for b, a in zip(before, after))

    def test_update_increases_logprob_of_high_return_action(self,
                                                            loose_env):
        # Policy-gradient sanity: after updating on an episode whose first
        # action had the highest return, that action's probability at the
        # first state should not fall (statistically, many updates).
        agent = Reinforce(seed=1, lr=0.05, entropy_coef=0.0)
        agent._build(loose_env)
        observation = loose_env.reset()
        from repro.nn.autograd import no_grad

        def first_action_probs():
            with no_grad():
                dists, _ = agent.policy(
                    Tensor(observation.reshape(1, -1)),
                    agent.policy.initial_state())
            return dists[0].probs[0]

        for _ in range(10):
            rollout, rewards, _ = agent.run_episode(loose_env)
            agent.update(rollout, rewards)
        probs = first_action_probs()
        assert probs.sum() == pytest.approx(1.0)
        # The policy has sharpened away from uniform.
        assert probs.max() > 1.0 / len(probs) * 1.02


class TestActorCriticInternals:
    def test_a2c_critic_trains_toward_returns(self, loose_env):
        agent = A2C(seed=0)
        agent._build(loose_env)
        observations, actions, rewards = agent._collect(loose_env)
        first_loss = agent.update(observations, actions, rewards)
        losses = [agent.update(*agent._collect(loose_env)[0:3])
                  for _ in range(5)]
        assert all(np.isfinite(l) for l in [first_loss, *losses])

    def test_acktr_preconditioner_builds_fisher(self, loose_env):
        agent = ACKTR(seed=0)
        agent._build(loose_env)
        observations, actions, rewards = agent._collect(loose_env)
        agent.update(observations, actions, rewards)
        assert agent._fisher is not None
        assert any(np.any(f > 0) for f in agent._fisher)

    def test_acktr_natural_gradients_are_never_overwritten(self,
                                                           loose_env):
        """ACKTR rebinds each ``parameter.grad`` to its preconditioned
        array.  A parameter keeps only the array its own backward made,
        so the next update's backward copies into that one and leaves
        the rebound arrays as ACKTR left them."""
        agent = ACKTR(seed=0)
        agent._build(loose_env)
        agent.update(*agent._collect(loose_env))
        natural = [p.grad for p in agent.optimizer.parameters
                   if p.grad is not None]
        assert natural
        saved = [grad.tobytes() for grad in natural]
        agent.update(*agent._collect(loose_env))
        assert [grad.tobytes() for grad in natural] == saved
        kept = {id(p._kept) for p in agent.optimizer.parameters}
        assert not kept & {id(grad) for grad in natural}

    def test_acktr_rejects_bad_decay(self):
        with pytest.raises(ValueError):
            ACKTR(fisher_decay=1.5)

    def test_ppo_clip_validation(self):
        with pytest.raises(ValueError):
            PPO2(clip_ratio=1.5)

    def test_ppo_surrogate_finite(self, loose_env):
        agent = PPO2(seed=0)
        agent._build(loose_env)
        observations, actions, rewards, old_log_probs = \
            agent._collect(loose_env)
        loss = agent.update(observations, actions, rewards, old_log_probs)
        assert np.isfinite(loss)


class TestOffPolicyInternals:
    def test_ddpg_target_networks_track_slowly(self, loose_env):
        agent = DDPG(seed=0, warmup_steps=8, batch_size=8, tau=0.1)
        agent.search(loose_env, 3)
        actor = agent.actor.state_dict()
        target = agent.actor_target.state_dict()
        # Targets moved but have not caught up.
        assert any(not np.allclose(a, t) for a, t in zip(actor, target))

    def test_td3_delayed_policy_updates(self, loose_env):
        agent = TD3(seed=0, warmup_steps=8, batch_size=8, policy_delay=2)
        agent.search(loose_env, 3)
        assert agent._updates > 0

    def test_td3_rejects_bad_delay(self):
        with pytest.raises(ValueError):
            TD3(policy_delay=0)

    def test_ddpg_rejects_negative_noise(self):
        with pytest.raises(ValueError):
            DDPG(noise_sigma=-1.0)

    def test_sac_rejects_negative_alpha(self):
        with pytest.raises(ValueError):
            SAC(alpha=-0.1)

    def test_sac_actor_squashes_to_box(self):
        actor = GaussianActor(10, 2, (16, 16),
                              rng=np.random.default_rng(0))
        obs = Tensor(np.random.default_rng(1).standard_normal((5, 10)))
        action, logp = actor.sample(obs, np.random.default_rng(2))
        assert np.all(np.abs(action.numpy()) <= 1.0)
        assert logp.shape == (5,)

    def test_sac_logprob_decreases_with_entropy(self):
        # A wide policy must assign lower density to its samples than a
        # narrow one on average.
        rng = np.random.default_rng(0)
        actor = GaussianActor(4, 1, (8, 8), rng=rng)
        obs = Tensor(np.zeros((64, 4)))
        _, logp = actor.sample(obs, rng)
        assert np.isfinite(logp.numpy()).all()

    def test_offpolicy_warmup_uses_random_actions(self, loose_env):
        agent = DDPG(seed=0, warmup_steps=10_000)
        result = agent.search(loose_env, 2)
        # Entirely inside warmup: no updates, still produces episodes.
        assert result.episodes == 2


class TestSearchContracts:
    @pytest.mark.parametrize("cls", [Reinforce, A2C, PPO2])
    def test_history_tracks_env_best(self, cls, loose_env):
        agent = cls(seed=0)
        result = agent.search(loose_env, 10)
        if loose_env.best is not None:
            assert result.history[-1] == loose_env.best.cost

    def test_reinforce_entropy_coef_zero_allowed(self, loose_env):
        agent = Reinforce(seed=0, entropy_coef=0.0)
        assert agent.search(loose_env, 5).episodes == 5

    def test_reinforce_custom_hidden_size(self, loose_env):
        agent = Reinforce(seed=0, hidden_size=32)
        agent.search(loose_env, 3)
        assert agent.policy.hidden_size == 32
