"""Tape-free REINFORCE parity: the array rollout and hand-derived BPTT of
:class:`RecurrentPolicy` against the autograd tape built from
``LSTMCell``, ``Linear`` and ``Categorical``.

Every comparison is exact: the tape-free path mirrors the tape's
arithmetic and summation order, so any ulp of drift is a bug, not noise.
Gradients and parameters compare as bytes (:func:`same_bytes`), because
``np.array_equal`` treats -0.0 and +0.0 as equal and so cannot see a
reduction that starts from the wrong zero.
"""

from __future__ import annotations

import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.costmodel import CostModel
from repro.experiments.tasks import TaskSpec
from repro.nn import Tensor
from repro.nn.distributions import Categorical
from repro.nn.optim import Adam
from repro.rl import Reinforce
from repro.rl.policies import RecurrentPolicy, RecurrentTrace
from repro.rl.reinforce import head_sums


@pytest.fixture(scope="module")
def cost_model():
    return CostModel()


def make_env(cost_model, layers, **task_options):
    task = TaskSpec(model="mobilenet_v2", layer_slice=layers, **task_options)
    return task.make_env(cost_model, task.constraint(cost_model))


def twin_agents(env, seed, **options):
    """Two agents with identical policies: one to run tape-free, one to
    serve as the tape oracle."""
    agents = []
    for _ in range(2):
        agent = Reinforce(seed=seed, **options)
        agent._build(env)
        agents.append(agent)
    return agents


def synthetic_twins(seed, head_sizes, hidden, obs_dim=10):
    agents = []
    for _ in range(2):
        agent = Reinforce(seed=seed, hidden_size=hidden)
        agent.policy = RecurrentPolicy(obs_dim, head_sizes,
                                       hidden_size=hidden, rng=agent.rng)
        agent.optimizer = Adam(agent.policy.parameters(), lr=agent.lr)
        agents.append(agent)
    return agents


def tape_rollout(agent, trace):
    """Replay the traced observations and actions through the tape."""
    policy = agent.policy
    state = policy.initial_state()
    log_probs, entropies = [], []
    for t in range(trace.length):
        dists, state = policy(Tensor(trace.obs[t:t + 1]), state)
        actions = trace.actions[t]
        log_prob = dists[0].log_prob([actions[0]])
        entropy = dists[0].entropy()
        for head, dist in enumerate(dists[1:], start=1):
            log_prob = log_prob + dist.log_prob([actions[head]])
            entropy = entropy + dist.entropy()
        log_probs.append(log_prob)
        entropies.append(entropy)
    return log_probs, entropies


def same_bytes(got: np.ndarray, want: np.ndarray) -> bool:
    """Equal shapes and equal bytes: every bit, the sign of zero too."""
    return got.shape == want.shape and got.tobytes() == want.tobytes()


def gradients(agent, loss):
    agent.optimizer.zero_grad()
    loss.backward()
    return [p.grad.copy() for p in agent.policy.parameters()]


def assert_parity(agent, oracle, trace, rewards):
    """Forward values, loss, raw gradients, and one full update of
    ``agent`` (tape-free) against ``oracle`` (tape), all exact.  The
    forward values are the per-episode log-probabilities and entropies
    that the update sums from the trace's logits rows."""
    log_probs, entropies = tape_rollout(oracle, trace)
    log_prob, entropy = head_sums(trace.distributions(),
                                  trace.actions[:trace.length])
    assert same_bytes(log_prob, np.array([lp.item() for lp in log_probs]))
    assert same_bytes(entropy, np.array([e.item() for e in entropies]))

    fused = agent._trace_loss(trace, rewards)
    tape = oracle._episode_loss(log_probs, entropies, rewards)
    assert fused.item() == tape.item()
    for got, want in zip(gradients(agent, fused), gradients(oracle, tape)):
        assert same_bytes(got, want)

    loss = agent.update(trace, rewards)
    log_probs, entropies = tape_rollout(oracle, trace)
    assert loss == oracle._apply_loss(
        oracle._episode_loss(log_probs, entropies, rewards))
    for got, want in zip(agent.policy.parameters(),
                         oracle.policy.parameters()):
        assert same_bytes(got.grad, want.grad)
        assert same_bytes(got.data, want.data)


class TestEpisodeParity:
    @pytest.mark.parametrize("layers", [1, 2, 16, 52])
    def test_planned_episodes(self, cost_model, layers):
        env = make_env(cost_model, layers, platform="cloud")
        agent, oracle = twin_agents(env, seed=layers)
        for _ in range(3):
            trace, rewards, episode = agent.run_episode_planned(env)
            assert isinstance(trace, RecurrentTrace)
            assert trace.length == len(rewards) == episode.steps
            assert_parity(agent, oracle, trace, rewards)

    def test_scalar_episodes_under_a_power_budget(self, cost_model):
        env = make_env(cost_model, 8, constraint_kind="power",
                       platform="cloud")
        assert not env.plan_supported()
        agent, oracle = twin_agents(env, seed=0)
        for _ in range(3):
            trace, rewards, _ = agent.run_episode(env)
            assert_parity(agent, oracle, trace, rewards)

    def test_three_heads_under_mix(self, cost_model):
        env = make_env(cost_model, 16, mix=True, platform="cloud")
        agent, oracle = twin_agents(env, seed=2)
        assert len(agent.policy.heads) == 3
        for _ in range(3):
            trace, rewards, _ = agent.run_episode_planned(env)
            assert_parity(agent, oracle, trace, rewards)

    def test_episode_ended_by_a_violation(self, cost_model):
        env = make_env(cost_model, 52, platform="iotx")
        agent, oracle = twin_agents(env, seed=0)
        trace, rewards, episode = agent.run_episode_planned(env)
        assert not episode.feasible
        assert trace.length < env.num_steps
        assert_parity(agent, oracle, trace, rewards)

    def test_zero_variance_returns(self, cost_model):
        env = make_env(cost_model, 16, platform="cloud")
        agent, oracle = twin_agents(env, seed=3)
        trace, rewards, _ = agent.run_episode_planned(env)
        assert_parity(agent, oracle, trace, [0.0] * len(rewards))

    def test_zero_entropy_coefficient(self, cost_model):
        env = make_env(cost_model, 8, platform="cloud")
        agent, oracle = twin_agents(env, seed=4, entropy_coef=0.0)
        trace, rewards, _ = agent.run_episode_planned(env)
        assert_parity(agent, oracle, trace, rewards)


def synthetic_trace(agent, steps, data):
    """``steps`` array-forward steps of ``agent`` on random
    observations, and random rewards."""
    trace = RecurrentTrace(agent.policy, steps)
    state = trace.initial_state()
    for _ in range(steps):
        _, state = agent._sample_step(data.standard_normal(10), state, trace)
    return trace, data.standard_normal(steps).tolist()


class TestRepeatedBackward:
    """REINFORCE hands ``bptt`` one of the optimizer's scratch arrays,
    so every update reuses the same ``W_h``-sized buffer."""

    def test_reused_buffers_match_fresh_ones(self):
        agent, fresh = synthetic_twins(7, [12, 12], hidden=16)
        data = np.random.default_rng(7)
        long, _ = synthetic_trace(agent, 11, data)
        short, _ = synthetic_trace(agent, 4, data)
        seeds = [data.standard_normal(steps) for steps in (11, 11, 4, 4)]
        buffer = agent.optimizer.scratch(agent.policy.cell.weight_h)[0]
        first = [grad.copy() for grad in agent.policy.bptt(
            long, long.distributions(), *seeds[:2], buffer)]
        second = agent.policy.bptt(short, short.distributions(), *seeds[2:],
                                   buffer)
        assert second[1] is buffer
        want = fresh.policy.bptt(
            short, short.distributions(), *seeds[2:],
            fresh.optimizer.scratch(fresh.policy.cell.weight_h)[0])
        assert all(same_bytes(got, expected)
                   for got, expected in zip(second, want))
        assert not all(same_bytes(got, other)
                       for got, other in zip(second, first))

    def test_gradients_accumulate_across_backward_calls(self, cost_model):
        """Two losses backpropagated without ``zero_grad`` between them
        leave each parameter's two tape gradients added, as
        ``Tensor._accumulate`` adds any two tape nodes' gradients: the
        second ``bptt`` must not overwrite the first one's result."""
        env = make_env(cost_model, 16, platform="cloud")
        agent, oracle = twin_agents(env, seed=6)
        episodes = [agent.run_episode_planned(env)[:2] for _ in range(2)]
        agent.optimizer.zero_grad()
        for trace, rewards in episodes:
            agent._trace_loss(trace, rewards).backward()
        first, second = (
            gradients(oracle, oracle._episode_loss(
                *tape_rollout(oracle, trace), rewards))
            for trace, rewards in episodes)
        for parameter, one, two in zip(agent.policy.parameters(), first,
                                       second):
            assert same_bytes(parameter.grad, one + two)


class TestRecycledTraces:
    """``Reinforce`` takes an episode's trace back after ``update`` and
    fills it again in the next episode, and each parameter keeps its
    gradient array across ``zero_grad``.  Nothing is allocated per
    update that these arrays hold, and nothing stale leaks into a
    result."""

    def test_violated_episodes_on_one_trace_match_the_tape(
            self, cost_model):
        """Violations end the 52-layer IoTx episodes at different
        lengths, so every episode but the first runs on a trace whose
        rows past its length still hold a longer or shorter earlier
        episode."""
        env = make_env(cost_model, 52, platform="iotx")
        agent, oracle = twin_agents(env, seed=0)
        traces, lengths = [], []
        for _ in range(6):
            trace, rewards, episode = agent.run_episode_planned(env)
            assert not episode.feasible
            assert trace.length == len(rewards) < env.num_steps
            traces.append(trace)
            lengths.append(trace.length)
            assert_parity(agent, oracle, trace, rewards)
        assert all(trace is traces[0] for trace in traces)
        assert len(set(lengths)) > 2

    def test_two_episodes_before_an_update_get_two_traces(self, cost_model):
        env = make_env(cost_model, 16, platform="cloud")
        agent, _ = twin_agents(env, seed=5)
        first, first_rewards, _ = agent.run_episode_planned(env)
        second, second_rewards, _ = agent.run_episode_planned(env)
        assert first is not second
        first_actions = first.actions[:first.length].copy()
        agent.update(second, second_rewards)
        third, _, _ = agent.run_episode_planned(env)
        assert third is second
        assert same_bytes(first.actions[:first.length], first_actions)
        agent.update(first, first_rewards)
        assert agent.run_episode_planned(env)[0] is first

    def test_agents_on_two_threads_keep_their_own_buffers(self):
        """The service runs jobs on two scheduler threads.  Each agent
        owns its trace, its optimizer's scratch and its parameters'
        gradient arrays, so two searches side by side, switching threads
        every few bytecodes, end exactly as they do alone."""
        def search(seed):
            env = make_env(CostModel(), 8, platform="cloud")
            agent = Reinforce(seed=seed)
            agent.search(env, 6)
            return [p.data.tobytes() for p in agent.policy.parameters()]

        alone = [search(seed) for seed in (0, 1)]
        side_by_side = [None, None]

        def run(seed):
            side_by_side[seed] = search(seed)

        threads = [threading.Thread(target=run, args=(seed,))
                   for seed in (0, 1)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert side_by_side == alone

    def test_update_and_episode_allocate_under_half_of_w_h(self,
                                                          cost_model):
        """Warmed up on the benchmark's 16-layer IoT task, neither a
        planned episode nor a tape-free update allocates anything of
        ``W_h``'s size: the trace, the BPTT work arrays, the gradients
        and the clipping squares all live in kept arrays."""
        env = make_env(cost_model, 16, platform="iot")
        agent = Reinforce(seed=1)
        agent._build(env)
        for _ in range(2):
            agent.update(*agent.run_episode_planned(env)[:2])
        limit = agent.policy.cell.weight_h.data.nbytes // 2
        tracemalloc.start()
        try:
            trace, rewards, _ = agent.run_episode_planned(env)
            episode_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            agent.update(trace, rewards)
            update_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert episode_peak < limit
        assert update_peak < limit


@settings(max_examples=25, deadline=None)
@given(steps=st.integers(1, 24), seed=st.integers(0, 2**16),
       head_sizes=st.lists(st.integers(2, 12), min_size=2, max_size=3),
       hidden=st.sampled_from([4, 8, 16]))
def test_parity_property(steps, seed, head_sizes, hidden):
    agent, oracle = synthetic_twins(seed, head_sizes, hidden)
    trace, rewards = synthetic_trace(agent, steps,
                                     np.random.default_rng(seed))
    assert_parity(agent, oracle, trace, rewards)


@settings(max_examples=40, deadline=None)
@given(steps=st.integers(1, 52), seed=st.integers(0, 2**16),
       head_sizes=st.lists(st.integers(2, 14), min_size=2, max_size=3))
def test_parity_property_at_the_paper_width(steps, seed, head_sizes):
    """The paper's LSTM-128, up to the full 52-layer episode: at this
    width the weight gradients sum 128 x 512 products per step, and any
    reduction that leaves reverse time order shows in the bytes."""
    agent, oracle = synthetic_twins(seed, head_sizes, hidden=128)
    trace, rewards = synthetic_trace(agent, steps,
                                     np.random.default_rng(seed))
    assert_parity(agent, oracle, trace, rewards)


def test_array_categorical_matches_tape_values():
    logits = np.random.default_rng(0).standard_normal((1, 7))
    tape, array = Categorical(Tensor(logits)), Categorical(logits)
    assert np.array_equal(tape.probs, array.probs)
    assert np.array_equal(tape.log_prob([3]).numpy(), array.log_prob([3]))
    assert np.array_equal(tape.entropy().numpy(), array.entropy())
    assert np.array_equal(tape.sample(np.random.default_rng(5)),
                          array.sample(np.random.default_rng(5)))


def test_tape_paths_stay_on_the_tape(cost_model):
    """The MLP policy keeps recording tensors for the tape."""
    env = make_env(cost_model, 4, platform="cloud")
    agent = Reinforce(policy="mlp", seed=0)
    agent._build(env)
    (log_probs, entropies), rewards, _ = agent.run_episode_planned(env)
    assert all(isinstance(t, Tensor) for t in log_probs + entropies)
    assert np.isfinite(agent.update((log_probs, entropies), rewards))
