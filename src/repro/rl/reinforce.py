"""REINFORCE -- the global-search stage of ConfuciuX (Section III).

Actor-only policy gradient: no critic approximates the (discrete, irregular)
HW-performance landscape; the policy learns directly from shaped rewards.
Per episode the agent samples one action pair per layer, the rewards are
turned into discounted (d = 0.9) returns, standardized, and the policy is
updated once -- the paper's "policy network gets updated at the end of each
epoch".

Single-env episodes of the LSTM policy run without the autograd tape: an
array rollout into a :class:`RecurrentTrace` and the hand-derived
:meth:`RecurrentPolicy.bptt`, bit-identical to the tape.  The rollout
only samples each step; the update scores the whole episode at once, with
one ``Categorical`` per head over the trace's logits rows.  The agent
recycles the trace from one episode to the next, and the update works in
kept arrays (the trace's, Adam's scratch and the parameters' gradients),
so neither allocates anything of ``W_h``'s size.  The MLP policy keeps
the tape.

The agent updates once per episode, as the paper specifies, and has no
lockstep-wave path: :meth:`Reinforce.search` refuses a
:class:`~repro.env.vector.VectorHWAssignmentEnv` (``envs > 1``).
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.env.environment import HWAssignmentEnv
from repro.nn.autograd import Tensor
from repro.nn.optim import Adam, clip_grad_norm
from repro.rl.common import (
    SearchAlgorithm,
    SearchResult,
    normalize_rewards_for_training,
)
from repro.rl.policies import RecurrentPolicy, RecurrentTrace, build_policy


def head_sums(dists, actions):
    """Per-row log-probability of ``actions`` (one column per head) and
    entropy, each summed over the heads in head order, the tape's
    order."""
    log_prob = dists[0].log_prob(actions[:, 0])
    entropy = dists[0].entropy()
    for head, dist in enumerate(dists[1:], start=1):
        log_prob = log_prob + dist.log_prob(actions[:, head])
        entropy = entropy + dist.entropy()
    return log_prob, entropy


class Reinforce(SearchAlgorithm):
    """The Con'X(global) agent.

    Args:
        policy: "rnn" (the paper's LSTM-128) or "mlp" (Table IX ablation).
        lr: Adam learning rate.
        discount: Return discount; the paper found 0.9 a good default.
        entropy_coef: Exploration bonus weight.
        hidden_size: LSTM width.
        seed: RNG seed for reproducible searches.

    Episodes run planned (:meth:`run_episode_planned`, one batched
    scoring per episode) wherever ``env.plan_supported()``, and
    step by step (:meth:`run_episode`) otherwise; both are
    bit-identical in rewards, RNG stream and results.
    """

    name = "reinforce"

    def __init__(self, policy: str = "rnn", lr: float = 3e-3,
                 discount: float = 0.9, entropy_coef: float = 0.01,
                 hidden_size: int = 128, max_grad_norm: float = 5.0,
                 seed: Optional[int] = None) -> None:
        if not 0.0 <= discount <= 1.0:
            raise ValueError("discount must be in [0, 1]")
        if max_grad_norm <= 0:
            raise ValueError("max_grad_norm must be positive")
        self.policy_kind = policy
        self.lr = lr
        self.discount = discount
        self.entropy_coef = entropy_coef
        self.hidden_size = hidden_size
        self.max_grad_norm = max_grad_norm
        self.rng = np.random.default_rng(seed)
        self.policy = None
        self.optimizer = None
        #: The trace :meth:`update` took back, for the next episode.
        self._spare_trace: Optional[RecurrentTrace] = None

    # ------------------------------------------------------------------
    def _build(self, env: HWAssignmentEnv) -> None:
        self.policy = build_policy(
            self.policy_kind, env.observation_dim, env.space.head_sizes,
            rng=self.rng, hidden_size=self.hidden_size)
        self.optimizer = Adam(self.policy.parameters(), lr=self.lr)
        self._spare_trace = None

    def _begin(self, env: HWAssignmentEnv):
        """An empty per-episode rollout record and the initial state.

        A recurrent policy runs tape-free: the record is a
        :class:`RecurrentTrace` with room for the episode's longest
        length.  It is the trace the last :meth:`update` took back when
        that one has room, and a new one otherwise, so a second episode
        collected before an update gets a trace of its own.  Any other
        policy records ``(log-prob, entropy)`` tensor lists for the
        autograd tape.
        """
        if isinstance(self.policy, RecurrentPolicy):
            trace, self._spare_trace = self._spare_trace, None
            if trace is None or trace.capacity < env.num_steps:
                trace = RecurrentTrace(self.policy, env.num_steps)
            trace.length = 0
            return trace, trace.initial_state()
        return ([], []), self.policy.initial_state()

    def _sample_step(self, observation, state, rollout):
        """Sample one action tuple from the policy and record the step.

        The single sampling implementation for both episode drivers: the
        planned path's bit-identical-RNG guarantee rests on the scalar
        and deferred loops consuming randomness through exactly this
        code.  Returns (action, state).
        """
        tape_free = isinstance(rollout, RecurrentTrace)
        if tape_free:
            dists, state = self.policy(observation.reshape(1, -1), state,
                                       rollout)
        else:
            dists, state = self.policy(Tensor(observation.reshape(1, -1)),
                                       state)
        action = [int(d.sample(self.rng)[0]) for d in dists]
        if tape_free:
            rollout.record(action)
        else:
            step_logp, step_entropy = head_sums(dists, np.array([action]))
            rollout[0].append(step_logp)
            rollout[1].append(step_entropy)
        return action, state

    def run_episode(self, env: HWAssignmentEnv):
        """Roll out one episode, recording what :meth:`update` needs.

        Returns (rollout, rewards, episode info); the rollout is what
        :meth:`_begin` made, filled in.
        """
        observation = env.reset()
        rollout, state = self._begin(env)
        rewards: List[float] = []
        episode = None
        done = False
        while not done:
            action, state = self._sample_step(observation, state, rollout)
            observation, reward, done, info = env.step(action)
            rewards.append(reward)
            episode = info["episode"]
        return rollout, rewards, episode

    def run_episode_planned(self, env: HWAssignmentEnv):
        """Roll out one episode with deferred batched scoring.

        Sampling is step-by-step (the LSTM is sequential and termination
        must be exact -- see ``HWAssignmentEnv.plan_supported``), but no
        cost-model call happens until ``commit``, which scores the whole
        epoch as one batched evaluation.  Observations, sampled actions,
        rewards, and the RNG stream are bit-identical to
        :meth:`run_episode`.
        """
        observation = env.reset()
        plan = env.begin_plan()
        rollout, state = self._begin(env)
        done = False
        while not done:
            action, state = self._sample_step(observation, state, rollout)
            observation, done = plan.step(action)
        rewards, episode = plan.commit()
        return rollout, rewards, episode

    def _episode_loss(self, log_probs: List[Tensor],
                      entropies: List[Tensor],
                      rewards: List[float]) -> Tensor:
        """The REINFORCE loss of one episode (kept as a tensor)."""
        returns = normalize_rewards_for_training(rewards, self.discount)
        loss = None
        for log_prob, entropy, g in zip(log_probs, entropies, returns):
            term = log_prob * float(g) + entropy * self.entropy_coef
            loss = term if loss is None else loss + term
        return -loss.sum() * (1.0 / max(len(rewards), 1))

    def _trace_loss(self, trace: RecurrentTrace,
                    rewards: List[float]) -> Tensor:
        """:meth:`_episode_loss` for a traced episode, as one tape node
        over the policy parameters whose backward is
        :meth:`RecurrentPolicy.bptt`; value and gradients are
        bit-identical to the tape's.

        One :class:`Categorical` per head covers the whole episode
        (:meth:`RecurrentTrace.distributions`).  Row ``t`` holds the
        values step ``t``'s distribution held, so the per-step sums over
        the heads equal the tape's, and ``bptt`` reuses the same
        distributions for the heads' backward.
        """
        returns = normalize_rewards_for_training(rewards, self.discount)
        steps = trace.length
        dists = trace.distributions()
        log_prob, entropy = head_sums(dists, trace.actions[:steps])
        terms = log_prob * returns + entropy * self.entropy_coef
        scale = 1.0 / max(len(rewards), 1)
        # The tape adds the per-step terms left to right.
        value = -np.add.accumulate(terms)[-1] * scale
        parameters = self.policy.parameters()

        def backward(grad: np.ndarray) -> None:
            d_term = -(grad * scale)
            # Adam's first scratch array for W_h is free until its next
            # step, and _accumulate copies the W_h gradient out of it.
            grads = self.policy.bptt(
                trace, dists, d_term * returns,
                np.full(steps, d_term * self.entropy_coef),
                self.optimizer.scratch(self.policy.cell.weight_h)[0])
            for parameter, parameter_grad in zip(parameters, grads):
                parameter._accumulate(parameter_grad)

        return Tensor._make(np.asarray(value), parameters, backward)

    def _apply_loss(self, loss: Tensor) -> float:
        self.optimizer.zero_grad()
        loss.backward()
        # Adam's scratch is free until its step: square the gradients
        # there.
        clip_grad_norm(self.optimizer.parameters, self.max_grad_norm,
                       self.optimizer.work)
        self.optimizer.step()
        return loss.item()

    def update(self, rollout, rewards: List[float]) -> float:
        """One policy-gradient step on a rollout from :meth:`run_episode`
        or :meth:`run_episode_planned`; returns the scalar loss.

        A :class:`RecurrentTrace` comes back to the agent: the next
        episode reuses it, so its rows stay valid only until then.
        """
        if isinstance(rollout, RecurrentTrace):
            loss = self._apply_loss(self._trace_loss(rollout, rewards))
            self._spare_trace = rollout
            return loss
        return self._apply_loss(self._episode_loss(*rollout, rewards))

    # ------------------------------------------------------------------
    def search(self, env: HWAssignmentEnv, epochs: int) -> SearchResult:
        """Train for ``epochs`` episodes; track the best feasible design."""
        if epochs < 1:
            raise ValueError("epochs must be >= 1")
        self._refuse_vector_env(env)
        result, started = self._start(self.name)
        if self.policy is None:
            self._build(env)
        episode_fn = (self.run_episode_planned if env.plan_supported()
                      else self.run_episode)
        for _ in range(epochs):
            rollout, rewards, _ = episode_fn(env)
            self.update(rollout, rewards)
            result.record(env.best.cost if env.best else None)
        self._finalize(result, env, started)
        result.memory_bytes = 8 * self.policy.num_parameters()
        return result
