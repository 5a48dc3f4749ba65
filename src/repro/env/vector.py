"""Lockstep multi-episode environment: one batched cost call per wave.

:class:`VectorHWAssignmentEnv` steps **E episodes in lockstep waves** for
the agents with a lockstep-wave path (``SearchAlgorithm.lockstep``: A2C,
ACKTR and PPO2, which take a wave as one update minibatch).  REINFORCE,
which updates once per episode, and DDPG, TD3 and SAC refuse a vector
env of any width.  All live episodes sit at the same layer ``t``, so one
wave evaluates their E candidate assignments for that layer in a single
:class:`~repro.costmodel.batched.BatchedCostModel` call (through
``CostModel.batched``).  After that call the wave applies the wrapped
env's episode rules row by row -- ``_charge``, ``_reward`` and
``_close`` on one :class:`~repro.env.environment.EpisodeRecord` per
episode -- so budget consumption, termination, the shared cross-episode
``p_min`` stream and the :class:`~repro.env.environment.EpisodeResult`
bookkeeping are the scalar env's own; episodes that violate early drop
out of later waves.

Semantics
---------
* Every finished episode equals a replay of its actions through a
  scalar :class:`HWAssignmentEnv` -- the property suite in
  ``tests/test_vector_env.py`` locks this for any interleaving of
  violating episodes.
* The paper's cross-episode ``p_min`` ("worst layer performance observed
  across *all* episodes") folds across a wave in episode-index order:
  episode ``e``'s reward at step ``t`` sees the minimum over every
  earlier episode's step-``t`` performance in the same wave plus all
  previous waves.  For ``num_envs == 1`` this is exactly the scalar
  stream, making single-env vector stepping **bit-identical** to
  ``HWAssignmentEnv.step`` (locked per wave agent by
  ``tests/test_rl_vector_parity.py``); for ``num_envs > 1`` it is a new,
  reproducible scenario (see the RNG contract in API.md).
* Unlike planned episodes (``HWAssignmentEnv.begin_plan``), waves see the
  full per-layer cost report before deciding termination, so **every**
  constraint kind is supported -- including power budgets.

The driving agent interacts through a narrow protocol::

    observations = venv.reset(episodes)        # (E, obs_dim)
    while not venv.all_done:
        live = venv.live_indices               # episode index per row
        actions = policy(observations)         # (len(live), heads)
        observations, rewards, dones, info = venv.step(actions)
        observations = observations[~dones]    # compact to the live set
    # info["episodes"][row] carries the EpisodeResult on finishing rows.

Cross-episode state (``p_min``, ``best``, ``episodes``, ``evaluations``)
lives on the wrapped scalar env, so scalar and vector driving of the same
``HWAssignmentEnv`` share one search history.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.env.environment import EpisodeRecord, HWAssignmentEnv

__all__ = ["VectorHWAssignmentEnv"]


class VectorHWAssignmentEnv:
    """E lockstep episodes over one :class:`HWAssignmentEnv`.

    Args:
        env: The scalar environment whose task (layers, space, objective,
            constraint, cost model), episode rules, cross-episode state
            and observed session's tracker this vector env drives.
        num_envs: Maximum episodes per lockstep wave set (E).
    """

    #: Duck-typing marker the agents dispatch on.
    is_vector = True

    def __init__(self, env: HWAssignmentEnv, num_envs: int) -> None:
        if not isinstance(env, HWAssignmentEnv):
            raise TypeError(
                "VectorHWAssignmentEnv wraps an HWAssignmentEnv "
                f"(got {type(env).__name__})")
        if num_envs < 1:
            raise ValueError("num_envs must be >= 1")
        self.env = env
        self.num_envs = int(num_envs)
        self._heads = env.space.actions_per_step
        self._episodes: List[EpisodeRecord] = []
        self._live = np.zeros(0, dtype=np.int64)
        self._step_index = 0

    # ------------------------------------------------------------------
    # Scalar-env views (shared cross-episode state and task handles).
    # ------------------------------------------------------------------
    @property
    def space(self):
        return self.env.space

    @property
    def layers(self):
        return self.env.layers

    @property
    def observation_dim(self) -> int:
        return self.env.observation_dim

    @property
    def num_steps(self) -> int:
        return self.env.num_steps

    @property
    def best(self):
        return self.env.best

    @property
    def episodes(self) -> int:
        return self.env.episodes

    @property
    def evaluations(self) -> int:
        return self.env.evaluations

    # ------------------------------------------------------------------
    @property
    def all_done(self) -> bool:
        """Whether every episode of the current wave set has finished."""
        return len(self._live) == 0

    @property
    def live_indices(self) -> np.ndarray:
        """Episode indices still stepping, in row order for :meth:`step`."""
        return self._live.copy()

    @property
    def num_active(self) -> int:
        """Episodes in the current wave set (including finished ones)."""
        return len(self._episodes)

    # ------------------------------------------------------------------
    def reset(self, episodes: Optional[int] = None) -> np.ndarray:
        """Start a fresh wave set of ``episodes`` lockstep episodes.

        Returns the ``(episodes, obs_dim)`` observation matrix for step 0
        (every row is the scalar env's first observation).
        """
        env = self.env
        if env._tracker is not None:
            env._tracker.check_stop()
        episodes = self.num_envs if episodes is None else int(episodes)
        if not 1 <= episodes <= self.num_envs:
            raise ValueError(
                f"episodes must be in [1, {self.num_envs}], got {episodes}")
        self._episodes = [EpisodeRecord() for _ in range(episodes)]
        self._live = np.arange(episodes, dtype=np.int64)
        self._step_index = 0
        return env.encoder.encode_batch(env.layers[0], 0, None,
                                        count=episodes)

    # ------------------------------------------------------------------
    def step(self, actions):
        """Advance every live episode by one layer in a single wave.

        Args:
            actions: ``(len(live_indices), actions_per_step)`` level
                indices, row ``r`` acting for episode ``live_indices[r]``.

        Returns:
            ``(observations, rewards, dones, info)`` -- all row-aligned
            with the stepped episodes.  ``observations`` holds every
            stepped episode's next observation (finished rows carry
            their terminal observation; compact with ``~dones`` before
            the next forward pass).  ``info["episodes"]`` carries one
            :class:`EpisodeResult` per finishing row (``None``
            elsewhere); ``info["batch"]`` is the wave's
            :class:`~repro.costmodel.report.BatchCostReport`.
        """
        live = self._live
        if len(live) == 0:
            raise RuntimeError(
                "step() called with no live episodes; reset()")
        actions = np.asarray(actions, dtype=np.int64)
        if actions.ndim != 2 or actions.shape != (len(live), self._heads):
            raise ValueError(
                f"expected an ({len(live)}, {self._heads}) action matrix, "
                f"got shape {actions.shape}")
        env = self.env
        t = self._step_index
        rows = [tuple(row) for row in actions.tolist()]
        assignments = env.space.decode_genes(actions.ravel().tolist())

        # The wave's one batched cost call, then the env's rules row by
        # row in episode-index order (the scalar stream, for one row).
        batch = env._evaluate(np.full(len(live), t, dtype=np.int64),
                              assignments)
        env.evaluations += len(live)
        costs = np.asarray(env.objective.evaluate(batch),
                           dtype=np.float64).tolist()
        completed = t + 1 >= env.num_steps
        rewards, violated, results = [], [], []
        for row, index in enumerate(live.tolist()):
            episode = self._episodes[index]
            violation = env._charge(
                episode, rows[row], assignments[row],
                lambda kind: float(batch.constraint(kind)[row]))
            rewards.append(env._reward(episode, costs[row], violation))
            violated.append(violation)
            results.append(env._close(episode, feasible=not violation)
                           if violation or completed else None)
        violated = np.array(violated)
        dones = violated | completed

        # Next observations: the scalar encode semantics per row -- the
        # next (layer, step) template for continuing and completed rows,
        # the current one for violating rows -- as two batch fills.
        next_step = min(t + 1, env.num_steps - 1)
        observations = env.encoder.encode_batch(
            env.layers[next_step], next_step, actions)
        if violated.any() and next_step != t:
            observations[violated] = env.encoder.encode_batch(
                env.layers[t], t, actions[violated])

        self._live = live[~dones]
        self._step_index = t + 1
        return observations, np.array(rewards, dtype=np.float64), dones, {
            "episodes": results,
            "violated": violated,
            "batch": batch,
        }
