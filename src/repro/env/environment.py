"""The HW-assignment environment (paper Figure 3, Sections III-B..III-F).

An episode ("epoch" in the paper) walks the model's layers; each step the
agent assigns (PEs, Buffer) -- and a dataflow style under MIX -- to the
current layer.  The environment

* evaluates the layer with the cost model,
* tracks the remaining constraint budget and terminates with a penalty
  equal to the negated accumulated episode reward when it is violated
  (equation 2's Penalty branch),
* shapes rewards as ``P_t - P_min`` where ``P_t`` is the (negated) layer
  cost and ``P_min`` the worst layer performance observed across *all*
  episodes, keeping rewards positive while feasible, and
* records the best feasible complete design point seen so far.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.constraints import PlatformConstraint, ResourceConstraint
from repro.core.evaluator import Constraint
from repro.costmodel.batched import (
    STYLE_INDEX,
    LadderTable,
    LayerTable,
    ordered_sum,
)
from repro.costmodel.estimator import CostModel, area_um2
from repro.costmodel.report import CostReport
from repro.env.observation import ObservationEncoder
from repro.env.spaces import ActionSpace
from repro.models.layers import Layer
from repro.objectives import CostTotals, resolve_objective


@dataclass(frozen=True)
class EpisodeResult:
    """Summary of one completed episode."""

    actions: Tuple[Tuple[int, ...], ...]
    assignments: Tuple[Tuple, ...]
    cost: float
    used: float
    feasible: bool
    steps: int

    @property
    def genome(self) -> List[int]:
        """Flattened level-index genome (stage-2 GA seed format)."""
        return [gene for action in self.actions for gene in action]


class HWAssignmentEnv:
    """Layer-by-layer resource-assignment MDP.

    Args:
        layers: The target model (one time step per layer).
        space: Coarse-grained action space (Table I).
        objective: Any objective spec (registered name, ``weighted:`` /
            ``multi:`` string, spec dict, or
            :class:`repro.objectives.Objective` instance) -- minimized.
            Episodic rewards score the resolved objective per layer;
            multi-objective specs reward their primary component.
        constraint: Area/power budget or FPGA resource caps.
        cost_model: Analytical estimator (the Env's MAESTRO).
        dataflow: Fixed style; required unless ``space.is_mix``.
        reward_shaping: "pmin" (the paper's P_t - P_min shaping) or "raw"
            (the unshaped negative cost) -- the ablation knob behind the
            Section III-E design argument.
        penalty_mode: "accumulated" (the paper's negated accumulated
            episode reward) or "constant" (the threshold-based penalty the
            paper argues against).
        constant_penalty: Penalty value used when ``penalty_mode`` is
            "constant".
    """

    def __init__(
        self,
        layers: Sequence[Layer],
        space: ActionSpace,
        objective: str,
        constraint: Constraint,
        cost_model: CostModel,
        dataflow: Optional[str] = None,
        reward_shaping: str = "pmin",
        penalty_mode: str = "accumulated",
        constant_penalty: float = -1.0,
    ) -> None:
        if not layers:
            raise ValueError("model has no layers")
        if not space.is_mix and dataflow is None:
            raise ValueError("a dataflow is required for non-MIX spaces")
        if reward_shaping not in ("pmin", "raw"):
            raise ValueError(
                f"unknown reward_shaping {reward_shaping!r} "
                f"(use 'pmin' or 'raw')")
        if penalty_mode not in ("accumulated", "constant"):
            raise ValueError(
                f"unknown penalty_mode {penalty_mode!r} "
                f"(use 'accumulated' or 'constant')")
        self.layers = list(layers)
        self.space = space
        self.objective = resolve_objective(objective)
        self.constraint = constraint
        self.cost_model = cost_model
        self.dataflow = dataflow
        self.reward_shaping = reward_shaping
        self.penalty_mode = penalty_mode
        self.constant_penalty = constant_penalty
        self.encoder = ObservationEncoder.for_model(self.layers, space)

        # Cross-episode state (paper: tracked during the training process).
        self.p_min: Optional[float] = None
        self.best: Optional[EpisodeResult] = None
        self.episodes = 0
        self.evaluations = 0

        self._reset_episode_state()

    # ------------------------------------------------------------------
    @property
    def num_steps(self) -> int:
        return len(self.layers)

    @property
    def observation_dim(self) -> int:
        return 10

    def _reset_episode_state(self) -> None:
        self._step = 0
        self._prev_action: Optional[Sequence[int]] = None
        self._episode_rewards: List[float] = []
        self._episode_actions: List[Tuple[int, ...]] = []
        self._episode_assignments: List[Tuple] = []
        self._episode_cost = 0.0
        self._used_budget = 0.0
        self._used_pes = 0
        self._used_l1 = 0
        self._done = False

    # ------------------------------------------------------------------
    def reset(self) -> np.ndarray:
        """Start a new episode; returns the first observation."""
        self._reset_episode_state()
        return self.encoder.encode(self.layers[0], 0, None)

    def step(self, action: Sequence[int]):
        """Apply one action pair; returns (obs, reward, done, info).

        ``info['episode']`` carries the :class:`EpisodeResult` on the step
        that ends the episode (success or violation), else ``None``.
        """
        if self._done:
            raise RuntimeError("step() called on a finished episode; reset()")
        action = tuple(int(a) for a in action)
        layer = self.layers[self._step]
        decoded = self.space.decode(action)
        if len(decoded) == 3:
            pes, l1_bytes, style = decoded
        else:
            pes, l1_bytes = decoded
            style = self.dataflow
        report = self.cost_model.evaluate_layer(layer, style, pes, l1_bytes)
        self.evaluations += 1

        self._episode_actions.append(action)
        self._episode_assignments.append(decoded)
        self._episode_cost += self.objective.evaluate(report)
        violated = self._consume(report, pes, l1_bytes)

        if violated:
            if self.penalty_mode == "accumulated":
                # Equation 2: the penalty is the negated accumulated
                # reward, scaling itself to the objective's magnitude.
                reward = -ordered_sum(self._episode_rewards)
            else:
                reward = self.constant_penalty
            self._episode_rewards.append(reward)
            episode = self._finish(feasible=False)
            observation = self.encoder.encode(layer, self._step,
                                              action)
            return observation, reward, True, {
                "report": report, "violated": True, "episode": episode,
            }

        performance = -self.objective.evaluate(report)
        if self.p_min is None or performance < self.p_min:
            self.p_min = performance
        if self.reward_shaping == "pmin":
            reward = performance - self.p_min
        else:
            reward = performance
        self._episode_rewards.append(reward)

        self._prev_action = action
        self._step += 1
        done = self._step >= self.num_steps
        episode = self._finish(feasible=True) if done else None
        if done:
            next_layer = layer
        else:
            next_layer = self.layers[self._step]
        observation = self.encoder.encode(next_layer, min(self._step,
                                                          self.num_steps - 1),
                                          action)
        return observation, reward, done, {
            "report": report, "violated": False, "episode": episode,
        }

    # ------------------------------------------------------------------
    def _consume(self, report: CostReport, pes: int, l1_bytes: int) -> bool:
        """Charge this layer against the budget; True if now violated."""
        constraint = self.constraint
        if isinstance(constraint, ResourceConstraint):
            self._used_pes += pes
            self._used_l1 += pes * l1_bytes
            self._used_budget = float(self._used_pes)
            return (self._used_pes > constraint.max_pes
                    or self._used_l1 > constraint.max_l1_bytes)
        self._used_budget += constraint.consumption(report)
        return self._used_budget > constraint.budget

    def _finish(self, feasible: bool) -> EpisodeResult:
        self._done = True
        self.episodes += 1
        episode = EpisodeResult(
            actions=tuple(self._episode_actions),
            assignments=tuple(self._episode_assignments),
            cost=self._episode_cost,
            used=self._used_budget,
            feasible=feasible,
            steps=len(self._episode_actions),
        )
        if feasible and (self.best is None or episode.cost < self.best.cost):
            self.best = episode
        return episode

    # ------------------------------------------------------------------
    def budget_left(self) -> float:
        """L_budget of Section III-D (inf when unconstrained)."""
        constraint = self.constraint
        if isinstance(constraint, ResourceConstraint):
            return float(constraint.max_pes - self._used_pes)
        return constraint.budget - self._used_budget

    # ------------------------------------------------------------------
    # Planned episodes: batched scoring of a whole epoch
    # ------------------------------------------------------------------
    def plan_supported(self) -> bool:
        """Whether this env can run deferred-scoring episodes.

        A planned episode must decide termination (constraint violation)
        *before* any cost-model results exist, because sampling the next
        action may not happen after a violation -- that would consume RNG
        the scalar path does not.  The check is exact for resource caps
        (pure resource arithmetic) and for area budgets (area has a
        closed form independent of the layer mapping); power needs the
        full per-layer plan, so power-constrained envs stay on the
        scalar step path.
        """
        if isinstance(self.constraint, ResourceConstraint):
            return True
        return self.constraint.kind == "area"

    def begin_plan(self) -> "EpisodePlan":
        """Start a deferred-scoring episode (call :meth:`reset` first).

        The returned :class:`EpisodePlan` walks the layers exactly like
        :meth:`step` -- same observations, same termination -- but defers
        every cost-model evaluation to one batched call at
        :meth:`EpisodePlan.commit`.
        """
        if not self.plan_supported():
            raise RuntimeError(
                "planned episodes need a resource or area constraint; "
                f"this env is {self.constraint.kind!r}-constrained")
        if self._done or self._step:
            raise RuntimeError("begin_plan() requires a fresh reset()")
        return EpisodePlan(self)

    @functools.cached_property
    def layer_table(self) -> LayerTable:
        """This model's :class:`LayerTable`, built once per env for planned
        commits and vector-env waves."""
        return LayerTable.build(self.layers)

    @functools.cached_property
    def _ladder(self) -> Optional[LadderTable]:
        """The ladder table planned commits gather from, built on the
        first commit; ``None`` (also cached) when the ladder has more
        than ``MAX_LADDER_ROWS`` rows."""
        return LadderTable.build(self.cost_model.batched, self.layer_table,
                                 self.space, self.dataflow)

    def _step_figures(self, actions: Sequence[Tuple[int, ...]],
                      assignments: Sequence[Tuple]) -> np.ndarray:
        """``(4, steps)`` latency, energy, area and power of the first
        ``len(actions)`` layers under ``actions`` (decoded as
        ``assignments``): gathered from the ladder table, or scored by
        the kernel when the ladder is too big to tabulate."""
        layer_idx = np.arange(len(actions), dtype=np.int64)
        ladder = self._ladder
        if ladder is not None:
            genes = np.array(actions, dtype=np.int64)
            return ladder.gather(ladder.rows(
                layer_idx, genes[:, 0], genes[:, 1],
                genes[:, 2] if self.space.is_mix else None))
        styles = [a[2] if len(a) == 3 else self.dataflow
                  for a in assignments]
        return self.cost_model.batched.evaluate(
            self.layer_table, layer_idx,
            np.array([STYLE_INDEX[s] for s in styles], dtype=np.int64),
            np.array([a[0] for a in assignments], dtype=np.int64),
            np.array([a[1] for a in assignments], dtype=np.int64),
        ).figures()


class EpisodePlan:
    """One deferred-scoring episode over a :class:`HWAssignmentEnv`.

    The driver loop mirrors the scalar protocol::

        observation = env.reset()
        plan = env.begin_plan()
        while not done:
            action = policy(observation)
            observation, done = plan.step(action)
        rewards, episode = plan.commit()

    :meth:`step` applies the action bookkeeping and the *exact*
    termination rule of ``HWAssignmentEnv.step`` (resource arithmetic, or
    the closed-form area model) without touching the cost model;
    :meth:`commit` gathers every recorded layer's figures from the env's
    :class:`~repro.costmodel.batched.LadderTable` (one kernel call prices
    the whole ladder on the first commit; ladders too big to tabulate
    are scored by one kernel call per commit) and replays the reward
    shaping sequentially, so the rewards, the ``p_min`` trajectory, the
    :class:`EpisodeResult`, and all env counters come out bit-identical
    to the scalar path.
    """

    def __init__(self, env: HWAssignmentEnv) -> None:
        self.env = env
        self._actions: List[Tuple[int, ...]] = []
        self._decoded: List[Tuple] = []
        self._used_budget = 0.0
        self._used_pes = 0
        self._used_l1 = 0
        self._done = False
        self._violated = False

    # ------------------------------------------------------------------
    def _check(self, pes: int, l1_bytes: int) -> bool:
        """The termination rule of ``HWAssignmentEnv._consume``, computed
        without a cost report."""
        constraint = self.env.constraint
        if isinstance(constraint, ResourceConstraint):
            self._used_pes += pes
            self._used_l1 += pes * l1_bytes
            self._used_budget = float(self._used_pes)
            return (self._used_pes > constraint.max_pes
                    or self._used_l1 > constraint.max_l1_bytes)
        # Area accumulates exactly as consumption(report) does: the
        # closed form and the report share one arithmetic (area_model).
        self._used_budget += area_um2(self.env.cost_model.hw, pes, l1_bytes)
        return self._used_budget > constraint.budget

    def step(self, action: Sequence[int]):
        """Record one action; returns (observation, done) -- no reward
        yet, rewards exist only after :meth:`commit`."""
        if self._done:
            raise RuntimeError("step() called on a finished plan")
        env = self.env
        action = tuple(int(a) for a in action)
        step_index = len(self._actions)
        layer = env.layers[step_index]
        decoded = env.space.decode(action)
        self._actions.append(action)
        self._decoded.append(decoded)

        if self._check(decoded[0], decoded[1]):
            self._violated = True
            self._done = True
            observation = env.encoder.encode(layer, step_index, action)
            return observation, True

        next_index = step_index + 1
        self._done = next_index >= env.num_steps
        next_layer = (layer if self._done else env.layers[next_index])
        observation = env.encoder.encode(
            next_layer, min(next_index, env.num_steps - 1), action)
        return observation, self._done

    # ------------------------------------------------------------------
    def commit(self) -> Tuple[List[float], EpisodeResult]:
        """Score the recorded episode from the ladder table and fold the
        outcome back into the env; returns (rewards, episode)."""
        if not self._done:
            raise RuntimeError("commit() before the episode finished")
        env = self.env
        steps = len(self._actions)
        figures = env._step_figures(self._actions, self._decoded)
        env.evaluations += steps
        costs = np.asarray(
            env.objective.evaluate(CostTotals(*figures))).tolist()

        # Sequential replay of the reward shaping, in scalar step order.
        rewards: List[float] = []
        episode_cost = 0.0
        for index, cost in enumerate(costs):
            episode_cost += cost
            if self._violated and index == steps - 1:
                if env.penalty_mode == "accumulated":
                    rewards.append(-ordered_sum(rewards))
                else:
                    rewards.append(env.constant_penalty)
                break
            performance = -cost
            if env.p_min is None or performance < env.p_min:
                env.p_min = performance
            if env.reward_shaping == "pmin":
                rewards.append(performance - env.p_min)
            else:
                rewards.append(performance)

        env._episode_actions = list(self._actions)
        env._episode_assignments = list(self._decoded)
        env._episode_cost = episode_cost
        env._used_budget = self._used_budget
        env._used_pes = self._used_pes
        env._used_l1 = self._used_l1
        episode = env._finish(feasible=not self._violated)
        return rewards, episode
