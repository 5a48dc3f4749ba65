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

These rules live in three private methods of :class:`HWAssignmentEnv`
that act on an :class:`EpisodeRecord`: ``_charge`` (budget and
violation), ``_reward`` (penalty, shaping and the ``P_min`` fold) and
``_close`` (the :class:`EpisodeResult`, ``best``, ``episodes`` and an
observed session's record of the episode).  The
three episode drivers differ only in where a layer's figures come from:
:meth:`HWAssignmentEnv.step` scores each layer with the scalar cost
model, :class:`EpisodePlan` charges the closed-form area while the agent
samples and gathers the costs at commit, and
:class:`~repro.env.vector.VectorHWAssignmentEnv` scores a wave of
episodes in one kernel call and applies the rules row by row.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.constraints import ResourceConstraint
from repro.core.evaluator import Constraint
from repro.costmodel.batched import (
    STYLE_INDEX,
    LadderTable,
    LayerTable,
    ordered_sum,
)
from repro.costmodel.estimator import CostModel, area_um2
from repro.costmodel.report import BatchCostReport
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


@dataclass
class EpisodeRecord:
    """The running record of one episode, kept by the env's rule methods.

    Each driver holds one per live episode: the scalar env and its
    :class:`EpisodePlan` share ``HWAssignmentEnv._episode``; a vector
    env keeps one per lockstep episode.
    """

    actions: List[Tuple[int, ...]] = field(default_factory=list)
    assignments: List[Tuple] = field(default_factory=list)
    rewards: List[float] = field(default_factory=list)
    cost: float = 0.0
    used: float = 0.0
    used_pes: int = 0
    used_l1: int = 0
    done: bool = False


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

        self._episode = EpisodeRecord()
        #: An observed session's tracker (``None`` otherwise): ``reset``
        #: unwinds a stop it holds, ``_close`` records every episode.
        self._tracker = None

    # ------------------------------------------------------------------
    @property
    def num_steps(self) -> int:
        return len(self.layers)

    @property
    def observation_dim(self) -> int:
        return 10

    # ------------------------------------------------------------------
    def reset(self) -> np.ndarray:
        """Start a new episode; returns the first observation."""
        if self._tracker is not None:
            self._tracker.check_stop()
        self._episode = EpisodeRecord()
        return self.encoder.encode(self.layers[0], 0, None)

    def step(self, action: Sequence[int]):
        """Apply one action pair; returns (obs, reward, done, info).

        ``info['episode']`` carries the :class:`EpisodeResult` on the step
        that ends the episode (success or violation), else ``None``.
        """
        episode = self._episode
        if episode.done:
            raise RuntimeError("step() called on a finished episode; reset()")
        action = tuple(int(a) for a in action)
        index = len(episode.actions)
        decoded = self.space.decode(action)
        style = decoded[2] if len(decoded) == 3 else self.dataflow
        report = self.cost_model.evaluate_layer(
            self.layers[index], style, decoded[0], decoded[1])
        self.evaluations += 1

        violated = self._charge(episode, action, decoded, report.constraint)
        reward = self._reward(episode, self.objective.evaluate(report),
                              violated)
        done = violated or index + 1 == self.num_steps
        result = self._close(episode, feasible=not violated) if done else None
        return self._observe(index, action, done), reward, done, {
            "report": report, "violated": violated, "episode": result,
        }

    def _observe(self, index: int, action: Tuple[int, ...],
                 done: bool) -> np.ndarray:
        """The observation after acting ``action`` on layer ``index``:
        the next layer's, or this layer's again once the episode ends."""
        if not done:
            index += 1
        return self.encoder.encode(self.layers[index], index, action)

    # ------------------------------------------------------------------
    # The episode rules, shared by every driver
    # ------------------------------------------------------------------
    def _charge(self, episode: EpisodeRecord, action: Tuple[int, ...],
                assignment: Tuple,
                layer_use: Callable[[str], float]) -> bool:
        """Record one step on ``episode`` and charge its layer against the
        budget; True once the budget is violated.

        ``layer_use(kind)`` is the layer's area or power; FPGA caps
        charge PEs and L1 bytes instead and never ask for it.
        """
        episode.actions.append(action)
        episode.assignments.append(assignment)
        pes, l1_bytes = assignment[0], assignment[1]
        constraint = self.constraint
        if isinstance(constraint, ResourceConstraint):
            episode.used_pes += pes
            episode.used_l1 += pes * l1_bytes
            episode.used = float(episode.used_pes)
            return (episode.used_pes > constraint.max_pes
                    or episode.used_l1 > constraint.max_l1_bytes)
        episode.used += layer_use(constraint.kind)
        return episode.used > constraint.budget

    def _reward(self, episode: EpisodeRecord, cost: float,
                violated: bool) -> float:
        """Add one step's objective ``cost`` to ``episode`` and return its
        reward: the penalty on a violation, else the shaped performance,
        folding it into the cross-episode ``p_min``."""
        episode.cost += cost
        if violated:
            if self.penalty_mode == "accumulated":
                # Equation 2: the penalty is the negated accumulated
                # reward, scaling itself to the objective's magnitude.
                reward = -ordered_sum(episode.rewards)
            else:
                reward = self.constant_penalty
        else:
            performance = -cost
            if self.p_min is None or performance < self.p_min:
                self.p_min = performance
            if self.reward_shaping == "pmin":
                reward = performance - self.p_min
            else:
                reward = performance
        episode.rewards.append(reward)
        return reward

    def _close(self, episode: EpisodeRecord,
               feasible: bool) -> EpisodeResult:
        """End ``episode``: count it, keep it as ``best`` if it is the
        cheapest feasible one yet, record it with an observed session's
        tracker, and return its result."""
        episode.done = True
        self.episodes += 1
        result = EpisodeResult(
            actions=tuple(episode.actions),
            assignments=tuple(episode.assignments),
            cost=episode.cost,
            used=episode.used,
            feasible=feasible,
            steps=len(episode.actions),
        )
        if feasible and (self.best is None or result.cost < self.best.cost):
            self.best = result
        if self._tracker is not None:
            self._tracker.record(result.cost, feasible,
                                 assignments_fn=lambda: result.assignments,
                                 genome=result.genome, defer_stop=True)
        return result

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
        if self._episode.done or self._episode.actions:
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
        return self._evaluate(layer_idx, assignments).figures()

    def _evaluate(self, layer_idx: np.ndarray,
                  assignments: Sequence[Tuple]) -> BatchCostReport:
        """Layers ``layer_idx`` under the decoded ``assignments``, scored
        in one kernel call."""
        return self.cost_model.batched.evaluate(
            self.layer_table, layer_idx,
            np.array([STYLE_INDEX[a[2] if len(a) == 3 else self.dataflow]
                      for a in assignments], dtype=np.int64),
            np.array([a[0] for a in assignments], dtype=np.int64),
            np.array([a[1] for a in assignments], dtype=np.int64))


class EpisodePlan:
    """One deferred-scoring episode over a :class:`HWAssignmentEnv`.

    The driver loop mirrors the scalar protocol::

        observation = env.reset()
        plan = env.begin_plan()
        while not done:
            action = policy(observation)
            observation, done = plan.step(action)
        rewards, episode = plan.commit()

    :meth:`step` records each action on the env's episode and charges
    its layer through the env's rules, with the closed-form area in
    place of a cost report, so termination is exact before any cost
    exists; :meth:`commit` gathers every recorded layer's figures from
    the env's :class:`~repro.costmodel.batched.LadderTable` (one kernel
    call prices the whole ladder on the first commit; ladders too big to
    tabulate are scored by one kernel call per commit) and takes the
    rewards step by step from the same rules, so the rewards, the
    ``p_min`` trajectory, the :class:`EpisodeResult`, and all env
    counters come out bit-identical to the scalar path.
    """

    def __init__(self, env: HWAssignmentEnv) -> None:
        self.env = env
        self._episode = env._episode
        self._done = False
        self._violated = False

    def step(self, action: Sequence[int]):
        """Record one action; returns (observation, done) -- no reward
        yet, rewards exist only after :meth:`commit`."""
        if self._done:
            raise RuntimeError("step() called on a finished plan")
        env, episode = self.env, self._episode
        action = tuple(int(a) for a in action)
        index = len(episode.actions)
        decoded = env.space.decode(action)
        hw = env.cost_model.hw
        # plan_supported() admits area budgets only, and area has a
        # closed form that a cost report shares bit for bit.
        self._violated = env._charge(
            episode, action, decoded,
            lambda kind: area_um2(hw, decoded[0], decoded[1]))
        self._done = self._violated or index + 1 == env.num_steps
        return env._observe(index, action, self._done), self._done

    def commit(self) -> Tuple[List[float], EpisodeResult]:
        """Score the recorded episode from the ladder table and fold the
        outcome back into the env; returns (rewards, episode)."""
        if not self._done:
            raise RuntimeError("commit() before the episode finished")
        env, episode = self.env, self._episode
        steps = len(episode.actions)
        figures = env._step_figures(episode.actions, episode.assignments)
        env.evaluations += steps
        costs = np.asarray(
            env.objective.evaluate(CostTotals(*figures))).tolist()
        rewards = [env._reward(episode, cost,
                               self._violated and index == steps - 1)
                   for index, cost in enumerate(costs)]
        return rewards, env._close(episode, feasible=not self._violated)
