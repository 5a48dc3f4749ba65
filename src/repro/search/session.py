"""The unified search façade: one call convention for every method.

Pre-redesign the repository exposed three incompatible surfaces --
``GenomeOptimizer.search(evaluator, epochs)``, RL agents driving
``HWAssignmentEnv``, and a bespoke two-stage pipeline object (removed in
5.0).  :class:`SearchSession` runs any registered method from one frozen
:class:`~repro.search.spec.SearchSpec`::

    from repro import SearchSession, SearchSpec

    spec = SearchSpec(model="mobilenet_v2", method="sa", budget=200, seed=0)
    result = SearchSession(spec).run(callbacks=[ProgressReporter()])
    result.save("run.json")

or, in one call::

    result = repro.explore(model="mobilenet_v2", method="sa", budget=200)

Every method runs on the environment or evaluator its
:class:`~repro.experiments.tasks.TaskSpec` builds; the two-stage runner
(:func:`run_two_stage`) composes ConfuciuX from the registered stage-1
agent and the local GA.  Sessions add *observation only*: with no
callbacks the method runs on exactly the objects a direct call would
build, so best costs are bit-identical for fixed seeds.  With callbacks,
the session's tracker is attached to the environment or evaluator the
method drives: every finished episode and every scored design point
fires the observer protocol, and a requested stop unwinds the method
gracefully.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.confuciux import ConfuciuXResult
from repro.core.serialization import (
    search_result_from_dict,
    search_result_to_dict,
    write_json_atomic,
)
from repro.costmodel.estimator import CostModel
from repro.experiments.tasks import TaskSpec
from repro.ga.local_ga import LocalGA, raw_bounds
from repro.objectives import objective_spec
from repro.rl.common import SearchResult
from repro.search.callbacks import SearchObserver, StopSearch
from repro.search.registry import (
    KIND_EPISODIC,
    KIND_GENOME,
    KIND_TWO_STAGE,
    MethodInfo,
    get_method,
)
from repro.search.spec import SearchSpec


class _Tracker:
    """Observer multiplexer: counts steps, tracks the feasible best, and
    turns observer stop requests into :class:`StopSearch` unwinds."""

    def __init__(self, observers: Sequence[SearchObserver] = ()) -> None:
        self.observers = tuple(observers)
        self.steps = 0
        self.best_cost: Optional[float] = None
        self.best_assignments: Optional[Tuple] = None
        self.best_genome: Optional[List[int]] = None
        self.history: List[float] = []
        self.stopped = False

    @property
    def active(self) -> bool:
        """Whether instrumentation is needed at all."""
        return bool(self.observers)

    def record(self, cost: float, feasible: bool,
               assignments_fn: Optional[Callable[[], Tuple]] = None,
               genome: Optional[List[int]] = None,
               defer_stop: bool = False) -> None:
        """Account one budget unit and fire the observer protocol.

        ``assignments_fn`` is a thunk so the (decode) work is only paid
        when the step actually improves the best.  ``defer_stop`` delays
        the :class:`StopSearch` unwind to the next :meth:`check_stop`
        boundary (environments record with it and check at ``reset``,
        so episodes and waves finish cleanly).
        """
        self.steps += 1
        if feasible and (self.best_cost is None or cost < self.best_cost):
            self.best_cost = cost
            self.best_assignments = (tuple(assignments_fn())
                                     if assignments_fn else None)
            self.best_genome = list(genome) if genome is not None else None
            for observer in self.observers:
                observer.on_improvement(self.steps, cost,
                                        self.best_assignments)
        self.history.append(float("inf") if self.best_cost is None
                            else self.best_cost)
        for observer in self.observers:
            if observer.on_step(self.steps, cost if feasible else None,
                                self.best_cost):
                self.stopped = True
            if observer.stop_requested:
                self.stopped = True
        if self.stopped and not defer_stop:
            raise StopSearch

    def check_stop(self) -> None:
        """Unwind now if a stop was requested (episode boundaries)."""
        if self.stopped:
            raise StopSearch


def check_runnable(info: MethodInfo, deployment: str, envs: int,
                   agent=None) -> None:
    """Refuse a method that cannot run at ``deployment`` and ``envs``.

    Episodic and two-stage methods assign each layer its own design
    point, so they have no ``deployment="ls"``, and at ``envs > 1`` only
    an agent with a lockstep-wave path (``agent.lockstep``: A2C, ACKTR
    and PPO2) runs.  Without ``agent`` one is built from
    ``info.factory``, and only at ``envs > 1``.  Genome-space methods
    run either way.

    Raises:
        ValueError: naming the method.
    """
    if info.kind == KIND_GENOME:
        return
    if deployment == "ls":
        raise ValueError(
            f'{info.name}: only genome-space methods support '
            'deployment="ls"; episodic and two-stage methods assign a '
            'design point per layer (deployment="lp")')
    if envs > 1:
        if agent is None:
            agent = info.factory(seed=0)
        if not getattr(agent, "lockstep", False):
            raise ValueError(
                f"{info.name} has no lockstep-wave path: run it at envs=1")


class SessionContext:
    """Everything a method runner needs to drive one search.

    Built by :class:`SearchSession` (from a :class:`SearchSpec`) and by
    :func:`repro.experiments.runner.compare_methods` (from a
    :class:`TaskSpec`), so both share one set of runners.
    """

    def __init__(self, task: TaskSpec, budget: int,
                 seed: Optional[int] = 0,
                 finetune: Optional[int] = None,
                 cost_model: Optional[CostModel] = None,
                 constraint=None,
                 tracker: Optional[_Tracker] = None,
                 envs: int = 1) -> None:
        if budget < 1:
            raise ValueError("budget must be >= 1")
        if envs < 1:
            raise ValueError("envs must be >= 1")
        self.task = task
        self.budget = budget
        self.seed = seed
        self._finetune = finetune
        self.cost_model = cost_model if cost_model is not None else CostModel()
        self._constraint = constraint
        self.tracker = tracker if tracker is not None else _Tracker()
        #: Lockstep episode count for episodic methods (1 = scalar
        #: stepping; >1 wraps the env in a VectorHWAssignmentEnv, for
        #: the agents with a lockstep-wave path only).
        self.envs = envs
        #: Method-specific rich result (e.g. the two-stage
        #: ConfuciuXResult), surfaced as ``SessionResult.detail``.
        self.detail: Any = None

    @property
    def constraint(self):
        """The task constraint, built once on first use."""
        if self._constraint is None:
            self._constraint = self.task.constraint(self.cost_model)
        return self._constraint

    @property
    def finetune(self) -> int:
        """Stage-2 budget for two-stage methods, in LocalGA generations
        (20 initial designs, then up to 18 offspring each; default
        ``budget//4``)."""
        return self.budget // 4 if self._finetune is None else self._finetune

    def make_env(self, info: MethodInfo, agent):
        """A fresh environment for ``agent``, the agent (or the stage-1
        agent) of method ``info``: observed when callbacks are
        attached, and with ``envs > 1`` wrapped in a
        :class:`~repro.env.vector.VectorHWAssignmentEnv`, so the agent
        rolls lockstep episode waves with one batched cost call per
        layer step.  ``envs == 1`` keeps the scalar stepping path (to
        which single-env waves are bit-identical -- see
        tests/test_rl_vector_parity.py).

        Raises:
            ValueError: when :func:`check_runnable` refuses the method
                (``deployment="ls"``, or ``envs > 1`` without a
                lockstep-wave path).
        """
        check_runnable(info, self.task.deployment, self.envs, agent)
        env = self.task.make_env(self.cost_model, self.constraint)
        if self.tracker.active:
            env._tracker = self.tracker
        if self.envs == 1:
            return env
        from repro.env.vector import VectorHWAssignmentEnv

        return VectorHWAssignmentEnv(env, self.envs)

    def make_evaluator(self):
        """A fresh genome evaluator, observed when callbacks are
        attached."""
        evaluator = self.task.make_evaluator(self.cost_model,
                                             self.constraint)
        if self.tracker.active:
            evaluator._tracker = self.tracker
        return evaluator


# ----------------------------------------------------------------------
# Per-kind method runners.
def _stopped_result(name: str, tracker: _Tracker, evaluations: int,
                    episodes: int, started: float) -> SearchResult:
    """Synthesize the outcome of an early-stopped search from the
    tracker's own bookkeeping."""
    result = SearchResult(algorithm=name)
    result.best_cost = tracker.best_cost
    result.best_assignments = tracker.best_assignments
    result.best_genome = tracker.best_genome
    result.history = list(tracker.history)
    result.evaluations = evaluations
    result.episodes = episodes
    result.wall_time_s = time.perf_counter() - started
    result.extra["stopped_early"] = True
    return result


def run_episodic(info: MethodInfo, context: SessionContext) -> SearchResult:
    """Drive an episodic-RL method: ``method.search(env, episodes)``."""
    method = info.factory(seed=context.seed)
    env = context.make_env(info, method)
    started = time.perf_counter()
    try:
        return method.search(env, context.budget)
    except StopSearch:
        return _stopped_result(info.name, context.tracker, env.evaluations,
                               env.episodes, started)


def run_genome(info: MethodInfo, context: SessionContext) -> SearchResult:
    """Drive a genome-space method: ``method.search(evaluator, budget)``."""
    method = info.factory(seed=context.seed)
    evaluator = context.make_evaluator()
    started = time.perf_counter()
    try:
        return method.search(evaluator, context.budget)
    except StopSearch:
        result = _stopped_result(info.name, context.tracker,
                                 evaluator.evaluations,
                                 context.tracker.steps, started)
        # Whatever the method built before the stop (``pareto-ga``: the
        # front of its scored generations); registered factories need
        # not return a GenomeOptimizer.
        extra_so_far = getattr(method, "extra_so_far", None)
        if extra_so_far is not None:
            result.extra.update(extra_so_far())
        return result


def run_local_ga(info: MethodInfo, context: SessionContext) -> SearchResult:
    """Drive the stage-2 GA standalone: it fine-tunes from the documented
    deterministic seed point -- the minimal uniform genome (level 0 per
    gene, style index 0 under MIX, the most-feasible corner of the
    space) -- with raw bounds derived from the action space exactly as
    the two-stage pipeline derives them.

    ``budget`` counts design-point evaluations, the same currency every
    genome-space method spends, and is converted to GA generations
    (initial population + offspring per generation), so equal-budget
    comparisons against the other methods stay fair.
    """
    evaluator = context.make_evaluator()
    method = info.factory(seed=context.seed, **raw_bounds(evaluator.space))
    genome = [0] * evaluator.genome_length
    initial = evaluator.decode_genome(genome)
    generations = max(1, (context.budget - method.population_size)
                      // (method.population_size - method.elite))
    started = time.perf_counter()
    try:
        return method.search(evaluator, initial, generations)
    except StopSearch:
        return _stopped_result(info.name, context.tracker,
                               evaluator.evaluations, context.tracker.steps,
                               started)


def run_two_stage(info: MethodInfo, context: SessionContext) -> SearchResult:
    """Drive ConfuciuX's two stages (paper Fig. 3).

    Stage 1 is the registered agent (``info.factory`` builds it, as for
    an episodic method) searching :meth:`SessionContext.make_env`, so
    observers see one ``on_step`` per episode.  Both built-in two-stage
    methods run REINFORCE there, which updates once per episode
    (Section III) and has no lockstep-wave path, so ``envs > 1`` raises
    :class:`ValueError`.  Stage 2 is the local GA, which fine-tunes the
    stage-1 best design in the raw space on the task's evaluator; it
    runs unobserved and is reflected in the final result.  A stop
    requested during stage 1 skips stage 2, even when stage 1 had
    reached its last episode.  Both stages run under the task's
    constraint, which under MIX is calibrated on
    ``SearchSpec.dataflow`` as for every other method.  The
    :class:`ConfuciuXResult` becomes the session's ``detail``.
    """
    agent = info.factory(seed=context.seed)
    env = context.make_env(info, agent)
    started = time.perf_counter()
    try:
        global_result = agent.search(env, context.budget)
        # A stop requested in the global stage's last episode is still
        # pending here; it skips stage 2.
        context.tracker.check_stop()
    except StopSearch:
        return _stopped_result(info.name, context.tracker, env.evaluations,
                               env.episodes, started)
    task = context.task
    outcome = ConfuciuXResult(objective=objective_spec(task.objective),
                              constraint=context.constraint,
                              global_result=global_result,
                              finetune_result=None)
    if global_result.best_cost is not None:
        evaluator = task.make_evaluator(context.cost_model,
                                        context.constraint)
        if context.finetune > 0:
            ga = LocalGA(seed=context.seed, **raw_bounds(evaluator.space))
            outcome.finetune_result = ga.search(
                evaluator, global_result.best_assignments, context.finetune)
        outcome._final_used = evaluator.evaluate_raw(
            outcome.best_assignments).used
    context.detail = outcome
    return _two_stage_search_result(info.name, outcome)


def _two_stage_search_result(name: str, outcome) -> SearchResult:
    """Flatten a :class:`ConfuciuXResult` into the uniform result type."""
    stage1 = outcome.global_result
    stage2 = outcome.finetune_result
    result = SearchResult(algorithm=name)
    result.best_cost = outcome.best_cost
    result.best_assignments = outcome.best_assignments
    result.best_genome = (stage2.best_genome
                          if stage2 is not None
                          and stage2.best_genome is not None
                          else stage1.best_genome)
    result.history = outcome.trace
    result.evaluations = stage1.evaluations
    result.episodes = stage1.episodes
    result.cache_hits = stage1.cache_hits
    result.wall_time_s = stage1.wall_time_s
    result.memory_bytes = stage1.memory_bytes
    if stage2 is not None:
        result.evaluations += stage2.evaluations
        result.episodes += stage2.episodes
        result.cache_hits += stage2.cache_hits
        result.wall_time_s += stage2.wall_time_s
        result.memory_bytes = max(result.memory_bytes, stage2.memory_bytes)
    impr1, impr2 = outcome.improvement_fractions()
    utilization = outcome.utilization()
    result.extra.update({
        "initial_valid_cost": outcome.initial_valid_cost,
        "global_cost": outcome.global_cost,
        "finetune_cost": stage2.best_cost if stage2 is not None else None,
        "global_improvement": impr1,
        "finetune_improvement": impr2,
        "constraint_used": (utilization.used
                            if utilization is not None else None),
        "constraint_budget": (utilization.budget
                              if utilization is not None else None),
    })
    return result


#: Default run protocol per method kind.
DEFAULT_RUNNERS: Dict[str, Callable] = {
    KIND_EPISODIC: run_episodic,
    KIND_GENOME: run_genome,
    KIND_TWO_STAGE: run_two_stage,
}


def run_method(info: MethodInfo, context: SessionContext) -> SearchResult:
    """Run one registered method in ``context`` (registry override or the
    default runner for its kind)."""
    runner = info.runner if info.runner is not None \
        else DEFAULT_RUNNERS[info.kind]
    return runner(info, context)


# ----------------------------------------------------------------------
@dataclass
class SessionResult:
    """A :class:`SearchResult` plus the spec and provenance of its run.

    Serializes to a single JSON document (``to_json``/``save``) from which
    both the spec and the result round-trip (``from_json``/``load``), so a
    long search is reproducible from its own output file.

    Attributes:
        spec: The exact configuration that produced this result.
        result: The uniform search outcome.
        stopped_early: Whether an observer stopped the run before the
            budget was exhausted.
        provenance: Run metadata (package version, method kind,
            timestamps).
        detail: Method-specific rich result object (e.g. the two-stage
            :class:`~repro.core.confuciux.ConfuciuXResult`); not
            serialized.
    """

    spec: SearchSpec
    result: SearchResult
    stopped_early: bool = False
    provenance: Dict[str, Any] = field(default_factory=dict)
    detail: Any = field(default=None, repr=False, compare=False)

    # Convenience views ------------------------------------------------
    @property
    def method(self) -> str:
        return self.spec.method

    @property
    def feasible(self) -> bool:
        return self.result.feasible

    @property
    def best_cost(self) -> Optional[float]:
        return self.result.best_cost

    @property
    def best_assignments(self) -> Optional[Tuple]:
        return self.result.best_assignments

    @property
    def history(self) -> List[float]:
        return self.result.history

    @property
    def pareto_front(self) -> Optional[List[Dict[str, Any]]]:
        """The non-dominated front a multi-objective method found, as a
        list of JSON-safe ``{"objectives": {name: value}, "genome": ...,
        "assignments": ...}`` records (``None`` for scalar methods).
        Lives in ``result.extra``, so it serializes with the session."""
        return self.result.extra.get("pareto_front")

    def summary(self) -> str:
        """One line: method, model, outcome.  For multi-objective runs
        the scalar figure is labelled with its primary component (that
        is all ``best_cost`` tracks); the front size is appended."""
        from repro.objectives import objective_cost_label

        cost = self.result.format_cost()
        flag = " (stopped early)" if self.stopped_early else ""
        front = self.pareto_front
        if front is not None:
            flag += f", {len(front)}-point Pareto front"
        return (f"{self.method} on {self.spec.model}: "
                f"best {objective_cost_label(self.spec.objective)} {cost} "
                f"in {self.result.evaluations} evaluations{flag}")

    # Serialization ----------------------------------------------------
    def to_dict(self) -> dict:
        """A JSON-safe dict capturing spec, result, and provenance."""
        return {
            "spec": self.spec.to_dict(),
            "result": search_result_to_dict(self.result),
            "stopped_early": self.stopped_early,
            "provenance": dict(self.provenance),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SessionResult":
        """Inverse of :meth:`to_dict` (``detail`` is not restored)."""
        return cls(
            spec=SearchSpec.from_dict(data["spec"]),
            result=search_result_from_dict(data["result"]),
            stopped_early=data.get("stopped_early", False),
            provenance=dict(data.get("provenance", {})),
        )

    def to_json(self, indent: Optional[int] = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_json(cls, document: str) -> "SessionResult":
        return cls.from_dict(json.loads(document))

    def save(self, path) -> None:
        """Write this result (spec included) to ``path`` as JSON,
        atomically: a reader sees the old file or the whole new one."""
        write_json_atomic(path, self.to_dict())

    @classmethod
    def load(cls, path) -> "SessionResult":
        """Read a result previously written by :meth:`save`."""
        with open(path) as handle:
            return cls.from_json(handle.read())


class SearchSession:
    """One search run: spec in, :class:`SessionResult` out.

    Args:
        spec: The frozen run configuration (also fixes the method).
        cost_model: Optional shared estimator; pass one to reuse its layer
            cache across many sessions (the comparison-grid pattern).

    The session validates the method name eagerly, so typos fail at
    construction, not after minutes of search, and so does a spec the
    method cannot run (:func:`check_runnable`).
    """

    def __init__(self, spec: SearchSpec,
                 cost_model: Optional[CostModel] = None) -> None:
        self.spec = spec
        self.info = get_method(spec.method)
        check_runnable(self.info, spec.deployment, spec.resolved_envs())
        self.cost_model = cost_model if cost_model is not None else CostModel()
        self.result: Optional[SessionResult] = None

    def run(self, callbacks: Sequence[SearchObserver] = ()) -> SessionResult:
        """Run the method to its budget (or an observer stop) and return
        the wrapped result.  Sessions are reusable: each ``run`` builds a
        fresh method/environment from the spec.

        ``on_teardown`` fires from a ``finally``, so on every exit path.
        Observer hooks are only attached for caller-passed callbacks, so
        a bare ``run()`` still drives exactly the legacy objects.
        """
        import repro

        observers = list(callbacks)
        tracker = _Tracker(observers)
        context = SessionContext(
            task=self.spec.task(), budget=self.spec.budget,
            seed=self.spec.seed, finetune=self.spec.finetune,
            cost_model=self.cost_model, tracker=tracker,
            envs=self.spec.resolved_envs())
        for observer in observers:
            observer._begin_run()
            observer.on_start(self)
        started_at = time.strftime("%Y-%m-%dT%H:%M:%S")
        try:
            search_result = run_method(self.info, context)
        finally:
            for observer in observers:
                observer.on_teardown()
        outcome = SessionResult(
            spec=self.spec,
            result=search_result,
            stopped_early=tracker.stopped,
            provenance={
                "repro_version": repro.__version__,
                "method_kind": self.info.kind,
                "envs": context.envs,
                "started_at": started_at,
                "finished_at": time.strftime("%Y-%m-%dT%H:%M:%S"),
            },
            detail=context.detail,
        )
        for observer in observers:
            observer.on_finish(outcome)
        self.result = outcome
        return outcome


def explore(model: str, method: str = "confuciux", budget: int = 500,
            seed: Optional[int] = 0,
            callbacks: Sequence[SearchObserver] = (),
            cost_model: Optional[CostModel] = None,
            **spec_kwargs) -> SessionResult:
    """One-call entry point: build a spec, run a session, return the
    result.

    Example::

        import repro

        result = repro.explore(model="mobilenet_v2", method="sa",
                               budget=200, seed=0, platform="iotx")
        print(result.summary())

    Extra keyword arguments flow into :class:`SearchSpec` (``objective``,
    ``platform``, ``layer_slice``, ...).
    """
    spec = SearchSpec(model=model, method=method, budget=budget, seed=seed,
                      **spec_kwargs)
    return SearchSession(spec, cost_model=cost_model).run(callbacks=callbacks)
