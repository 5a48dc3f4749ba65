"""ConfuciuX reproduction: autonomous HW resource assignment for DNN
accelerators via reinforcement learning (Kao, Jeong & Krishna, MICRO 2020).

Public API tour -- the unified session layer::

    import repro

    # One call: any registered method, one frozen config, one result.
    result = repro.explore(model="mobilenet_v2", method="confuciux",
                           objective="latency", platform="iot",
                           budget=300, seed=0)
    print(result.summary(), result.best_cost)
    result.save("run.json")          # spec + result round-trip as JSON

    # The same thing, spelled out, with lifecycle observers:
    spec = repro.SearchSpec(model="mobilenet_v2", method="sa",
                            budget=500, seed=0)
    session = repro.SearchSession(spec)
    result = session.run(callbacks=[repro.ProgressReporter(every=100)])

    # Every search method lives in one registry with capability metadata:
    for info in repro.list_methods():
        print(info.name, info.kind)

The two-stage search runs only through the session API above: the
``ConfuciuX`` and ``JointSearch`` classes were removed in 5.0 (a
``confuciux`` session with ``mix=True`` is the MIX search), and a
session's ``detail`` holds the two-stage
:class:`~repro.core.confuciux.ConfuciuXResult`.

Search as a service: :mod:`repro.service` runs the session layer behind
a long-lived server with a job scheduler and a content-addressed result
cache (``repro serve`` / ``submit`` / ``jobs`` / ``cache`` on the CLI;
:class:`~repro.service.SearchServer` / :class:`~repro.service
.ServiceClient` in Python).  Identical submissions dedup to one run; the
next identical submission is an O(1) cache hit, bit-identical to the run
that produced it.

Subpackages:
    search      -- the unified session API (spec, registry, sessions).
    service     -- the search service (server, job scheduler, result
                   cache, ND-JSON transport + client).
    objectives  -- pluggable objectives (weighted/penalty/multi specs)
                   and the Pareto (non-dominated) utilities.
    models      -- DNN workload zoo (layer shapes).
    costmodel   -- the analytical MAESTRO-substitute estimator.
    nn          -- numpy autograd + NN substrate.
    env         -- the RL environment (action space, observation, rewards).
    rl          -- REINFORCE and the six comparison RL algorithms.
    optim       -- grid/random/SA/GA/Bayesian baselines.
    ga          -- stage-2 local fine-tuning GA.
    core        -- orchestrator, constraints, evaluation, reporting.
    analysis    -- the critic-capacity study (Fig. 6).
    experiments -- harness shared by the benchmark suite.
"""

from repro.objectives import (
    MultiObjective,
    Objective,
    PenaltyObjective,
    WeightedObjective,
    list_objectives,
    objective_label,
    register_objective,
    resolve_objective,
)
from repro.models import Layer, LayerType, get_model, list_models
from repro.costmodel import CostModel, HardwareConfig
from repro.env import ActionSpace, HWAssignmentEnv, VectorHWAssignmentEnv
from repro.core.constraints import (
    PlatformConstraint,
    ResourceConstraint,
    platform_constraint,
)
from repro.core.evaluator import DesignPointEvaluator
from repro.rl import RL_ALGORITHMS, Reinforce
from repro.optim import BASELINE_OPTIMIZERS
from repro.ga import LocalGA
from repro.search import (
    CheckpointHook,
    EarlyStopping,
    MethodInfo,
    ProgressReporter,
    SearchObserver,
    SearchSession,
    SearchSpec,
    SessionResult,
    explore,
    get_method,
    list_methods,
    method_names,
    register_method,
)
__version__ = "6.1.0"

__all__ = [
    "Layer",
    "LayerType",
    "get_model",
    "list_models",
    "CostModel",
    "HardwareConfig",
    "ActionSpace",
    "HWAssignmentEnv",
    "VectorHWAssignmentEnv",
    "PlatformConstraint",
    "ResourceConstraint",
    "platform_constraint",
    "DesignPointEvaluator",
    "Reinforce",
    "RL_ALGORITHMS",
    "BASELINE_OPTIMIZERS",
    "LocalGA",
    # Unified session API.
    "SearchSpec",
    "SearchSession",
    "SessionResult",
    "explore",
    "MethodInfo",
    "register_method",
    "get_method",
    "list_methods",
    "method_names",
    "SearchObserver",
    "ProgressReporter",
    "EarlyStopping",
    "CheckpointHook",
    # Objectives and Pareto search.
    "Objective",
    "MultiObjective",
    "WeightedObjective",
    "PenaltyObjective",
    "register_objective",
    "resolve_objective",
    "list_objectives",
    "objective_label",
    # Search as a service (lazy; see __getattr__).
    "SearchServer",
    "ServiceClient",
    "ResultStore",
    "result_key",
    "__version__",
]


def __getattr__(name):
    # The service layer is lazy to keep plain library imports free of
    # socket/server modules.
    if name in ("SearchServer", "ServiceClient", "ResultStore",
                "result_key"):
        import repro.service

        return getattr(repro.service, name)
    raise AttributeError(name)
