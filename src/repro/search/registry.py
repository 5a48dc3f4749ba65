"""One global registry for every search method in the repository.

The paper compares three incompatible families -- episodic RL agents that
drive :class:`~repro.env.environment.HWAssignmentEnv`, genome-space
optimizers that consume a :class:`~repro.core.evaluator.DesignPointEvaluator`
budget, and the two-stage ConfuciuX pipeline.  This module names them all
in one table with capability metadata, so harnesses (the CLI, the
comparison grids, :class:`~repro.search.session.SearchSession`) enumerate
and construct methods uniformly instead of hand-rolling per-family glue.

Seed contract
-------------
Every registered factory MUST accept ``seed`` as a keyword argument where
``seed=None`` is valid, and derive all of its randomness from
``np.random.default_rng(seed)`` (one generator per constructed method).
This is the single seeding spec for the repository: equal
``(spec, seed)`` pairs produce bit-identical searches, and ``seed=None``
draws fresh OS entropy.

Registering a new method::

    from repro.search import register_method

    register_method("my-opt", MyOptimizer, kind="genome", batchable=True)

``factory`` may be the method class itself (constructed as
``factory(seed=seed, **options)``) or any callable with that signature.
Once registered the method appears in ``python -m repro methods``, is
accepted by ``repro.explore(method="my-opt")``, and joins the Table IV/V
comparison grids automatically.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

#: The three method families (``MethodInfo.kind``).
KIND_EPISODIC = "episodic-rl"   # .search(env, episodes)
KIND_GENOME = "genome"          # .search(evaluator, evaluations)
KIND_TWO_STAGE = "two-stage"    # global RL stage + local fine-tune stage

KINDS = (KIND_EPISODIC, KIND_GENOME, KIND_TWO_STAGE)


@dataclass(frozen=True)
class MethodInfo:
    """Registry entry: how to build a method plus what it can do.

    Attributes:
        name: Unique registry key (the CLI/table column name).
        factory: ``factory(seed=None, **options)`` -> method instance.
        kind: One of :data:`KINDS` -- decides which run protocol the
            session uses.
        batchable: The method scores candidate sets through the batched
            population evaluator (PERFORMANCE.md fast path).
        supports_finetune: The method fine-tunes from a seed design point
            (stage-2 role) rather than searching from scratch.
        variant_of: Name of the base method this is an ablation/variant
            of; variants are excluded from the paper's comparison grids.
        description: One-line summary for ``python -m repro methods``.
        runner: Optional override for how a session drives the method;
            ``None`` selects the default runner for ``kind``.  Signature:
            ``runner(info, context) -> SearchResult``.
    """

    name: str
    factory: Callable
    kind: str
    batchable: bool = False
    supports_finetune: bool = False
    variant_of: Optional[str] = None
    description: str = ""
    runner: Optional[Callable] = field(default=None, compare=False)


_REGISTRY: Dict[str, MethodInfo] = {}


def register_method(name: str, factory: Callable, *, kind: str,
                    batchable: bool = False, supports_finetune: bool = False,
                    variant_of: Optional[str] = None, description: str = "",
                    runner: Optional[Callable] = None,
                    overwrite: bool = False) -> MethodInfo:
    """Register a search method under ``name``; returns its entry.

    Raises:
        ValueError: on an unknown ``kind`` or a duplicate ``name``
            (unless ``overwrite=True``).
    """
    if kind not in KINDS:
        raise ValueError(f"kind must be one of {KINDS}, got {kind!r}")
    if not overwrite and name in _REGISTRY:
        raise ValueError(
            f"method {name!r} is already registered; "
            f"pass overwrite=True to replace it")
    info = MethodInfo(name=name, factory=factory, kind=kind,
                      batchable=batchable,
                      supports_finetune=supports_finetune,
                      variant_of=variant_of, description=description,
                      runner=runner)
    _REGISTRY[name] = info
    return info


def unregister_method(name: str) -> None:
    """Remove ``name`` from the registry (primarily for tests)."""
    _REGISTRY.pop(name, None)


def get_method(name: str) -> MethodInfo:
    """Look up one method, failing fast on typos."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown method {name!r}; available: "
            f"{', '.join(sorted(_REGISTRY))}") from None


def list_methods(kind: Optional[str] = None,
                 include_variants: bool = True) -> List[MethodInfo]:
    """Registry entries in registration order, optionally filtered."""
    return [info for info in _REGISTRY.values()
            if (kind is None or info.kind == kind)
            and (include_variants or info.variant_of is None)]


def method_names(kind: Optional[str] = None,
                 include_variants: bool = True) -> List[str]:
    """Registered names in registration order, optionally filtered."""
    return [info.name for info in list_methods(kind, include_variants)]


# ----------------------------------------------------------------------
# Built-in registrations.
def _construct(cls, seed=None, **options):
    """The canonical factory: ``cls(seed=seed, **options)``."""
    return cls(seed=seed, **options)


def _confuciux_factory(seed=None, **options):
    """Deferred ConfuciuX import keeps the package import graph acyclic;
    the session's two-stage runner builds the pipeline itself, so this
    factory returns the class partially bound to its options."""
    from repro.core.confuciux import ConfuciuX

    return functools.partial(ConfuciuX, seed=seed, **options)


def _local_ga_runner(info, context):
    """Late-bound session runner (breaks the registry<->session cycle)."""
    from repro.search.session import run_local_ga

    return run_local_ga(info, context)


def _register_builtins() -> None:
    """Absorb every search method the repository ships into the registry."""
    from repro.ga.local_ga import LocalGA
    from repro.optim import BASELINE_OPTIMIZERS
    from repro.rl import RL_ALGORITHMS

    baseline_blurbs = {
        "grid": "strided exhaustive sweep of the level grid",
        "random": "uniform random sampling of the level grid",
        "sa": "simulated annealing over level genomes",
        "ga": "conventional genetic algorithm over level genomes",
        "bayesian": "GP-lite Bayesian optimization with EI acquisition",
    }
    for name, cls in BASELINE_OPTIMIZERS.items():
        register_method(
            name, functools.partial(_construct, cls), kind=KIND_GENOME,
            batchable=True, description=baseline_blurbs.get(name, ""))

    rl_blurbs = {
        "reinforce": "Con'X(global): actor-only policy gradient, LSTM",
        "a2c": "advantage actor-critic",
        "acktr": "actor-critic with Kronecker-factored trust region",
        "ppo2": "clipped-objective proximal policy optimization",
        "ddpg": "deep deterministic policy gradient (box actions)",
        "td3": "twin-delayed DDPG (box actions)",
        "sac": "soft actor-critic (box actions)",
    }
    for name, cls in RL_ALGORITHMS.items():
        register_method(
            name, functools.partial(_construct, cls), kind=KIND_EPISODIC,
            description=rl_blurbs.get(name, ""))
    register_method(
        "reinforce-mlp",
        functools.partial(_construct, RL_ALGORITHMS["reinforce"],
                          policy="mlp"),
        kind=KIND_EPISODIC, variant_of="reinforce",
        description="Table IX ablation: REINFORCE with an MLP policy")

    from repro.optim.pareto_ga import ParetoGA

    register_method(
        "pareto-ga", functools.partial(_construct, ParetoGA),
        kind=KIND_GENOME, batchable=True,
        description="NSGA-II multi-objective search; returns a Pareto "
                    "front (pair with objective='multi:...')")
    register_method(
        "local-ga", functools.partial(_construct, LocalGA),
        kind=KIND_GENOME, batchable=True, supports_finetune=True,
        runner=_local_ga_runner,
        description="stage-2 local fine-tuning GA (raw integer space)")
    register_method(
        "confuciux", _confuciux_factory, kind=KIND_TWO_STAGE,
        batchable=True, supports_finetune=True,
        description="two-stage pipeline: REINFORCE global + local-GA "
                    "fine-tune")
    register_method(
        "confuciux-mlp",
        functools.partial(_confuciux_factory, policy="mlp"),
        kind=KIND_TWO_STAGE, batchable=True, supports_finetune=True,
        variant_of="confuciux",
        description="Table IX ablation: the two-stage pipeline with an "
                    "MLP policy")


_register_builtins()
