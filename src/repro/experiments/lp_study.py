"""LP-deployment comparison rows (Tables III, IV and V).

The grids' columns and the paper's row format for the results of
:func:`repro.experiments.runner.compare_methods`: the converged
objective value per method, "NAN" when a method never found a feasible
point.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.rl.common import SearchResult
from repro.search.registry import KIND_EPISODIC, KIND_GENOME, list_methods


def classic_optimizer_methods() -> tuple:
    """Table IV columns from the registry: every standalone genome-space
    optimizer (fine-tuners like ``local-ga`` need a seed point, so they
    are not from-scratch comparison columns), then Con'X(global).  A
    newly registered optimizer appears in the grid automatically."""
    names = [info.name for info in list_methods(kind=KIND_GENOME,
                                                include_variants=False)
             if not info.supports_finetune]
    return tuple(names) + ("reinforce",)


def rl_comparison_methods() -> tuple:
    """Table V columns from the registry: every episodic-RL method
    (ablation variants excluded), with Con'X(global) last.  A newly
    registered RL algorithm appears in the grid automatically."""
    names = [info.name for info in list_methods(kind=KIND_EPISODIC,
                                                include_variants=False)
             if info.name != "reinforce"]
    return tuple(names) + ("reinforce",)


#: Paper column names for the comparison grids; methods registered after
#: the paper fall back to their registry name.
PAPER_COLUMN_NAMES = {
    "grid": "Grid",
    "random": "Random",
    "sa": "SA",
    "ga": "GA",
    "bayesian": "Bayes.Opt.",
    "a2c": "A2C",
    "acktr": "ACKTR",
    "ppo2": "PPO2",
    "ddpg": "DDPG",
    "td3": "TD3",
    "sac": "SAC",
    "reinforce": "Con'X (global)",
}


def display_columns(methods: Sequence[str]) -> List[str]:
    """Header cells for ``methods``, failing fast on unknown names."""
    from repro.search.registry import get_method

    for name in methods:
        get_method(name)
    return [PAPER_COLUMN_NAMES.get(name, name) for name in methods]


#: The Table III column methods.
TABLE3_METHODS = ("ga", "ppo2", "reinforce")


def format_row(label: str, results: Dict[str, SearchResult],
               methods: Sequence[str]) -> List[str]:
    """Row cells in method order, formatted like the paper's tables."""
    return [label] + [results[m].format_cost() for m in methods]


def winners(results: Dict[str, SearchResult]) -> List[str]:
    """Methods achieving the best (lowest) feasible cost in a row."""
    feasible = {name: r.best_cost for name, r in results.items()
                if r.best_cost is not None}
    if not feasible:
        return []
    best = min(feasible.values())
    return [name for name, cost in feasible.items()
            if cost <= best * (1.0 + 1e-9)]
