"""One global registry and spec grammar for optimization objectives.

Objectives reach a search through ``SearchSpec.objective`` (and the CLI's
``--objective``), which must stay JSON-serializable.  The registry maps
*specs* -- a plain name, a compact string form, or a structured dict --
to :class:`~repro.objectives.base.Objective` instances:

========================================  ==================================
spec                                      objective
========================================  ==================================
``"latency"``                             registered named objective
``"weighted:latency=0.5,energy=0.5"``     weighted component sum
``"multi:latency,energy"``                Pareto trade-off of named parts
``{"kind": "weighted", "weights": ...}``  dict forms of the same, plus
``{"kind": "penalty", ...}``              penalty-augmented objectives
``{"kind": "multi", "components": ...}``  (dicts nest; strings stay flat)
an ``Objective`` instance                 passed through unchanged
========================================  ==================================

``resolve_objective`` is idempotent on canonical specs, which is what
keeps ``SearchSpec`` JSON round-trips exact.  Registering a new named
objective::

    from repro.objectives import Objective, register_objective

    class AreaDelay(Objective):
        name = "area-delay"
        def evaluate(self, report):
            return report.area_um2 * report.latency_cycles
        def spec(self):
            return "area-delay"

    register_objective("area-delay", AreaDelay)

after which ``repro.explore(objective="area-delay")`` just works.  An
objective reads only the four figures every report carries (latency,
energy, area, power): population scoring and planned RL episodes hand
it bare :class:`~repro.objectives.base.CostTotals`.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Union

from repro.objectives.base import (
    COMPONENT_ORDER,
    ComponentObjective,
    MultiObjective,
    Objective,
    PenaltyObjective,
    WeightedObjective,
)

__all__ = [
    "register_objective",
    "unregister_objective",
    "get_objective",
    "list_objectives",
    "resolve_objective",
    "objective_spec",
    "objective_label",
    "objective_cost_label",
]

#: name -> zero-argument factory producing the named objective.
_REGISTRY: Dict[str, Callable[[], Objective]] = {}


def register_objective(name: str, factory: Callable[[], Objective], *,
                       overwrite: bool = False) -> None:
    """Register a named objective; ``factory()`` must build it.

    Raises:
        ValueError: on a duplicate ``name`` unless ``overwrite=True``.
    """
    if not overwrite and name in _REGISTRY:
        raise ValueError(
            f"objective {name!r} is already registered; "
            f"pass overwrite=True to replace it")
    _REGISTRY[name] = factory


def unregister_objective(name: str) -> None:
    """Remove ``name`` from the registry (primarily for tests)."""
    _REGISTRY.pop(name, None)


def get_objective(name: str) -> Objective:
    """Build the named objective, failing fast on typos."""
    try:
        factory = _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown objective {name!r}; available: "
            f"{', '.join(sorted(_REGISTRY))} (or a weighted:/multi: "
            f"spec)") from None
    return factory()


def list_objectives() -> List[str]:
    """Registered objective names in registration order."""
    return list(_REGISTRY)


# ----------------------------------------------------------------------
# Spec parsing
# ----------------------------------------------------------------------
def _parse_weighted(body: str) -> WeightedObjective:
    weights: Dict[str, float] = {}
    for item in body.split(","):
        item = item.strip()
        if not item:
            continue
        if "=" not in item:
            raise ValueError(
                f"weighted spec items must be component=weight, got "
                f"{item!r} (example: weighted:latency=0.5,energy=0.5)")
        component, _, value = item.partition("=")
        try:
            weights[component.strip()] = float(value)
        except ValueError:
            raise ValueError(
                f"bad weight {value!r} for component {component!r}"
            ) from None
    if not weights:
        raise ValueError("weighted spec carries no weights")
    return WeightedObjective(weights)


def _parse_multi(body: str) -> MultiObjective:
    names = [name.strip() for name in body.split(",") if name.strip()]
    if not names:
        raise ValueError(
            "multi spec carries no components "
            "(example: multi:latency,energy)")
    return MultiObjective([resolve_objective(name) for name in names])


def _from_dict(data: dict) -> Objective:
    kind = data.get("kind")
    if kind == "weighted":
        return WeightedObjective(dict(data["weights"]))
    if kind == "penalty":
        return PenaltyObjective(
            base=resolve_objective(data["base"]),
            limit_on=data["limit_on"],
            limit=data["limit"],
            weight=data.get("weight", 1.0))
    if kind == "multi":
        return MultiObjective(
            [resolve_objective(component)
             for component in data["components"]])
    raise ValueError(
        f"unknown objective spec kind {kind!r}; available kinds: "
        f"weighted, penalty, multi")


def resolve_objective(spec: Union[str, dict, Objective]) -> Objective:
    """Resolve any objective spec to an :class:`Objective` instance.

    Accepts an instance (returned unchanged), a registered name, a
    compact ``weighted:...`` / ``multi:...`` string, or a structured
    dict.  Raises ``KeyError`` for unknown names (matching the legacy
    string path) and ``ValueError`` for malformed composite specs.
    """
    if isinstance(spec, Objective):
        return spec
    if isinstance(spec, dict):
        return _from_dict(spec)
    if isinstance(spec, str):
        if spec.startswith("weighted:"):
            return _parse_weighted(spec[len("weighted:"):])
        if spec.startswith("multi:"):
            return _parse_multi(spec[len("multi:"):])
        return get_objective(spec)
    raise TypeError(
        f"objective spec must be a name, a spec dict, or an Objective "
        f"instance, got {type(spec).__name__}")


def objective_spec(spec: Union[str, dict, Objective]) -> Union[str, dict]:
    """The canonical JSON-safe form of any accepted objective spec."""
    return resolve_objective(spec).spec()


def objective_label(spec: Union[str, dict, Objective]) -> str:
    """A short human-readable label for tables and summaries."""
    if isinstance(spec, str) and not spec.startswith(("weighted:",
                                                      "multi:")):
        return spec
    return resolve_objective(spec).name


def objective_cost_label(spec: Union[str, dict, Objective]) -> str:
    """Label for a *scalar best-cost figure* produced under ``spec``.

    Scalar bookkeeping (``best_cost``, convergence histories) tracks
    only the primary component of a multi objective, so labelling that
    figure with the full multi name would misrepresent it; this returns
    the primary component's name with the trade-off as context.
    """
    objective = resolve_objective(spec)
    if objective.is_multi:
        return (f"{objective.components[0].name} "
                f"(primary of {objective.name})")
    return objective.name


# ----------------------------------------------------------------------
# Built-in registrations: the five components, minimized directly.
for _component in COMPONENT_ORDER:
    register_objective(
        _component,
        (lambda c=_component: ComponentObjective(c)))
del _component
