"""First-class optimization objectives over cost-model figures of merit.

Every search method in this repository minimizes *some* function of the
four aggregate figures the cost model produces -- latency, energy, area,
power.  Pre-refactor that function was a hard-coded string compared in
half a dozen modules; an :class:`Objective` names it once and evaluates it
anywhere: on a scalar :class:`~repro.costmodel.report.CostReport`, a
whole-model :class:`~repro.costmodel.report.ModelCostReport`, or a
population-axis :class:`~repro.costmodel.report.BatchCostReport` -- the
arithmetic is elementwise, so one ``evaluate`` serves all three.

The three legacy names (``latency`` / ``energy`` / ``edp``) reproduce the
historical expressions *exactly* (same operands, same order), so searches
configured by name are bit-identical to the pre-refactor string paths --
the parity suite in ``tests/test_objectives.py`` locks this down.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Sequence, Union

import numpy as np

__all__ = [
    "COMPONENT_ORDER",
    "CostTotals",
    "Objective",
    "ComponentObjective",
    "WeightedObjective",
    "PenaltyObjective",
    "MultiObjective",
]

#: Canonical component order for deterministic weighted accumulation.
COMPONENT_ORDER = ("latency", "energy", "edp", "area", "power")


class CostTotals(NamedTuple):
    """The four aggregate figures objectives consume.

    Any report class (``CostReport``, ``ModelCostReport``,
    ``BatchCostReport``) exposes the same four attributes, so objectives
    accept reports directly; this carrier exists for call sites that hold
    bare totals arrays (the batched evaluator, planned RL episodes, the
    LS sweep) without a report object.  Objectives may therefore read
    these four figures only.
    """

    latency_cycles: object
    energy_nj: object
    area_um2: object
    power_mw: object


def _component_value(report, component: str):
    """One named figure of merit from any report-like object.

    ``edp`` is computed as ``energy * latency``, in that order.
    """
    if component == "latency":
        return report.latency_cycles
    if component == "energy":
        return report.energy_nj
    if component == "edp":
        return report.energy_nj * report.latency_cycles
    if component == "area":
        return report.area_um2
    if component == "power":
        return report.power_mw
    raise KeyError(
        f"unknown objective component {component!r}; available: "
        f"{', '.join(COMPONENT_ORDER)}")


def _relu(value):
    """max(value, 0) for scalars and arrays without promoting python
    floats to numpy scalars (scalar costs must stay JSON-native)."""
    if isinstance(value, np.ndarray):
        return np.maximum(value, 0.0)
    return value if value > 0.0 else 0.0


class Objective:
    """A minimized function of the cost model's aggregate figures.

    Subclasses implement :meth:`evaluate` with *elementwise* arithmetic
    over ``latency_cycles`` / ``energy_nj`` / ``area_um2`` / ``power_mw``,
    so one objective instance scores a scalar report and a whole
    population batch identically.  Objectives are stateless and reusable
    across searches.

    Attributes:
        name: Short display name (the table-column / CLI label).
        is_multi: Whether this objective carries multiple components to
            trade off (Pareto search); scalar consumers then see the
            *primary* (first) component through :meth:`evaluate`.
    """

    name = "objective"
    is_multi = False

    def evaluate(self, report):
        """The objective value(s) for ``report`` (scalar or batch)."""
        raise NotImplementedError

    def spec(self) -> Union[str, dict]:
        """A JSON-safe spec from which :func:`resolve_objective` rebuilds
        an equal objective (the form stored in ``SearchSpec.objective``)."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    def __call__(self, report):
        return self.evaluate(report)

    def __eq__(self, other) -> bool:
        return (type(self) is type(other)
                and self.spec() == other.spec())

    def __hash__(self) -> int:
        spec = self.spec()
        return hash(spec if isinstance(spec, str) else repr(spec))

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.spec()!r})"

    def __str__(self) -> str:
        return self.name


class ComponentObjective(Objective):
    """One named figure of merit (``latency``, ``energy``, ``edp``,
    ``area``, or ``power``), minimized directly.

    For the three legacy names the returned value is the *same
    expression* the string path computed, so costs are bit-identical.
    """

    def __init__(self, component: str) -> None:
        _component_value(CostTotals(0.0, 0.0, 0.0, 0.0), component)
        self.component = component
        self.name = component

    def evaluate(self, report):
        return _component_value(report, self.component)

    def spec(self) -> str:
        return self.component


class WeightedObjective(Objective):
    """A weighted sum of named components: ``sum_i w_i * component_i``.

    Weights accumulate in :data:`COMPONENT_ORDER` (left-to-right), so the
    float result is deterministic regardless of the mapping order the
    caller supplied.  Components with very different magnitudes usually
    want magnitude-aware weights; the weights are the caller's contract.

    Args:
        weights: ``{component: weight}`` with at least one entry.
    """

    name = "weighted"

    def __init__(self, weights: Dict[str, float]) -> None:
        if not weights:
            raise ValueError("weighted objective needs at least one weight")
        ordered = {}
        for component in COMPONENT_ORDER:
            if component in weights:
                ordered[component] = float(weights[component])
        unknown = set(weights) - set(ordered)
        if unknown:
            raise KeyError(
                f"unknown objective component(s) {sorted(unknown)}; "
                f"available: {', '.join(COMPONENT_ORDER)}")
        if any(weight != weight for weight in ordered.values()):
            raise ValueError("objective weights must not be NaN")
        self.weights = ordered
        self.name = "weighted(" + ",".join(
            f"{c}={w:g}" for c, w in ordered.items()) + ")"

    def evaluate(self, report):
        total = None
        for component, weight in self.weights.items():
            term = weight * _component_value(report, component)
            total = term if total is None else total + term
        return total

    def spec(self) -> dict:
        return {"kind": "weighted", "weights": dict(self.weights)}


class PenaltyObjective(Objective):
    """A base objective plus a soft penalty above a component limit:
    ``base + weight * max(0, component - limit)``.

    This turns a secondary budget (say, area) into a differentiable-ish
    pressure on any search method without touching the hard constraint
    machinery -- useful when a deployment wants "minimize latency but
    lean away from big dies" rather than a cliff.

    Args:
        base: The objective being minimized.
        limit_on: Component the penalty watches.
        limit: Value above which the penalty applies.
        weight: Penalty slope per unit of excess.
    """

    name = "penalty"

    def __init__(self, base: Objective, limit_on: str, limit: float,
                 weight: float = 1.0) -> None:
        _component_value(CostTotals(0.0, 0.0, 0.0, 0.0), limit_on)
        if base.is_multi:
            # Evaluating would silently collapse the trade-off to its
            # primary component; penalize the components instead
            # (multi of penalty objectives), mirroring the no-nesting
            # rule of MultiObjective.
            raise ValueError(
                "penalty objectives do not wrap multi objectives; "
                "build a multi of penalty-augmented components instead")
        # Written so NaN fails too: a NaN spec never equals itself.
        if not limit >= 0:
            raise ValueError("penalty limit must be >= 0")
        if not weight >= 0:
            raise ValueError("penalty weight must be >= 0")
        self.base = base
        self.limit_on = limit_on
        self.limit = float(limit)
        self.weight = float(weight)
        self.name = f"{base.name}+penalty({limit_on}>{limit:g})"

    def evaluate(self, report):
        excess = _relu(_component_value(report, self.limit_on) - self.limit)
        return self.base.evaluate(report) + self.weight * excess

    def spec(self) -> dict:
        return {
            "kind": "penalty",
            "base": self.base.spec(),
            "limit_on": self.limit_on,
            "limit": self.limit,
            "weight": self.weight,
        }


class MultiObjective(Objective):
    """Several objectives minimized *together* (a Pareto trade-off).

    Scalar consumers -- the environment's rewards, best-cost bookkeeping,
    convergence traces -- see the **primary** (first) component through
    :meth:`evaluate`, so a multi-objective spec runs through every
    existing code path unchanged; Pareto-aware methods
    (:class:`~repro.optim.pareto_ga.ParetoGA`) call
    :meth:`evaluate_components` for the full component matrix and rank by
    dominance instead.
    """

    name = "multi"
    is_multi = True

    def __init__(self, components: Sequence[Objective]) -> None:
        components = list(components)
        if not components:
            raise ValueError("multi objective needs at least one component")
        if any(component.is_multi for component in components):
            raise ValueError("multi objectives do not nest")
        self.components = components
        self.name = "multi(" + ",".join(c.name for c in components) + ")"

    @property
    def component_names(self) -> List[str]:
        return [component.name for component in self.components]

    def evaluate(self, report):
        """The primary component (scalar view for legacy consumers)."""
        return self.components[0].evaluate(report)

    def evaluate_components(self, report) -> np.ndarray:
        """All component values, stacked on a leading component axis:
        shape ``(k,)`` for scalar reports, ``(k, n)`` for batches."""
        return np.stack([
            np.asarray(component.evaluate(report), dtype=np.float64)
            for component in self.components
        ])

    def spec(self) -> Union[str, dict]:
        specs = [component.spec() for component in self.components]
        if all(isinstance(s, str) for s in specs):
            return "multi:" + ",".join(specs)
        return {"kind": "multi", "components": specs}
