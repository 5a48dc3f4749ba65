"""ConfuciuX's constraints, design-point evaluation and result reporting.

The two-stage search itself runs in the session layer
(:func:`repro.search.session.run_two_stage`); this package holds what it
and every other method share, plus the two-stage result type and its
reports.  ``repro.env`` imports the constraint/evaluator modules in this
package, so the result and report exports are resolved lazily (PEP 562)
to keep the import graph acyclic.
"""

from repro.core.constraints import (
    PLATFORM_FRACTIONS,
    PlatformConstraint,
    ResourceConstraint,
    measure_max_consumption,
    platform_constraint,
)
from repro.core.evaluator import DesignPointEvaluator, EvalResult

__all__ = [
    "PLATFORM_FRACTIONS",
    "PlatformConstraint",
    "ResourceConstraint",
    "measure_max_consumption",
    "platform_constraint",
    "DesignPointEvaluator",
    "EvalResult",
    "ConfuciuXResult",
    "dataflow_assignment_table",
    "solution_report",
]

_LAZY = {
    "ConfuciuXResult": ("repro.core.confuciux", "ConfuciuXResult"),
    "dataflow_assignment_table": ("repro.core.joint",
                                  "dataflow_assignment_table"),
    "solution_report": ("repro.core.reporting", "solution_report"),
}


def __getattr__(name):
    try:
        module_name, attribute = _LAZY[name]
    except KeyError:
        raise AttributeError(name) from None
    import importlib

    module = importlib.import_module(module_name)
    return getattr(module, attribute)
