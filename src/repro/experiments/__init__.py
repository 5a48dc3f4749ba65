"""Shared experiment harness used by the ``benchmarks/`` suite."""

from repro.experiments.tasks import TaskSpec, default_epochs
from repro.experiments.runner import compare_methods
from repro.experiments import ls_study, lp_study

__all__ = [
    "TaskSpec",
    "default_epochs",
    "compare_methods",
    "ls_study",
    "lp_study",
]
