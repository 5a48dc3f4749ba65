"""Shared experiment harness used by ``benchmarks/scorecard.py``."""

from repro.experiments.tasks import TaskSpec
from repro.experiments.runner import compare_methods
from repro.experiments import ls_study, lp_study

__all__ = [
    "TaskSpec",
    "compare_methods",
    "ls_study",
    "lp_study",
]
