"""Contract tests on the public API surface.

Guards the importable surface the README documents: `__all__` integrity,
docstring presence on every public item, the lazy exports that keep the
import graph acyclic, and -- since the session redesign -- that BOTH the
legacy surface (direct optimizer construction) and the unified session
surface (``repro.explore`` / ``SearchSession``) work.
"""

import importlib
import inspect

import pytest

import repro

PUBLIC_MODULES = [
    "repro",
    "repro.models",
    "repro.costmodel",
    "repro.nn",
    "repro.env",
    "repro.rl",
    "repro.optim",
    "repro.ga",
    "repro.core",
    "repro.analysis",
    "repro.experiments",
    "repro.search",
]


class TestImportSurface:
    @pytest.mark.parametrize("name", PUBLIC_MODULES)
    def test_module_imports_and_documented(self, name):
        module = importlib.import_module(name)
        assert module.__doc__, f"{name} lacks a module docstring"

    @pytest.mark.parametrize("name", PUBLIC_MODULES)
    def test_all_entries_resolve(self, name):
        module = importlib.import_module(name)
        for symbol in getattr(module, "__all__", []):
            assert getattr(module, symbol, None) is not None, \
                f"{name}.{symbol} in __all__ but unresolvable"

    def test_version(self):
        assert repro.__version__ == "6.1.0"

    def test_lazy_exports(self):
        assert repro.ResultStore.__name__ == "ResultStore"
        # The two-stage pipeline classes were removed in 5.0.
        for name in ("ConfuciuX", "JointSearch", "DoesNotExist"):
            with pytest.raises(AttributeError):
                getattr(repro, name)

    def test_core_lazy_exports(self):
        import repro.core as core

        assert core.ConfuciuXResult.__name__ == "ConfuciuXResult"
        assert core.solution_report is not None
        for name in ("ConfuciuX", "JointSearch", "DoesNotExist"):
            with pytest.raises(AttributeError):
                getattr(core, name)

    def test_session_api_exported(self):
        # The session layer is reachable from the package root.
        for symbol in ("SearchSpec", "SearchSession", "SessionResult",
                       "explore", "register_method", "get_method",
                       "list_methods", "SearchObserver", "ProgressReporter",
                       "EarlyStopping", "CheckpointHook"):
            assert getattr(repro, symbol, None) is not None, symbol


class TestDocstrings:
    def _public_members(self, module):
        for name, member in vars(module).items():
            if name.startswith("_"):
                continue
            if inspect.isclass(member) or inspect.isfunction(member):
                if member.__module__.startswith("repro"):
                    yield name, member

    @pytest.mark.parametrize("name", [
        "repro.models.layers",
        "repro.models.zoo",
        "repro.costmodel.dataflow",
        "repro.costmodel.estimator",
        "repro.env.spaces",
        "repro.env.environment",
        "repro.rl.reinforce",
        "repro.ga.local_ga",
        "repro.core.confuciux",
        "repro.core.serialization",
        "repro.optim.base",
        "repro.search.spec",
        "repro.search.registry",
        "repro.search.session",
        "repro.search.callbacks",
    ])
    def test_every_public_item_documented(self, name):
        module = importlib.import_module(name)
        undocumented = [
            member_name
            for member_name, member in self._public_members(module)
            if not member.__doc__
        ]
        assert not undocumented, \
            f"{name}: undocumented public items {undocumented}"

    def test_registries_consistent(self):
        from repro.optim import BASELINE_OPTIMIZERS
        from repro.rl import RL_ALGORITHMS

        # The comparison harness relies on unique, disjoint method names.
        assert not set(RL_ALGORITHMS) & set(BASELINE_OPTIMIZERS)
        for name, cls in {**RL_ALGORITHMS, **BASELINE_OPTIMIZERS}.items():
            assert cls.name == name

    def test_unified_registry_absorbs_legacy_registries(self):
        from repro.optim import BASELINE_OPTIMIZERS
        from repro.rl import RL_ALGORITHMS

        names = set(repro.method_names())
        assert set(BASELINE_OPTIMIZERS) <= names
        assert set(RL_ALGORITHMS) <= names
        assert {"reinforce-mlp", "local-ga", "confuciux"} <= names


class TestLegacySurface:
    """The pre-session call paths stay importable and runnable."""

    def test_direct_optimizer_construction_works(self, tiny_model,
                                                 cost_model):
        from repro.experiments.tasks import TaskSpec

        task = TaskSpec(model=tiny_model, platform="cloud")
        optimizer = repro.BASELINE_OPTIMIZERS["random"](seed=0)
        result = optimizer.search(task.make_evaluator(cost_model), 10)
        assert result.algorithm == "random"
        assert len(result.history) == 10

    def test_legacy_and_session_paths_agree(self, cost_model):
        # The redesign is a façade: same seeds, same numbers.
        from repro.experiments.tasks import TaskSpec

        task = TaskSpec(model="ncf", platform="cloud")
        legacy = repro.BASELINE_OPTIMIZERS["sa"](seed=3).search(
            task.make_evaluator(cost_model,
                                task.constraint(cost_model)), 20)
        session = repro.explore(model="ncf", method="sa", budget=20,
                                seed=3, platform="cloud",
                                cost_model=cost_model)
        assert session.best_cost == legacy.best_cost
        assert session.history == legacy.history
