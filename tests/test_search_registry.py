"""Tests for the unified method registry and its seed contract."""

import numpy as np
import pytest

from repro.optim import BASELINE_OPTIMIZERS
from repro.rl import RL_ALGORITHMS
from repro.search import (
    KIND_EPISODIC,
    KIND_GENOME,
    KIND_TWO_STAGE,
    get_method,
    method_names,
    register_method,
    unregister_method,
)


class TestLookup:
    def test_absorbs_all_legacy_registries(self):
        names = set(method_names())
        assert set(BASELINE_OPTIMIZERS) <= names
        assert set(RL_ALGORITHMS) <= names
        assert {"reinforce-mlp", "local-ga", "confuciux"} <= names

    def test_get_method_unknown_lists_available(self):
        with pytest.raises(KeyError, match="unknown method"):
            get_method("alphago")

    def test_kind_filters(self):
        assert set(method_names(kind=KIND_GENOME)) >= set(
            BASELINE_OPTIMIZERS)
        assert set(method_names(kind=KIND_EPISODIC)) == (
            set(RL_ALGORITHMS) | {"reinforce-mlp"})
        assert method_names(kind=KIND_TWO_STAGE) == ["confuciux",
                                                     "confuciux-mlp"]

    def test_variant_filter(self):
        episodic = method_names(kind=KIND_EPISODIC, include_variants=False)
        assert "reinforce-mlp" not in episodic
        assert "reinforce" in episodic
        assert method_names(kind=KIND_TWO_STAGE,
                            include_variants=False) == ["confuciux"]

    def test_capability_metadata(self):
        assert get_method("ga").batchable
        assert not get_method("reinforce").batchable
        assert get_method("local-ga").supports_finetune
        assert get_method("confuciux").kind == KIND_TWO_STAGE
        assert get_method("reinforce-mlp").variant_of == "reinforce"


class TestRegistration:
    def test_register_and_unregister(self):
        class Dummy:
            def __init__(self, seed=None):
                self.rng = np.random.default_rng(seed)

        try:
            info = register_method("dummy-opt", Dummy, kind=KIND_GENOME,
                                   description="test only")
            assert get_method("dummy-opt") is info
            assert "dummy-opt" in method_names()
        finally:
            unregister_method("dummy-opt")
        assert "dummy-opt" not in method_names()

    def test_duplicate_rejected_unless_overwrite(self):
        with pytest.raises(ValueError, match="already registered"):
            register_method("reinforce", lambda seed=None: None,
                            kind=KIND_EPISODIC)
        original = get_method("random")
        try:
            register_method("random", original.factory, kind=KIND_GENOME,
                            batchable=True, overwrite=True,
                            description="replaced")
            assert get_method("random").description == "replaced"
        finally:
            register_method("random", original.factory, kind=KIND_GENOME,
                            batchable=True,
                            description=original.description,
                            overwrite=True)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            register_method("quantum", lambda seed=None: None,
                            kind="quantum-annealing")


class TestSeedContract:
    """Every factory accepts seed=None and seeds one default_rng."""

    @pytest.mark.parametrize("name", [
        n for n in [
            "grid", "random", "sa", "ga", "bayesian", "reinforce", "a2c",
            "acktr", "ppo2", "ddpg", "td3", "sac", "reinforce-mlp",
            "local-ga",
        ]
    ])
    def test_factory_accepts_none_and_int_seeds(self, name):
        factory = get_method(name).factory
        for seed in (None, 0, 123):
            method = factory(seed=seed)
            assert isinstance(method.rng, np.random.Generator)

    def test_two_stage_factory_accepts_seeds(self):
        # A two-stage factory builds the stage-1 agent; the session's
        # runner adds the local-GA stage.
        for name, policy in (("confuciux", "rnn"), ("confuciux-mlp", "mlp")):
            factory = get_method(name).factory
            for seed in (None, 0, 123):
                agent = factory(seed=seed)
                assert isinstance(agent, RL_ALGORITHMS["reinforce"])
                assert agent.policy_kind == policy
                assert isinstance(agent.rng, np.random.Generator)
