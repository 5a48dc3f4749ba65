"""Tests for the frozen, serializable SearchSpec."""

import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.tasks import TaskSpec
from repro.search import SearchSpec, method_names
from repro.search.spec import (
    CONSTRAINT_KINDS,
    DATAFLOWS,
    DEPLOYMENTS,
    PLATFORMS,
)


class TestValidation:
    def test_defaults_are_valid(self):
        spec = SearchSpec(model="ncf")
        assert spec.method == "confuciux"
        assert spec.budget == 500

    def test_rejects_unknown_model(self):
        with pytest.raises(ValueError, match="unknown model"):
            SearchSpec(model="alexnet9000")

    def test_rejects_layer_list_models(self):
        with pytest.raises(TypeError, match="workload-zoo name"):
            SearchSpec(model=["not", "a", "name"])

    @pytest.mark.parametrize("field,value", [
        ("objective", "throughput"),
        ("dataflow", "tpu"),
        ("constraint_kind", "thermal"),
        ("platform", "mars"),
        ("deployment", "serverless"),
    ])
    def test_rejects_bad_enums(self, field, value):
        with pytest.raises(ValueError, match=field):
            SearchSpec(model="ncf", **{field: value})

    def test_rejects_bad_budgets(self):
        with pytest.raises(ValueError, match="budget"):
            SearchSpec(model="ncf", budget=0)
        with pytest.raises(ValueError, match="finetune"):
            SearchSpec(model="ncf", finetune=-1)

    @pytest.mark.parametrize("field,value", [
        ("layer_slice", -3),
        ("layer_slice", 0),
        ("mix", "false"),
        ("budget", 5.5),
        ("seed", "x"),
        ("seed", -1),
        ("envs", 2.0),
        ("max_pes", 0),
        ("num_levels", 1),
        ("max_total_pes", 0),
        ("max_total_l1", 0),
        ("objective", {"kind": "weighted",
                       "weights": {"latency": float("nan")}}),
        ("objective", {"kind": "penalty", "base": "latency",
                       "limit_on": "area", "limit": float("nan")}),
    ])
    def test_rejects_malformed_values(self, field, value):
        """Values a JSON document can carry but the run cannot use fail
        at construction, not inside the job."""
        with pytest.raises(ValueError, match=field):
            SearchSpec(model="ncf", **{field: value})

    def test_numpy_integers_are_stored_as_int(self):
        spec = SearchSpec(model="ncf", seed=np.int64(3), budget=np.int32(9))
        assert type(spec.seed) is int and type(spec.budget) is int
        assert SearchSpec.from_json(spec.to_json()) == spec

    def test_frozen(self):
        spec = SearchSpec(model="ncf")
        with pytest.raises(dataclasses.FrozenInstanceError):
            spec.budget = 10

    def test_replace_revalidates(self):
        spec = SearchSpec(model="ncf", budget=10)
        assert dataclasses.replace(spec, budget=20).budget == 20
        with pytest.raises(ValueError):
            dataclasses.replace(spec, platform="mars")


class TestDerived:
    def test_finetune_budget_default(self):
        assert SearchSpec(model="ncf", budget=100).finetune_budget == 25
        assert SearchSpec(model="ncf", budget=100,
                          finetune=7).finetune_budget == 7
        assert SearchSpec(model="ncf", budget=100,
                          finetune=0).finetune_budget == 0

    def test_task_mirrors_spec(self):
        spec = SearchSpec(model="mobilenet_v2", objective="energy",
                          platform="cloud", layer_slice=5, mix=True)
        task = spec.task()
        assert isinstance(task, TaskSpec)
        assert task.model == "mobilenet_v2"
        assert task.objective == "energy"
        assert task.platform == "cloud"
        assert task.layer_slice == 5
        assert task.mix is True
        assert len(task.layers()) == 5


class TestSerialization:
    def test_round_trip_dict(self):
        spec = SearchSpec(model="resnet50", method="sa", budget=42,
                          seed=7, layer_slice=3)
        assert SearchSpec.from_dict(spec.to_dict()) == spec

    def test_round_trip_json(self):
        spec = SearchSpec(model="ncf", method="random", seed=None,
                          finetune=9)
        clone = SearchSpec.from_json(spec.to_json())
        assert clone == spec
        assert clone.seed is None

    def test_from_dict_rejects_unknown_fields(self):
        data = SearchSpec(model="ncf").to_dict()
        data["temperature"] = 451
        with pytest.raises(ValueError, match="unknown SearchSpec fields"):
            SearchSpec.from_dict(data)

    def test_equal_specs_hash_unequal_differ(self):
        a = SearchSpec(model="ncf", budget=10)
        b = SearchSpec(model="ncf", budget=10)
        c = SearchSpec(model="ncf", budget=11)
        assert a == b
        assert a != c


# ----------------------------------------------------------------------
# Untrusted input: SearchSpec.from_json is the service wire's parser
# ----------------------------------------------------------------------
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-10**6, 10**6) | st.floats()
    | st.text(max_size=6),
    lambda children: (st.lists(children, max_size=3)
                      | st.dictionaries(st.text(max_size=4), children,
                                        max_size=3)),
    max_leaves=6)

#: Per field, values a well-meaning client might send (most valid).
_PLAUSIBLE = {
    "model": st.sampled_from(["ncf", "mobilenet_v2", "alexnet9000"]),
    "method": st.sampled_from(method_names() + ["nope"]),
    "objective": st.sampled_from(["latency", "energy", "edp", "bogus",
                                  "weighted:latency=0.5,energy=0.5",
                                  "multi:latency,energy"]),
    "dataflow": st.sampled_from(DATAFLOWS + ("tpu",)),
    "constraint_kind": st.sampled_from(CONSTRAINT_KINDS),
    "platform": st.sampled_from(PLATFORMS),
    "deployment": st.sampled_from(DEPLOYMENTS),
    "mix": st.booleans(),
    # Removed fields, with the values older documents carry.
    "nodes": st.none(),
    "autotune": st.none(),
    "kernel": st.sampled_from([None, "batched", "fused", "fused32"]),
    "executor": st.sampled_from(["serial", "process", "thread", None]),
}
_KEYS = [field.name for field in dataclasses.fields(SearchSpec)] \
    + ["nodes", "autotune", "kernel", "executor", "workers",
       "dispatch_min_batch", "task_timeout_s", "colour"]


@st.composite
def _spec_documents(draw):
    document = {"model": draw(_PLAUSIBLE["model"])}
    for key in draw(st.sets(st.sampled_from(_KEYS), max_size=8)):
        numbers = st.integers(-3, 600) | st.none()
        document[key] = draw(_PLAUSIBLE.get(key, numbers) | _JSON_VALUES)
    return document


class TestWireInput:
    @settings(max_examples=300, deadline=None)
    @given(document=_spec_documents())
    def test_from_json_builds_a_round_tripping_spec_or_raises(self,
                                                              document):
        """Every document either builds a spec that survives
        to_json -> from_json unchanged, or raises a typed error."""
        try:
            spec = SearchSpec.from_json(json.dumps(document))
        except (ValueError, TypeError):
            return
        assert SearchSpec.from_json(spec.to_json()) == spec

    @pytest.mark.parametrize("text", ["", "[1, 2]", "null", "7",
                                      '{"model": "ncf"', '{"model": 1}'])
    def test_malformed_documents_raise_typed_errors(self, text):
        with pytest.raises((ValueError, TypeError)):
            SearchSpec.from_json(text)
