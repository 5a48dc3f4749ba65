"""Tests for JSON serialization of search results."""

import json

import pytest

import repro
from repro.core.serialization import (
    search_result_from_dict,
    search_result_to_dict,
)
from repro.rl.common import SearchResult
from repro.search import SessionResult


@pytest.fixture
def populated_result():
    result = SearchResult(algorithm="reinforce")
    result.best_cost = 1.5e7
    result.best_assignments = ((16, 39), (8, 29))
    result.best_genome = [5, 2, 3, 1]
    result.history = [float("inf"), 2e7, 1.5e7]
    result.evaluations = 100
    result.episodes = 50
    result.wall_time_s = 1.25
    result.memory_bytes = 1024
    return result


class TestSearchResultRoundtrip:
    def test_dict_roundtrip(self, populated_result):
        data = search_result_to_dict(populated_result)
        restored = search_result_from_dict(data)
        assert restored.algorithm == "reinforce"
        assert restored.best_cost == populated_result.best_cost
        assert restored.best_assignments == \
            populated_result.best_assignments
        assert restored.history == populated_result.history

    def test_infinity_encoded_as_null(self, populated_result):
        data = search_result_to_dict(populated_result)
        assert data["history"][0] is None
        text = json.dumps(data)  # valid strict JSON
        assert "Infinity" not in text

    def test_infeasible_result_roundtrip(self):
        result = SearchResult(algorithm="sa")
        result.history = [float("inf")] * 3
        restored = search_result_from_dict(
            json.loads(json.dumps(search_result_to_dict(result))))
        assert restored.best_cost is None
        assert not restored.feasible
        assert restored.format_cost() == "NAN"

    def test_missing_field_raises(self):
        with pytest.raises(KeyError):
            search_result_from_dict({"algorithm": "x"})


class TestConfuciuXResultSerialization:
    def test_two_stage_summary(self, cost_model, tmp_path):
        """A two-stage session's file keeps the flattened stage figures."""
        outcome = repro.explore(model="mobilenet_v2", method="confuciux",
                                layer_slice=8, platform="cloud", seed=0,
                                budget=20, finetune=5,
                                cost_model=cost_model)
        path = tmp_path / "confuciux.json"
        outcome.save(path)
        loaded = SessionResult.load(path)
        detail = outcome.detail
        assert loaded.best_cost == detail.best_cost
        assert loaded.best_assignments == detail.best_assignments
        assert loaded.history == detail.trace
        extra = loaded.result.extra
        assert extra["global_cost"] == detail.global_cost
        assert extra["finetune_cost"] == detail.finetune_result.best_cost
        assert extra["constraint_budget"] == detail.constraint.budget
        assert loaded.spec.objective == detail.objective == "latency"
