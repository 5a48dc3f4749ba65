"""The content-addressed result store: keys, round trips, corruption.

The cache contract under test: equal identities collide (that is the
point -- name/dict/instance objective forms and resolved ``envs``
normalize away), absolute keys stay put, different identities never do,
a stored result reads back bit-identical (put -> get -> put is a fixed
point of the stored document), corrupt entries degrade to misses, and
``force`` bypasses the lookup so a re-run can overwrite in place.
"""

from __future__ import annotations

import json
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.objectives import ComponentObjective
from repro.search.session import SearchSession, SessionResult
from repro.search.spec import SearchSpec
from repro.service.store import (
    ResultStore,
    canonical_identity,
    result_key,
)


def _spec(**overrides) -> SearchSpec:
    base = dict(model="mnasnet", method="random", budget=40, seed=0,
                layer_slice=3)
    base.update(overrides)
    return SearchSpec(**base)


@pytest.fixture(scope="module")
def canned_result() -> SessionResult:
    """One real (tiny) run to feed the store tests."""
    return SearchSession(_spec()).run()


# ----------------------------------------------------------------------
# Keys and identity normalization
# ----------------------------------------------------------------------
class TestResultKey:
    def test_key_is_deterministic_and_hex(self):
        key = result_key(_spec())
        assert key == result_key(_spec())
        assert len(key) == 64
        int(key, 16)  # hex

    def test_objective_forms_dedup_to_one_key(self):
        by_name = result_key(_spec(objective="latency"))
        instance = ComponentObjective("latency")
        assert result_key(_spec(objective=instance)) == by_name
        spec_form = canonical_identity(_spec(objective="latency"))
        assert result_key(
            _spec(objective=spec_form["objective"])) == by_name

    def test_envs_none_and_one_collide(self):
        assert result_key(_spec(envs=None)) == result_key(_spec(envs=1))

    @pytest.mark.parametrize("spec,key", [
        (dict(model="mobilenet_v2"),
         "6237c969c86ec742494e68f7a478b2efeb28795e316c5a08411880fe6e77319c"),
        (dict(model="mobilenet_v2", method="ga", mix=True, deployment="ls",
              objective="weighted:latency=0.5,energy=0.5", budget=200,
              seed=3),
         "9aaea1cd39730a8899fd835802da2ab9f8845b47290c2412815a79a3745f6a4d"),
        (dict(model="mobilenet_v2", method="reinforce", envs=4, budget=8,
              layer_slice=8),
         "c71b37341cee621090c7832d1aa1e347fb9c3382e2d94ca91cfcfe689b33021b"),
    ], ids=["default", "mix-ls-weighted", "envs4"])
    def test_pinned_absolute_keys(self, monkeypatch, spec, key):
        """Absolute digests: a change to the identity layout (a field
        added to or dropped from ``canonical_identity``) moves every
        store key, and existing entries would silently read as misses."""
        monkeypatch.delenv("REPRO_ENVS", raising=False)
        assert result_key(SearchSpec(**spec)) == key

    def test_scenario_fields_change_the_key(self):
        base = result_key(_spec())
        assert result_key(_spec(seed=1)) != base
        assert result_key(_spec(budget=41)) != base
        assert result_key(_spec(method="sa")) != base
        assert result_key(_spec(model="mobilenet_v2")) != base
        assert result_key(_spec(objective="energy")) != base


# ----------------------------------------------------------------------
# Round trips
# ----------------------------------------------------------------------
class TestRoundTrip:
    def test_get_returns_bit_identical_document(self, tmp_path,
                                                canned_result):
        store = ResultStore(root=tmp_path / "cache")
        store.put(_spec(), canned_result)
        hit = store.get(_spec())
        assert hit is not None
        assert hit.to_dict() == canned_result.to_dict()

    def test_miss_on_unknown_spec(self, tmp_path):
        store = ResultStore(root=tmp_path / "cache")
        assert store.get(_spec(seed=99)) is None
        assert store.misses == 1

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10_000), budget=st.integers(1, 10_000),
           objective=st.sampled_from(["latency", "energy", "edp"]))
    def test_put_get_put_is_a_fixed_point(self, tmp_path_factory, seed,
                                          budget, objective,
                                          canned_result):
        """Storing what get() returned must not change the entry."""
        root = tmp_path_factory.mktemp("store")
        store = ResultStore(root=root)
        spec = _spec(seed=seed, budget=budget, objective=objective)
        store.put(spec, canned_result)
        first = store.get(spec)
        with open(store.path_for(spec)) as handle:
            disk_first = handle.read()
        store.put(spec, first)
        second = store.get(spec)
        assert second.to_dict() == first.to_dict()
        with open(store.path_for(spec)) as handle:
            disk_second = handle.read()
        first_doc = json.loads(disk_first)
        second_doc = json.loads(disk_second)
        assert first_doc["result"] == second_doc["result"]
        assert first_doc["identity"] == second_doc["identity"]

    def test_disk_then_memory_hit_counters(self, tmp_path, canned_result):
        store = ResultStore(root=tmp_path / "cache")
        store.put(_spec(), canned_result)
        fresh = ResultStore(root=tmp_path / "cache")
        assert fresh.get(_spec()) is not None   # disk
        assert fresh.get(_spec()) is not None   # memory
        assert fresh.hits == 2 and fresh.memory_hits == 1

    def test_memory_front_can_be_disabled(self, tmp_path, canned_result):
        store = ResultStore(root=tmp_path / "cache", max_memory_entries=0)
        store.put(_spec(), canned_result)
        assert store.get(_spec()) is not None
        assert store.memory_hits == 0

    def test_lru_evicts_oldest_memory_entry(self, tmp_path, canned_result):
        store = ResultStore(root=tmp_path / "cache", max_memory_entries=2)
        for seed in range(3):
            store.put(_spec(seed=seed), canned_result)
        assert store.stats()["memory_entries"] == 2
        assert store.get(_spec(seed=0)) is not None  # still on disk
        assert store.memory_hits == 0


# ----------------------------------------------------------------------
# Corruption and force
# ----------------------------------------------------------------------
class TestCorruptionAndForce:
    def test_corrupt_entry_is_a_miss_and_dropped(self, tmp_path,
                                                 canned_result):
        store = ResultStore(root=tmp_path / "cache")
        store.put(_spec(), canned_result)
        path = store.path_for(_spec())
        with open(path, "w") as handle:
            handle.write('{"format": "repro-result-store/v1", "trunc')
        fresh = ResultStore(root=tmp_path / "cache")
        assert fresh.get(_spec()) is None
        assert fresh.corrupt_dropped == 1
        assert not os.path.exists(path)

    def test_partial_envelope_is_a_miss(self, tmp_path, canned_result):
        store = ResultStore(root=tmp_path / "cache")
        store.put(_spec(), canned_result)
        path = store.path_for(_spec())
        with open(path, "w") as handle:
            json.dump({"format": "repro-result-store/v1",
                       "key": result_key(_spec())}, handle)  # no result
        fresh = ResultStore(root=tmp_path / "cache")
        assert fresh.get(_spec()) is None
        assert fresh.corrupt_dropped == 1

    def test_wrong_format_tag_is_a_miss(self, tmp_path, canned_result):
        store = ResultStore(root=tmp_path / "cache")
        store.put(_spec(), canned_result)
        path = store.path_for(_spec())
        with open(path) as handle:
            envelope = json.load(handle)
        envelope["format"] = "repro-result-store/v0"
        with open(path, "w") as handle:
            json.dump(envelope, handle)
        fresh = ResultStore(root=tmp_path / "cache")
        assert fresh.get(_spec()) is None

    def test_force_bypasses_and_put_overwrites(self, tmp_path,
                                               canned_result):
        store = ResultStore(root=tmp_path / "cache")
        store.put(_spec(), canned_result)
        assert store.get(_spec(), force=True) is None
        assert store.bypasses == 1
        replacement = SessionResult.from_dict(canned_result.to_dict())
        replacement.provenance["forced"] = True
        store.put(_spec(), replacement)
        assert store.get(_spec()).provenance["forced"] is True
        assert store.stats()["entries"] == 1

    def test_evict_and_clear(self, tmp_path, canned_result):
        store = ResultStore(root=tmp_path / "cache")
        for seed in range(3):
            store.put(_spec(seed=seed), canned_result)
        assert store.evict(_spec(seed=0))
        assert not store.evict(_spec(seed=0))
        assert store.clear() == 2
        assert store.stats()["entries"] == 0

    def test_cache_dir_env_var(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "envcache"))
        assert ResultStore().root == str(tmp_path / "envcache")
