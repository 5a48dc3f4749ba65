"""Tests for SearchSession, SessionResult, observers, and the runners.

The heart of the api_redesign contract: every registered method runs
through one façade, produces a feasible ``SessionResult`` that round-trips
through JSON, and matches the legacy call paths bit-for-bit under fixed
seeds.
"""

import json

import pytest

import repro
from repro.core.serialization import search_result_to_dict
from repro.costmodel import BATCH_STYLES
from repro.experiments.tasks import TaskSpec
from repro.ga.local_ga import raw_bounds
from repro.search import (
    CheckpointHook,
    EarlyStopping,
    ProgressReporter,
    SearchObserver,
    SearchSession,
    SearchSpec,
    SessionResult,
    method_names,
    register_method,
    unregister_method,
)
from repro.service.store import result_key

#: Tiny-budget spec kwargs shared by the whole-registry sweeps: the NCF
#: workload has 4 layers, the cloud platform gives a roomy budget so every
#: method finds a feasible point fast.
TINY = dict(model="ncf", platform="cloud", budget=8, seed=0)


class _Recorder(SearchObserver):
    """Counts every hook invocation for protocol assertions."""

    def __init__(self):
        super().__init__()
        self.started = 0
        self.steps = 0
        self.improvements = 0
        self.finished = []
        self.best_seen = None

    def on_start(self, session):
        self.started += 1

    def on_step(self, step, cost, best_cost):
        self.steps += 1
        assert step == self.steps

    def on_improvement(self, step, best_cost, best_assignments):
        self.improvements += 1
        assert self.best_seen is None or best_cost < self.best_seen
        self.best_seen = best_cost

    def on_finish(self, result):
        self.finished.append(result)


class TestEveryRegisteredMethod:
    """The acceptance sweep: all methods, one protocol."""

    @pytest.mark.parametrize("method", method_names())
    def test_feasible_result_and_json_round_trip(self, method, cost_model):
        spec = SearchSpec(method=method, **TINY)
        result = SearchSession(spec, cost_model=cost_model).run()

        assert isinstance(result, SessionResult)
        assert result.method == method
        assert result.feasible, f"{method} found no feasible point"
        assert result.best_cost > 0
        assert result.best_assignments is not None
        assert len(result.best_assignments) == 4  # one per NCF layer
        assert result.history, "empty convergence history"
        assert result.provenance["method_kind"]

        # Full JSON round trip: spec and result both survive.
        document = result.to_json()
        clone = SessionResult.from_json(document)
        assert clone.spec == spec
        assert clone.best_cost == result.best_cost
        assert clone.history == result.history
        assert tuple(tuple(a) for a in clone.best_assignments) \
            == tuple(tuple(a) for a in result.best_assignments)
        # And the document is genuinely plain JSON.
        json.loads(document)

    @pytest.mark.parametrize("method", ["random", "reinforce", "confuciux"])
    def test_fixed_seed_is_deterministic(self, method, cost_model):
        spec = SearchSpec(method=method, **TINY)
        first = SearchSession(spec, cost_model=cost_model).run()
        second = SearchSession(spec, cost_model=cost_model).run()
        assert first.best_cost == second.best_cost
        assert first.history == second.history


class TestLegacyEquivalence:
    """Bit-identical best costs vs. the pre-redesign call paths."""

    def test_genome_method_matches_direct_optimizer(self, cost_model):
        task = TaskSpec(model="ncf", platform="cloud")
        constraint = task.constraint(cost_model)
        legacy = repro.BASELINE_OPTIMIZERS["ga"](seed=5).search(
            task.make_evaluator(cost_model, constraint), 30)
        modern = repro.explore(model="ncf", method="ga", budget=30,
                               seed=5, platform="cloud",
                               cost_model=cost_model)
        assert modern.best_cost == legacy.best_cost
        assert modern.history == legacy.history

    def test_rl_method_matches_direct_agent(self, cost_model):
        task = TaskSpec(model="ncf", platform="cloud")
        constraint = task.constraint(cost_model)
        legacy = repro.RL_ALGORITHMS["reinforce"](seed=1).search(
            task.make_env(cost_model, constraint), 10)
        modern = repro.explore(model="ncf", method="reinforce", budget=10,
                               seed=1, platform="cloud",
                               cost_model=cost_model)
        assert modern.best_cost == legacy.best_cost

    def test_two_stage_matches_confuciux_run(self, cost_model):
        # ConfuciuX run by hand: REINFORCE on the task's env, then the
        # local GA from its best design on the task's evaluator.
        task = TaskSpec(model="ncf", platform="cloud")
        constraint = task.constraint(cost_model)
        stage1 = repro.Reinforce(seed=2).search(
            task.make_env(cost_model, constraint), 12)
        evaluator = task.make_evaluator(cost_model, constraint)
        stage2 = repro.LocalGA(seed=2, **raw_bounds(evaluator.space)).search(
            evaluator, stage1.best_assignments, 3)
        modern = repro.explore(model="ncf", method="confuciux", budget=12,
                               finetune=3, seed=2, platform="cloud",
                               cost_model=cost_model)
        assert modern.best_cost == stage2.best_cost
        assert modern.best_assignments == stage2.best_assignments
        assert modern.detail.global_cost == stage1.best_cost
        assert modern.detail.initial_valid_cost == next(
            cost for cost in stage1.history if cost != float("inf"))
        assert modern.history[:12] == stage1.history

    def test_compare_methods_accepts_all_kinds(self, cost_model):
        from repro.experiments.runner import compare_methods

        task = TaskSpec(model="ncf", platform="cloud")
        results = compare_methods(
            task, ["random", "reinforce", "local-ga", "confuciux"],
            epochs=8, cost_model=cost_model)
        assert set(results) == {"random", "reinforce", "local-ga",
                                "confuciux"}
        for outcome in results.values():
            assert outcome.best_cost is not None


class TestObservers:
    def test_protocol_fires_and_changes_nothing(self, cost_model):
        spec = SearchSpec(method="sa", **TINY)
        plain = SearchSession(spec, cost_model=cost_model).run()
        recorder = _Recorder()
        observed = SearchSession(spec, cost_model=cost_model).run(
            callbacks=[recorder])

        assert recorder.started == 1
        assert recorder.steps == spec.budget
        assert recorder.improvements >= 1
        assert recorder.finished == [observed]
        # Observation is free: identical numbers with and without.
        assert observed.best_cost == plain.best_cost
        assert observed.history == plain.history

    def test_episodic_observer_counts_episodes(self, cost_model):
        recorder = _Recorder()
        result = repro.explore(method="reinforce", callbacks=[recorder],
                               cost_model=cost_model, **TINY)
        assert recorder.steps == TINY["budget"]
        assert result.feasible

    def test_early_stopping_genome(self, cost_model):
        stopper = EarlyStopping(patience=4)
        result = repro.explore(model="ncf", method="random", budget=500,
                               seed=0, platform="cloud",
                               callbacks=[stopper], cost_model=cost_model)
        assert result.stopped_early
        assert stopper.stopped_at is not None
        assert len(result.history) < 500
        assert result.feasible
        assert result.result.extra.get("stopped_early") is True

    def test_early_stopping_episodic(self, cost_model):
        result = repro.explore(model="ncf", method="reinforce", budget=300,
                               seed=0, platform="cloud",
                               callbacks=[EarlyStopping(patience=3)],
                               cost_model=cost_model)
        assert result.stopped_early
        assert len(result.history) < 300
        assert result.feasible

    def test_target_cost_stop(self, cost_model):
        # Stop the moment anything feasible appears.
        result = repro.explore(model="ncf", method="random", budget=500,
                               seed=0, platform="cloud",
                               callbacks=[EarlyStopping(
                                   target_cost=float("inf"))],
                               cost_model=cost_model)
        assert result.stopped_early
        assert result.feasible

    def test_request_stop(self, cost_model):
        class StopAtFive(SearchObserver):
            def on_step(self, step, cost, best_cost):
                if step >= 5:
                    self.request_stop()

        result = repro.explore(model="ncf", method="random", budget=500,
                               seed=0, platform="cloud",
                               callbacks=[StopAtFive()],
                               cost_model=cost_model)
        assert result.stopped_early
        assert len(result.history) == 5

    @pytest.mark.parametrize("envs", [1, 4])
    def test_stop_in_the_last_global_episode_skips_finetune(self,
                                                            cost_model,
                                                            envs):
        """A stop requested in stage 1's last episode (or wave) still
        ends the two-stage run there: stage 2 never starts."""
        class StopAtTwelve(SearchObserver):
            def on_step(self, step, cost, best_cost):
                return step >= 12

        result = repro.explore(model="mobilenet_v2", method="confuciux",
                               layer_slice=8, budget=12, finetune=3,
                               seed=0, envs=envs, callbacks=[StopAtTwelve()],
                               cost_model=cost_model)
        assert result.stopped_early
        assert result.result.episodes == 12
        assert result.detail is None
        assert "finetune_cost" not in result.result.extra

    @pytest.mark.parametrize("mix", [False, True])
    def test_stopped_local_ga_keeps_tuple_assignments(self, cost_model,
                                                      mix):
        """The stage-2 GA scores array genomes; the observed best it
        hands back when stopped early is still assignment tuples of
        Python ints (style names under MIX) and survives JSON."""
        class StopAtForty(SearchObserver):
            def on_step(self, step, cost, best_cost):
                if step >= 40:
                    self.request_stop()

        spec = SearchSpec(model="mobilenet_v2", method="local-ga",
                          budget=200, seed=0, layer_slice=4, mix=mix)
        outcome = SearchSession(spec, cost_model=cost_model).run(
            callbacks=[StopAtForty()])
        assert outcome.stopped_early and len(outcome.history) == 40
        best = outcome.best_assignments
        assert type(best) is tuple and len(best) == 4
        for row in best:
            assert type(row) is tuple and len(row) == (3 if mix else 2)
            assert type(row[0]) is int and type(row[1]) is int
            if mix:
                assert row[2] in BATCH_STYLES
        clone = SessionResult.from_json(outcome.to_json())
        assert clone.best_assignments == best

    def test_stopped_pareto_ga_keeps_its_front(self, cost_model):
        """An early-stopped ``pareto-ga`` run reports the front of the
        generations it scored, and the front survives JSON."""
        from repro.objectives import non_dominated_mask

        spec = SearchSpec(model="mobilenet_v2", method="pareto-ga",
                          objective="multi:latency,energy", layer_slice=8,
                          budget=3000, seed=0)
        outcome = SearchSession(spec, cost_model=cost_model).run(
            callbacks=[EarlyStopping(patience=100)])
        assert outcome.stopped_early
        assert outcome.result.evaluations < spec.budget
        front = outcome.pareto_front
        assert isinstance(front, list) and front
        assert outcome.result.extra["objective_names"] \
            == ["latency", "energy"]
        values = [[point["objectives"]["latency"],
                   point["objectives"]["energy"]] for point in front]
        assert non_dominated_mask(values).all()
        clone = SessionResult.from_json(outcome.to_json())
        assert clone.pareto_front == front
        assert f"{len(front)}-point Pareto front" in outcome.summary()

    def test_observers_reset_between_runs(self, cost_model):
        # One observer instance serves many runs: a stop requested in run
        # 1 (or stale patience counters) must not leak into run 2.
        spec = SearchSpec(method="random", **dict(TINY, budget=30))
        session = SearchSession(spec, cost_model=cost_model)

        class StopAtFive(SearchObserver):
            def on_step(self, step, cost, best_cost):
                if step >= 5:
                    self.request_stop()

        stopper = StopAtFive()
        first = session.run(callbacks=[stopper])
        assert first.stopped_early and len(first.history) == 5
        second = session.run(callbacks=[stopper])
        assert second.stopped_early and len(second.history) == 5

        patience = EarlyStopping(patience=4)
        session.run(callbacks=[patience])
        stopped_at = patience.stopped_at
        session.run(callbacks=[patience])
        assert patience.stopped_at == stopped_at  # identical fresh run

    def test_local_ga_budget_counts_evaluations(self, cost_model):
        # Equal-budget fairness: local-ga must not outspend the other
        # genome methods by interpreting budget as whole generations.
        budget = 60
        result = repro.explore(model="ncf", method="local-ga",
                               budget=budget, seed=0, platform="cloud",
                               cost_model=cost_model)
        assert result.feasible
        assert result.result.evaluations <= budget + 20  # one population

    def test_checkpoint_hook_writes_best(self, cost_model, tmp_path):
        path = tmp_path / "checkpoint.json"
        result = repro.explore(method="sa", callbacks=[CheckpointHook(path)],
                               cost_model=cost_model, **TINY)
        document = json.loads(path.read_text())
        assert document["best_cost"] == result.best_cost
        assert document["best_assignments"] is not None

    def test_progress_reporter_writes_stream(self, cost_model):
        import io

        stream = io.StringIO()
        repro.explore(method="random", cost_model=cost_model,
                      callbacks=[ProgressReporter(every=2, stream=stream)],
                      **TINY)
        output = stream.getvalue()
        assert "[step 2]" in output
        assert "[done]" in output


class TestSessionResult:
    def test_save_and_load(self, cost_model, tmp_path):
        result = repro.explore(method="random", cost_model=cost_model,
                               **TINY)
        path = tmp_path / "run.json"
        result.save(path)
        loaded = SessionResult.load(path)
        assert loaded.spec == result.spec
        assert loaded.best_cost == result.best_cost

    def test_summary_mentions_method_and_model(self, cost_model):
        result = repro.explore(method="grid", cost_model=cost_model, **TINY)
        assert "grid" in result.summary()
        assert "ncf" in result.summary()

    def test_two_stage_detail_and_extra(self, cost_model):
        result = repro.explore(method="confuciux", cost_model=cost_model,
                               **TINY)
        assert result.detail is not None
        assert result.detail.best_cost == result.best_cost
        assert result.result.extra["global_cost"] is not None
        # extra survives serialization.
        clone = SessionResult.from_json(result.to_json())
        assert clone.result.extra["global_cost"] \
            == result.result.extra["global_cost"]

    def test_session_validates_method_eagerly(self):
        with pytest.raises(KeyError, match="unknown method"):
            SearchSession(SearchSpec(model="ncf", method="alphago"))

    @pytest.mark.parametrize("method", ["reinforce", "confuciux"])
    def test_ls_deployment_needs_a_genome_method(self, cost_model, method):
        # The env assigns each layer its own design point; under LS a
        # run would report per-layer designs with LP costs.
        with pytest.raises(ValueError, match="genome-space methods"):
            repro.explore(method=method, deployment="ls",
                          cost_model=cost_model, **TINY)


# ----------------------------------------------------------------------
# Teardown, checkpoints and stored documents
# ----------------------------------------------------------------------
def _ga_spec(**overrides) -> SearchSpec:
    base = dict(model="mobilenet_v2", method="ga", budget=40, seed=7,
                layer_slice=4)
    base.update(overrides)
    return SearchSpec(**base)


def _comparable(outcome) -> dict:
    """The result as a dict, minus wall-clock noise."""
    data = search_result_to_dict(outcome.result)
    data.pop("wall_time_s", None)
    data["stopped_early"] = outcome.stopped_early
    return data


class TestTeardownHook:
    def test_on_teardown_fires_on_every_exit_path(self):
        events = []

        class Recorder(SearchObserver):
            def on_finish(self, result):
                events.append("finish")

            def on_teardown(self):
                events.append("teardown")

        SearchSession(_ga_spec()).run(callbacks=[Recorder()])
        assert events == ["teardown", "finish"]

        class Crashing:
            name = "crashing"

            def __init__(self, seed=None):
                pass

            def search(self, evaluator, budget):
                raise ValueError("no search today")

        register_method("_test-crashing", Crashing, kind="genome",
                        overwrite=True)
        events.clear()
        try:
            with pytest.raises(ValueError):
                SearchSession(_ga_spec(method="_test-crashing")).run(
                    callbacks=[Recorder()])
        finally:
            unregister_method("_test-crashing")
        # Teardown fired, on_finish (success-only) did not.
        assert events == ["teardown"]


class TestCheckpoints:
    def test_checkpoint_write_is_atomic(self, tmp_path):
        path = tmp_path / "best.json"
        spec = _ga_spec()
        SearchSession(spec).run(callbacks=[CheckpointHook(path)])
        assert path.exists()
        assert not (tmp_path / "best.json.tmp").exists()
        document = json.loads(path.read_text())
        assert {"step", "best_cost", "best_assignments",
                "spec"} <= set(document)
        assert document["spec"] == spec.to_dict()

    def test_interrupted_run_resumes_to_identical_trajectory(self, tmp_path):
        """CheckpointHook + early stop, then resume from the spec: the
        resumed (fresh, deterministic) run reproduces the uninterrupted
        trajectory exactly, and the interrupted history is its prefix."""
        spec = _ga_spec(budget=60, seed=9)
        uninterrupted = SearchSession(spec).run()

        checkpoint = tmp_path / "best.json"
        stopper = EarlyStopping(patience=8)
        interrupted = SearchSession(spec).run(
            callbacks=[CheckpointHook(checkpoint), stopper])
        assert interrupted.stopped_early
        stopped_at = stopper.stopped_at
        assert stopped_at is not None

        # The interrupted trajectory is a prefix of the full one ...
        full = uninterrupted.result.history
        partial = interrupted.result.history
        assert partial == full[: len(partial)]
        assert len(partial) == stopped_at

        # ... the checkpoint holds the best seen up to the stop ...
        document = json.loads(checkpoint.read_text())
        assert document["best_cost"] == interrupted.best_cost
        assert document["step"] <= stopped_at

        # ... and "resume" -- rerunning the frozen spec -- lands on the
        # uninterrupted result bit for bit.
        resumed = SearchSession(spec).run()
        assert resumed.best_cost == uninterrupted.best_cost
        assert resumed.result.history == full
        assert resumed.result.best_genome == uninterrupted.result.best_genome

    def test_resume_replays_to_identical_result(self, tmp_path):
        """Kill a run early; resume() from its checkpoint lands on the
        bit-identical final result of the uninterrupted run."""
        spec = _ga_spec(seed=9)
        uninterrupted = SearchSession(spec).run()
        path = tmp_path / "best.json"
        interrupted = SearchSession(spec).run(
            callbacks=[CheckpointHook(path), EarlyStopping(patience=8)])
        assert interrupted.stopped_early
        resumed = CheckpointHook.resume(path)
        assert _comparable(resumed) == _comparable(uninterrupted)
        assert resumed.best_cost is not None
        assert resumed.best_cost <= interrupted.best_cost

    def test_resume_without_spec_raises(self, tmp_path):
        path = tmp_path / "legacy.json"
        path.write_text(json.dumps({"step": 3, "best_cost": 1.0,
                                    "best_assignments": None}))
        with pytest.raises(ValueError, match="no spec"):
            CheckpointHook.resume(path)


class TestDocuments:
    """Specs, results and checkpoints survive serialize -> deserialize
    -> serialize unchanged, and documents written by older versions
    still load and resume."""

    def test_search_spec_serialization_is_a_fixed_point(self):
        spec = _ga_spec(envs=4)
        once = spec.to_json()
        again = SearchSpec.from_json(once)
        assert again == spec
        assert again.to_json() == once
        assert hash(again) == hash(spec)

    def test_session_result_round_trips_with_provenance(self):
        outcome = SearchSession(_ga_spec()).run()
        document = outcome.to_json()
        restored = SessionResult.from_json(document)
        assert restored.to_json() == document
        assert restored.provenance == outcome.provenance
        assert restored.spec == outcome.spec

    def test_checkpoint_document_round_trips(self, tmp_path):
        path = tmp_path / "best.json"
        SearchSession(_ga_spec()).run(callbacks=[CheckpointHook(path)])
        document = json.loads(path.read_text())
        assert json.loads(json.dumps(document)) == document
        assert SearchSpec.from_dict(document["spec"]) == _ga_spec()

    def test_documents_written_by_1_8_load_and_resume(self, tmp_path):
        """1.8 wrote ``"nodes": null, "autotune": null`` into every
        spec; results and checkpoints carrying them still load and
        resume, and a non-null value names the replacement."""
        path = tmp_path / "best.json"
        outcome = SearchSession(_ga_spec()).run(
            callbacks=[CheckpointHook(path)])
        legacy = outcome.to_dict()
        legacy["spec"].update(nodes=None, autotune=None)
        restored = SessionResult.from_json(json.dumps(legacy))
        assert restored.spec == outcome.spec
        checkpoint = json.loads(path.read_text())
        checkpoint["spec"].update(nodes=None, autotune=None)
        path.write_text(json.dumps(checkpoint))
        assert _comparable(CheckpointHook.resume(path)) \
            == _comparable(outcome)
        for field, value in (("nodes", 4), ("autotune", True)):
            stale = dict(legacy, spec=dict(legacy["spec"], **{field: value}))
            with pytest.raises(ValueError, match="removed in 2.0"):
                SessionResult.from_dict(stale)

    def test_documents_written_by_2_x_load_and_resume(self, tmp_path):
        """Every 2.x spec carries ``"kernel"``.  Its exact settings ran
        the batched engine's numbers, so results and checkpoints carrying
        them still load and resume bit-identically; float32 results
        cannot be reproduced, so ``"fused32"`` is refused."""
        path = tmp_path / "best.json"
        outcome = SearchSession(_ga_spec()).run(
            callbacks=[CheckpointHook(path)])
        legacy = outcome.to_dict()
        legacy["spec"]["kernel"] = None
        legacy["provenance"]["kernel"] = "batched"
        restored = SessionResult.from_json(json.dumps(legacy))
        assert restored.spec == outcome.spec
        assert _comparable(restored) == _comparable(outcome)
        checkpoint = json.loads(path.read_text())
        checkpoint["spec"]["kernel"] = "fused"
        path.write_text(json.dumps(checkpoint))
        assert _comparable(CheckpointHook.resume(path)) \
            == _comparable(outcome)
        stale = dict(legacy, spec=dict(legacy["spec"], kernel="fused32"))
        with pytest.raises(ValueError,
                           match="removed in 3.0.*fused32.*re-run"):
            SessionResult.from_dict(stale)

    def test_documents_written_by_3_x_load_and_resume(self, tmp_path,
                                                      monkeypatch):
        """Every 3.x spec carries the four execution knobs.  None of
        them ever changed a result, so a result carrying them loads
        under the pinned store key and a checkpoint carrying them
        resumes bit-identically, whatever values they hold."""
        monkeypatch.delenv("REPRO_ENVS", raising=False)
        knobs = {"executor": "process", "workers": 2,
                 "dispatch_min_batch": 0, "task_timeout_s": 30.0}
        path = tmp_path / "best.json"
        outcome = SearchSession(_ga_spec()).run(
            callbacks=[CheckpointHook(path)])
        legacy = outcome.to_dict()
        legacy["spec"].update(knobs)
        restored = SessionResult.from_json(json.dumps(legacy))
        assert restored.spec == outcome.spec
        assert result_key(restored.spec) == (
            "f58e5ec0cc5dc69e6678c5096fc216f3d6c83733db381bdda84b8b1fe0253775")
        assert _comparable(restored) == _comparable(outcome)
        checkpoint = json.loads(path.read_text())
        checkpoint["spec"].update(knobs)
        path.write_text(json.dumps(checkpoint))
        assert _comparable(CheckpointHook.resume(path)) \
            == _comparable(outcome)
