"""Observer/worker lifecycle edge cases for the parallel engine.

Worker processes are the one resource a search can genuinely leak, so
these tests pin the teardown guarantees: early stops and mid-generation
method exceptions must terminate the pool (no orphan processes), the
``on_teardown`` hook must fire on every exit path, and a checkpointed
run that gets interrupted must be resumable to the exact trajectory of
an uninterrupted run (sessions are deterministic from their spec).
"""

from __future__ import annotations

import json
import multiprocessing

import pytest

import repro
from repro.search import (
    CheckpointHook,
    EarlyStopping,
    SearchObserver,
    SearchSession,
    SearchSpec,
    register_method,
    unregister_method,
)
from repro.parallel import ParallelCoordinator


def _orphan_workers():
    """Live ``repro-worker`` children of this process."""
    return [process for process in multiprocessing.active_children()
            if process.name.startswith("repro-worker")]


def _spec(**overrides) -> SearchSpec:
    # dispatch_min_batch=0: lifecycle tests are about worker ownership,
    # so the small test batches must actually reach the workers.
    base = dict(model="mobilenet_v2", method="ga", budget=60, seed=3,
                layer_slice=4, executor="process", workers=2,
                dispatch_min_batch=0)
    base.update(overrides)
    return SearchSpec(**base)


class TestWorkerTeardown:
    def test_early_stop_terminates_workers(self):
        """EarlyStopping mid-generation: result is kept, pool is gone."""
        coordinator = ParallelCoordinator("process", workers=2)
        outcome = SearchSession(_spec()).run(
            callbacks=[EarlyStopping(patience=5), coordinator])
        assert outcome.stopped_early
        assert outcome.result.extra.get("stopped_early") is True
        assert coordinator.alive_workers == 0
        assert not _orphan_workers()

    def test_method_exception_terminates_workers(self):
        """A method crashing mid-generation must not orphan the pool."""

        class Exploding:
            name = "exploding"

            def __init__(self, seed=None):
                pass

            def search(self, evaluator, budget):
                evaluator.evaluate_population(
                    [[0] * evaluator.genome_length] * 8)
                raise RuntimeError("boom mid-generation")

        register_method("_test-exploding", Exploding, kind="genome",
                        batchable=True, overwrite=True)
        coordinator = ParallelCoordinator("process", workers=2)
        try:
            with pytest.raises(RuntimeError, match="boom"):
                SearchSession(_spec(method="_test-exploding")).run(
                    callbacks=[coordinator])
        finally:
            unregister_method("_test-exploding")
        assert coordinator.alive_workers == 0
        assert not _orphan_workers()

    def test_session_owned_coordinator_cleans_up(self):
        """With no explicit coordinator the session creates one; it must
        vanish with the run on success and on failure alike."""
        SearchSession(_spec()).run()
        assert not _orphan_workers()

    def test_user_installed_backend_is_not_clobbered(self, monkeypatch):
        """A backend the caller installed with CostModel.set_executor is
        theirs: the session must neither stack a second pool on top nor
        uninstall it on teardown."""
        from repro import CostModel
        from repro.parallel import make_backend

        monkeypatch.setenv("REPRO_EXECUTOR", "process")
        model = CostModel()
        with make_backend("process", 2) as backend:
            model.set_executor(backend)
            SearchSession(_spec(executor=None, workers=None),
                          cost_model=model).run()
            assert model.executor is backend
        assert not _orphan_workers()

    def test_keep_alive_pool_survives_runs_until_closed(self):
        """A keep-alive coordinator serves many sessions on one pool."""
        with ParallelCoordinator("process", workers=2,
                                 keep_alive=True) as pool:
            first = SearchSession(_spec(seed=1)).run(callbacks=[pool])
            assert pool.alive_workers == 2
            second = SearchSession(_spec(seed=1)).run(callbacks=[pool])
            assert first.best_cost == second.best_cost
        assert pool.alive_workers == 0
        assert not _orphan_workers()


class TestTeardownHook:
    def test_on_teardown_fires_on_every_exit_path(self):
        events = []

        class Recorder(SearchObserver):
            def on_finish(self, result):
                events.append("finish")

            def on_teardown(self):
                events.append("teardown")

        SearchSession(_spec(executor="serial")).run(callbacks=[Recorder()])
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
                SearchSession(
                    _spec(method="_test-crashing", executor="serial")
                ).run(callbacks=[Recorder()])
        finally:
            unregister_method("_test-crashing")
        # Teardown fired, on_finish (success-only) did not.
        assert events == ["teardown"]


class TestCheckpointResume:
    def test_interrupted_run_resumes_to_identical_trajectory(self, tmp_path):
        """CheckpointHook + early stop, then resume from the spec: the
        resumed (fresh, deterministic) run reproduces the uninterrupted
        trajectory exactly, and the interrupted history is its prefix."""
        spec = _spec(executor="serial", seed=9)
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

    def test_checkpoint_resume_parity_under_process_executor(self, tmp_path):
        """The same resume contract holds when the runs shard through
        worker processes."""
        serial = SearchSession(_spec(executor="serial", seed=4)).run()
        checkpoint = tmp_path / "best.json"
        interrupted = SearchSession(_spec(seed=4)).run(
            callbacks=[CheckpointHook(checkpoint),
                       EarlyStopping(patience=6)])
        resumed = SearchSession(_spec(seed=4)).run()
        assert interrupted.result.history == \
            serial.result.history[: len(interrupted.result.history)]
        assert resumed.best_cost == serial.best_cost
        assert resumed.result.history == serial.result.history
        assert not _orphan_workers()


class TestPoolLease:
    """One keep-alive pool shared by *concurrent* sessions through
    per-session leases (the search service's execution model): batch
    evaluations from all lessees serialize on the pool lock, so
    interleaved sessions are bit-identical to serial runs."""

    def test_two_interleaved_sessions_match_serial_bit_for_bit(self):
        import threading

        specs = [_spec(seed=seed) for seed in (1, 2)]
        serial = [SearchSession(spec.replace(executor="serial")).run()
                  for spec in specs]
        with ParallelCoordinator("process", workers=2,
                                 keep_alive=True) as pool:
            results = [None, None]
            barrier = threading.Barrier(2)

            def run(index):
                barrier.wait()
                results[index] = SearchSession(specs[index]).run(
                    callbacks=[pool.lease()])

            threads = [threading.Thread(target=run, args=(index,))
                       for index in range(2)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
            assert pool.alive_workers == 2
            for outcome, reference in zip(results, serial):
                assert outcome.best_cost == reference.best_cost
                assert outcome.result.history == reference.result.history
                assert outcome.result.best_genome \
                    == reference.result.best_genome
        assert pool.alive_workers == 0
        assert not _orphan_workers()

    def test_lease_detach_leaves_the_pool_warm(self):
        with ParallelCoordinator("process", workers=2,
                                 keep_alive=True) as pool:
            first = SearchSession(_spec(seed=1)).run(
                callbacks=[pool.lease()])
            assert pool.alive_workers == 2
            second = SearchSession(_spec(seed=1)).run(
                callbacks=[pool.lease()])
            assert second.best_cost == first.best_cost
            assert second.result.history == first.result.history
        assert pool.alive_workers == 0
        assert not _orphan_workers()

    def test_non_keep_alive_pool_outlives_the_first_detach(self):
        """With overlapping lessees the pool must survive until the
        *last* session detaches, keep_alive or not."""
        import threading

        pool = ParallelCoordinator("process", workers=2)
        barrier = threading.Barrier(2)
        results = [None, None]

        def run(index):
            barrier.wait()
            results[index] = SearchSession(_spec(seed=index)).run(
                callbacks=[pool.lease()])

        threads = [threading.Thread(target=run, args=(index,))
                   for index in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert all(outcome is not None for outcome in results)
        assert pool.alive_workers == 0
        assert not _orphan_workers()
