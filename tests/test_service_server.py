"""The search server: lifecycle, cache semantics, single-flight dedup,
cancellation, concurrency, and failed-job re-runs.

The acceptance contract under test (see ROADMAP item 1):

* identical spec submitted twice -> exactly one execution, second
  response served from the store bit-identically;
* N *concurrent* identical submissions -> one execution, N callers see
  the same job;
* ``force`` re-executes and overwrites;
* cancellation maps onto the observer protocol's graceful early stop
  (best-so-far survives, truncated results are never cached);
* concurrent sessions on the scheduler threads are bit-identical to
  serial runs;
* a job whose session raises ends ``FAILED`` uncached, so resubmitting
  its identity runs it afresh.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.rl.common import SearchResult
from repro.search import register_method, unregister_method
from repro.search.session import SearchSession
from repro.search.spec import SearchSpec
from repro.service.server import JobState, SearchServer
from repro.service.store import ResultStore


def _spec(**overrides) -> SearchSpec:
    base = dict(model="mnasnet", method="random", budget=40, seed=0,
                layer_slice=3)
    base.update(overrides)
    return SearchSpec(**base)


def _server(tmp_path, **kwargs) -> SearchServer:
    kwargs.setdefault("store", ResultStore(root=tmp_path / "cache"))
    return SearchServer(**kwargs)


# ----------------------------------------------------------------------
# A registered method that blocks until released -- the deterministic
# seam for single-flight and cancellation tests.
# ----------------------------------------------------------------------
class _Gate:
    """Module-level rendezvous for the ``gated`` test method."""

    entered = threading.Event()
    release = threading.Event()


class _GatedMethod:
    def __init__(self, seed=None):
        self.seed = seed

    def search(self, evaluator, budget) -> SearchResult:
        _Gate.entered.set()
        _Gate.release.wait(timeout=30)
        # One real evaluation so observers and counters fire.
        evaluator.evaluate_genome([0] * evaluator.genome_length)
        result = SearchResult(algorithm="gated")
        result.evaluations = 1
        return result


@pytest.fixture
def gated_method():
    _Gate.entered = threading.Event()
    _Gate.release = threading.Event()
    register_method("gated", _GatedMethod, kind="genome",
                    description="test-only blocking method")
    try:
        yield "gated"
    finally:
        _Gate.release.set()
        unregister_method("gated")


# ----------------------------------------------------------------------
# Lifecycle and cache semantics
# ----------------------------------------------------------------------
class TestLifecycle:
    def test_submit_runs_to_done_with_event_stream(self, tmp_path):
        with _server(tmp_path) as server:
            job = server.submit(_spec())
            job.wait(timeout=60)
            assert job.state == JobState.DONE
            assert not job.cached
            assert job.result is not None
            events = list(job.events(timeout=5))
            kinds = [event["type"] for event in events]
            assert kinds[0] == "state" and kinds[-1] == "state"
            assert events[-1]["state"] == JobState.DONE
            summary = job.to_dict()
            assert summary["state"] == "DONE"
            assert summary["spec"] == _spec().to_dict()

    def test_failed_job_carries_the_error(self, tmp_path):
        with _server(tmp_path) as server:
            spec = _spec()
            object.__setattr__(spec, "model", "nonexistent")
            job = server.submit(spec)
            job.wait(timeout=60)
            assert job.state == JobState.FAILED
            assert "nonexistent" in job.error

    def test_unknown_job_id_raises(self, tmp_path):
        with _server(tmp_path) as server:
            with pytest.raises(KeyError):
                server.job("j999")

    @pytest.mark.parametrize("changes, message", [
        (dict(method="reinforce", envs=4),
         "^reinforce has no lockstep-wave path"),
        (dict(method="confuciux", deployment="ls"),
         "^confuciux: only genome-space methods"),
    ])
    def test_unrunnable_spec_is_refused_before_a_job_exists(
            self, tmp_path, changes, message):
        """REINFORCE has no lockstep-wave path and an episodic method no
        LS mode, so such a spec is refused at submit, naming the method,
        instead of queueing a job that ends FAILED."""
        with _server(tmp_path) as server:
            with pytest.raises(ValueError, match=message):
                server.submit(SearchSpec(model="ncf", **changes))
            stats = server.stats()
            assert stats["jobs"] == 0
            assert stats["executions"] == 0

    def test_closed_server_rejects_submissions(self, tmp_path):
        server = _server(tmp_path)
        server.close()
        with pytest.raises(RuntimeError):
            server.submit(_spec())


class TestCacheSemantics:
    def test_second_identical_submission_is_a_bit_identical_hit(
            self, tmp_path):
        with _server(tmp_path) as server:
            first = server.submit(_spec()).wait(timeout=60)
            second = server.submit(_spec()).wait(timeout=60)
            assert server.executions == 1
            assert not first.cached and second.cached
            assert second.result.to_dict() == first.result.to_dict()

    def test_changed_spec_misses(self, tmp_path):
        with _server(tmp_path) as server:
            server.submit(_spec()).wait(timeout=60)
            server.submit(_spec(seed=1)).wait(timeout=60)
            assert server.executions == 2

    def test_force_reexecutes_and_overwrites(self, tmp_path):
        with _server(tmp_path) as server:
            first = server.submit(_spec()).wait(timeout=60)
            forced = server.submit(_spec(), force=True).wait(timeout=60)
            assert server.executions == 2
            assert not forced.cached
            # The overwritten entry now serves the forced run's document,
            # whose search payload matches the first run's (same spec,
            # deterministic method) up to wall clock.
            hit = server.submit(_spec()).wait(timeout=60)
            assert hit.cached
            assert hit.result.to_dict() == forced.result.to_dict()
            payload = dict(hit.result.to_dict()["result"])
            reference = dict(first.result.to_dict()["result"])
            payload.pop("wall_time_s"), reference.pop("wall_time_s")
            assert payload == reference

    def test_cache_survives_server_restart(self, tmp_path):
        with _server(tmp_path) as server:
            server.submit(_spec()).wait(timeout=60)
        with _server(tmp_path) as reborn:
            hit = reborn.submit(_spec()).wait(timeout=60)
            assert hit.cached
            assert reborn.executions == 0

    def test_cacheless_server_always_runs(self, tmp_path):
        with SearchServer(store=None) as server:
            server.submit(_spec()).wait(timeout=60)
            server.submit(_spec()).wait(timeout=60)
            assert server.executions == 2


# ----------------------------------------------------------------------
# Single-flight dedup
# ----------------------------------------------------------------------
class TestSingleFlight:
    def test_concurrent_identical_submissions_share_one_job(
            self, tmp_path, gated_method):
        with _server(tmp_path, max_concurrent=2) as server:
            spec = _spec(method=gated_method, budget=1)
            leader = server.submit(spec)
            assert _Gate.entered.wait(timeout=10)
            followers = [server.submit(spec) for _ in range(8)]
            assert all(job is leader for job in followers)
            _Gate.release.set()
            leader.wait(timeout=60)
            assert server.executions == 1
            assert leader.state == JobState.DONE

    def test_many_threads_one_execution(self, tmp_path, gated_method):
        with _server(tmp_path, max_concurrent=2) as server:
            spec = _spec(method=gated_method, budget=1)
            jobs = []
            lock = threading.Lock()

            def submit():
                job = server.submit(spec)
                with lock:
                    jobs.append(job)
                job.wait(timeout=60)

            threads = [threading.Thread(target=submit)
                       for _ in range(8)]
            for thread in threads:
                thread.start()
            assert _Gate.entered.wait(timeout=10)
            _Gate.release.set()
            for thread in threads:
                thread.join(timeout=60)
            assert server.executions == 1
            assert len({id(job) for job in jobs}) == 1
            assert jobs[0].state == JobState.DONE

    def test_done_flight_leaves_the_inflight_table(self, tmp_path):
        with _server(tmp_path) as server:
            server.submit(_spec()).wait(timeout=60)
            deadline = time.monotonic() + 5
            while server.stats()["inflight"] and \
                    time.monotonic() < deadline:
                time.sleep(0.01)
            assert server.stats()["inflight"] == 0


# ----------------------------------------------------------------------
# Cancellation
# ----------------------------------------------------------------------
class TestCancellation:
    def test_pending_job_cancels_outright(self, tmp_path, gated_method):
        with _server(tmp_path, max_concurrent=1) as server:
            blocker = server.submit(_spec(method=gated_method, budget=1))
            assert _Gate.entered.wait(timeout=10)
            pending = server.submit(_spec(seed=7))
            assert pending.state == JobState.PENDING
            assert server.cancel(pending.id)
            assert pending.state == JobState.CANCELLED
            _Gate.release.set()
            blocker.wait(timeout=60)
            # The cancelled job never ran.
            assert server.executions == 1

    def test_running_job_stops_gracefully_and_is_not_cached(
            self, tmp_path):
        with _server(tmp_path, max_concurrent=1,
                     progress_every=1) as server:
            job = server.submit(_spec(budget=100_000))
            deadline = time.monotonic() + 30
            while job.state == JobState.PENDING \
                    and time.monotonic() < deadline:
                time.sleep(0.005)
            assert server.cancel(job.id)
            job.wait(timeout=60)
            assert job.state == JobState.CANCELLED
            # Truncated runs are not the spec's fixed point: no entry.
            assert server.store.get(_spec(budget=100_000)) is None
            assert job.result is not None
            assert job.result.stopped_early

    def test_terminal_job_cancel_is_a_noop(self, tmp_path):
        with _server(tmp_path) as server:
            job = server.submit(_spec()).wait(timeout=60)
            assert not server.cancel(job.id)
            assert job.state == JobState.DONE


# ----------------------------------------------------------------------
# Shutdown: close() must stop RUNNING jobs and honor its deadline
# ----------------------------------------------------------------------
class TestClose:
    def test_close_stops_running_job(self, tmp_path):
        """Regression: close(wait=True) used to request stop only on
        PENDING jobs, so a big RUNNING job made shutdown wait for the
        whole search to finish."""
        server = _server(tmp_path, max_concurrent=1, progress_every=1)
        job = server.submit(_spec(budget=10_000_000))
        deadline = time.monotonic() + 30
        while job.state == JobState.PENDING \
                and time.monotonic() < deadline:
            time.sleep(0.005)
        assert job.state == JobState.RUNNING
        started = time.monotonic()
        assert server.close(wait=True, timeout=30)
        # Graceful early stop, not a 10M-step run-out.
        assert time.monotonic() - started < 30
        assert job.state == JobState.CANCELLED
        assert server.store.get(_spec(budget=10_000_000)) is None

    def test_close_timeout_bounds_a_wedged_job(self, tmp_path,
                                               gated_method):
        """A job stuck outside the observer protocol can't be stopped
        gracefully; close(timeout=...) must still return (False) instead
        of hanging, and a later close finishes the join."""
        server = _server(tmp_path, max_concurrent=1)
        job = server.submit(_spec(method=gated_method, budget=1))
        assert _Gate.entered.wait(timeout=10)
        started = time.monotonic()
        assert not server.close(wait=True, timeout=0.3)
        assert time.monotonic() - started < 10
        # Unwedge: the method returns, the worker thread sees the cancel
        # request and the queue sentinel, and a re-close joins cleanly.
        _Gate.release.set()
        assert server.close(wait=True, timeout=30)
        job.wait(timeout=10)
        assert job.state == JobState.CANCELLED

    def test_close_without_wait_returns_immediately(self, tmp_path,
                                                    gated_method):
        server = _server(tmp_path, max_concurrent=1)
        server.submit(_spec(method=gated_method, budget=1))
        assert _Gate.entered.wait(timeout=10)
        started = time.monotonic()
        server.close(wait=False)
        assert time.monotonic() - started < 5
        _Gate.release.set()
        assert server.close(wait=True, timeout=30)


# ----------------------------------------------------------------------
# Concurrency parity and failed-job re-runs
# ----------------------------------------------------------------------
class TestSharedPool:
    """The scheduler's thread pool: concurrent sessions share one
    process and each scores its batches in-process."""

    def test_concurrent_sessions_bit_identical_to_serial(self, tmp_path):
        specs = [_spec(method="ga", budget=60, seed=seed)
                 for seed in (0, 1)]
        serial = [SearchSession(spec).run() for spec in specs]
        with _server(tmp_path, max_concurrent=2) as server:
            jobs = [server.submit(spec) for spec in specs]
            for job in jobs:
                job.wait(timeout=120)
            assert {job.state for job in jobs} == {JobState.DONE}
            for job, reference in zip(jobs, serial):
                assert job.result.best_cost == reference.best_cost
                assert job.result.history == reference.history
                assert (job.result.result.best_genome
                        == reference.result.best_genome)


class _FailOnce:
    """Raises on its first search only, like a job hit by a transient
    failure: a re-run of the same deterministic spec then succeeds."""

    calls = 0

    def __init__(self, seed=None):
        pass

    def search(self, evaluator, budget):
        type(self).calls += 1
        if type(self).calls == 1:
            raise RuntimeError("transient failure")
        return SearchResult(algorithm="fail-once", best_cost=1.0,
                            evaluations=budget)


class TestFailedJobs:
    def test_failed_job_can_be_rerun(self, tmp_path):
        """A job whose session raises ends FAILED, writes no store entry
        and leaves the in-flight table, so resubmitting its identity
        runs a fresh job; valid work afterwards still completes."""
        _FailOnce.calls = 0
        register_method("_test-fail-once", _FailOnce, kind="genome",
                        overwrite=True)
        try:
            with _server(tmp_path) as server:
                spec = _spec(method="_test-fail-once")
                failed = server.submit(spec).wait(timeout=60)
                assert failed.state == JobState.FAILED
                assert "transient failure" in failed.error
                assert server.store.get(spec) is None
                stats = server.stats()
                assert stats["executions"] == 1
                assert stats["inflight"] == 0

                rerun = server.submit(spec).wait(timeout=60)
                assert rerun is not failed
                assert rerun.state == JobState.DONE
                assert not rerun.cached
                assert server.stats()["executions"] == 2

                valid = server.submit(_spec()).wait(timeout=60)
                assert valid.state == JobState.DONE
        finally:
            unregister_method("_test-fail-once")


class _FullDiskStore(ResultStore):
    """A store whose every write fails, as on a full disk."""

    def put(self, spec, result):
        raise OSError(28, "No space left on device")


class TestStoreWriteErrors:
    def test_a_failed_store_write_ends_the_job_done_uncached(self,
                                                             tmp_path):
        """A store write that raises must not end a scheduler thread: the
        job ends DONE with its result, uncached, the error rides in its
        DONE event and in stats(), and later jobs -- a resubmission of
        the same identity included -- still run."""
        store = _FullDiskStore(root=tmp_path / "cache")
        with SearchServer(store=store, max_concurrent=2) as server:
            first = server.submit(_spec()).wait(timeout=30)
            second = server.submit(_spec(seed=1)).wait(timeout=30)
            for job in (first, second):
                assert job.state == JobState.DONE
                assert job.result is not None and not job.cached
                assert job.error is None
                final = list(job.events(timeout=5))[-1]
                assert final["state"] == JobState.DONE
                assert final["store_error"] \
                    == "OSError: [Errno 28] No space left on device"
            assert all(thread.is_alive() for thread in server._threads)
            stats = server.stats()
            assert stats["store_errors"] == 2
            assert stats["inflight"] == 0

            again = server.submit(_spec()).wait(timeout=30)
            assert again is not first
            assert again.state == JobState.DONE and not again.cached
            assert again.result.best_cost == first.result.best_cost
            assert server.stats()["executions"] == 3
