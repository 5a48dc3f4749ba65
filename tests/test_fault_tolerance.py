"""Fault-tolerance suite: supervision, retry, degradation, fault plans.

The fault-tolerance contract has three layers, and this file locks down
all of them:

* **Backend supervision** (:class:`repro.parallel.ProcessBackend`):
  workers killed, hung, or raising injected faults mid-batch are
  respawned and their lost shards re-dispatched, with results
  bit-identical to a crash-free run; the retry budget bounds recovery
  and exhaustion raises the structured error taxonomy with the pool
  cleanly shut down.
* **Degradation ladder** (:class:`repro.parallel.ResilientBackend` via
  :class:`repro.parallel.ParallelCoordinator`): a pool failing outright
  downshifts process -> serial, the session completes, and
  ``degraded_to`` lands in ``SessionResult.provenance`` alongside a
  structured ``on_warning`` notification.
* **Crash-safe sessions**: checkpoints are written atomically and carry
  the spec, so :meth:`CheckpointHook.resume` replays a killed run to
  the bit-identical final result; specs, results, and fault plans all
  survive serialize -> deserialize -> serialize unchanged (ROADMAP 5).

Everything here is driven by deterministic
:class:`~repro.parallel.FaultPlan` scripts -- no luck involved.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import warnings
from dataclasses import fields

import numpy as np
import pytest

import repro
from repro.core.serialization import search_result_to_dict
from repro.costmodel import CostModel
from repro.costmodel.batched import LayerTable
from repro.costmodel.constants import HardwareConfig
from repro.costmodel.report import BatchCostReport
from repro.models import get_model
from repro.parallel import (
    ExecutionError,
    FaultInjected,
    FaultPlan,
    ParallelCoordinator,
    ProcessBackend,
    ResilientBackend,
    TaskTimeoutError,
    WorkerCrashError,
    make_backend,
)
from repro.search import (
    CheckpointHook,
    SearchObserver,
    SearchSession,
    SearchSpec,
)

# ----------------------------------------------------------------------
# Shared fixtures
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def batch_case():
    """One reference batch (hardware, table, inputs, serial report)."""
    layers = get_model("mobilenet_v2")[:4]
    table = LayerTable.build(layers)
    hw = HardwareConfig()
    rng = np.random.default_rng(0)
    n = 64
    inputs = (rng.integers(0, 4, n), rng.integers(0, 3, n),
              rng.integers(8, 128, n), rng.integers(64, 4096, n))
    reference = make_backend("serial").evaluate(hw, table, *inputs)
    return hw, table, inputs, reference


def _assert_reports_equal(want: BatchCostReport,
                          got: BatchCostReport) -> None:
    for field in fields(BatchCostReport):
        np.testing.assert_array_equal(getattr(want, field.name),
                                      getattr(got, field.name))


def _orphan_workers():
    return [process for process in multiprocessing.active_children()
            if process.name.startswith("repro-worker")]


def _spec(**overrides) -> SearchSpec:
    base = dict(model="mobilenet_v2", method="ga", budget=40, seed=7,
                layer_slice=4, dispatch_min_batch=0)
    base.update(overrides)
    return SearchSpec(**base)


def _comparable(outcome) -> dict:
    data = search_result_to_dict(outcome.result)
    data.pop("wall_time_s", None)
    data["stopped_early"] = outcome.stopped_early
    return data


# ----------------------------------------------------------------------
# FaultPlan
# ----------------------------------------------------------------------
class TestFaultPlan:
    def test_round_trip_through_json(self):
        plan = FaultPlan(kill_worker=[(0, 0), (3, 1)],
                         raise_in_kernel=[(2, 0)],
                         delay_s=[(1, 1, 0.25)], seed=None)
        assert FaultPlan.from_json(plan.to_json()) == plan
        # serialize -> deserialize -> serialize is a fixed point.
        assert FaultPlan.from_json(plan.to_json()).to_json() \
            == plan.to_json()

    def test_seeded_plans_are_deterministic(self):
        assert FaultPlan.seeded(5) == FaultPlan.seeded(5)
        assert FaultPlan.seeded(5) != FaultPlan.seeded(6)
        plan = FaultPlan.seeded(5, kills=2, raises=1)
        assert len(plan.kill_worker) == 2
        assert len(plan.raise_in_kernel) == 1
        assert plan.seed == 5

    def test_parse_forms(self, tmp_path):
        plan = FaultPlan(kill_worker=[(1, 0)])
        assert FaultPlan.parse(plan.to_json()) == plan
        assert FaultPlan.parse("seed:3") == FaultPlan.seeded(3)
        path = tmp_path / "plan.json"
        path.write_text(plan.to_json())
        assert FaultPlan.parse(str(path)) == plan

    def test_from_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_FAULTS", raising=False)
        assert FaultPlan.from_env() is None
        monkeypatch.setenv("REPRO_FAULTS", "")
        assert FaultPlan.from_env() is None
        monkeypatch.setenv("REPRO_FAULTS", "seed:2")
        assert FaultPlan.from_env() == FaultPlan.seeded(2)

    def test_rejects_malformed_entries(self):
        with pytest.raises(ValueError, match="pairs"):
            FaultPlan(kill_worker=[(1, 2, 3)])
        with pytest.raises(ValueError, match="non-negative"):
            FaultPlan(kill_worker=[(-1, 0)])
        with pytest.raises(ValueError, match="triples"):
            FaultPlan(delay_s=[(1, 2)])
        with pytest.raises(ValueError, match="unknown"):
            FaultPlan.from_dict({"explode_at": [[0, 0]]})

    def test_per_worker_slices(self):
        plan = FaultPlan(kill_worker=[(0, 0), (2, 0), (1, 1)],
                         delay_s=[(4, 1, 0.5)])
        assert plan.kills_for(0) == [0, 2]
        assert plan.kills_for(1) == [1]
        assert plan.delays_for(1) == [(4, 0.5)]
        assert not plan.empty
        assert FaultPlan().empty


# ----------------------------------------------------------------------
# Backend supervision and recovery
# ----------------------------------------------------------------------
class TestSupervision:
    def test_kill_recovery_is_bit_identical(self, batch_case):
        """Workers killed at two different batches: both respawned, all
        five batches bit-identical to serial."""
        hw, table, inputs, reference = batch_case
        plan = FaultPlan(kill_worker=[(0, 0), (1, 1)])
        with ProcessBackend(workers=2, fault_plan=plan,
                            backoff_base_s=0.01) as backend:
            for _ in range(3):
                _assert_reports_equal(reference,
                                      backend.evaluate(hw, table, *inputs))
            assert backend.respawns == 2
            assert backend.retries == 2
            assert backend.alive_workers == 2
        assert not _orphan_workers()

    def test_injected_raise_is_retried_in_place(self, batch_case):
        """A raise_in_kernel fault is fire-once: the shard is re-sent to
        the same (alive) worker and the batch completes identically."""
        hw, table, inputs, reference = batch_case
        plan = FaultPlan(raise_in_kernel=[(0, 1)])
        with ProcessBackend(workers=2, fault_plan=plan,
                            backoff_base_s=0.01) as backend:
            _assert_reports_equal(reference,
                                  backend.evaluate(hw, table, *inputs))
            assert backend.retries == 1
            assert backend.respawns == 0

    def test_hung_worker_is_terminated_and_recovered(self, batch_case):
        """A delay fault far beyond the deadline: the hung worker is
        terminated, replaced, and the batch still matches serial."""
        hw, table, inputs, reference = batch_case
        plan = FaultPlan(delay_s=[(0, 1, 30.0)])
        with ProcessBackend(workers=2, fault_plan=plan,
                            task_timeout_s=0.5,
                            backoff_base_s=0.01) as backend:
            _assert_reports_equal(reference,
                                  backend.evaluate(hw, table, *inputs))
            assert backend.timeouts >= 1
            assert backend.respawns >= 1
            _assert_reports_equal(reference,
                                  backend.evaluate(hw, table, *inputs))
        assert not _orphan_workers()

    def test_retry_exhaustion_raises_worker_crash_error(self, batch_case):
        """Kill entries are a multiset: enough of them exhaust the
        budget, and the typed error arrives with the pool shut down."""
        hw, table, inputs, _ = batch_case
        plan = FaultPlan(kill_worker=[(0, 0)] * 4)
        backend = ProcessBackend(workers=2, fault_plan=plan,
                                 max_retries=2, backoff_base_s=0.0)
        with pytest.raises(WorkerCrashError) as caught:
            backend.evaluate(hw, table, *inputs)
        assert caught.value.worker_names
        assert isinstance(caught.value, ExecutionError)
        assert isinstance(caught.value, RuntimeError)
        assert backend.alive_workers == 0
        assert not _orphan_workers()

    def test_timeout_exhaustion_raises_task_timeout_error(self, batch_case):
        """Every incarnation of worker 1 hangs: the deadline exhausts
        the budget and TaskTimeoutError carries the deadline."""
        hw, table, inputs, _ = batch_case
        plan = FaultPlan(delay_s=[(0, 1, 30.0)] * 3)
        backend = ProcessBackend(workers=2, fault_plan=plan,
                                 task_timeout_s=0.3, max_retries=1,
                                 backoff_base_s=0.0)
        with pytest.raises(TaskTimeoutError) as caught:
            backend.evaluate(hw, table, *inputs)
        assert caught.value.timeout_s == 0.3
        assert backend.alive_workers == 0
        assert not _orphan_workers()

    def test_zero_retries_disables_recovery(self, batch_case):
        hw, table, inputs, _ = batch_case
        plan = FaultPlan(kill_worker=[(0, 0)])
        backend = ProcessBackend(workers=2, fault_plan=plan, max_retries=0)
        with pytest.raises(WorkerCrashError):
            backend.evaluate(hw, table, *inputs)
        assert not _orphan_workers()

    def test_genuine_kernel_error_is_not_retried(self, batch_case,
                                                 monkeypatch):
        """A deterministic kernel bug must surface immediately as a
        plain RuntimeError -- retries would only replay it -- and leave
        the recovery counters untouched."""
        # Pin a fault-free pool even under the CI fault-injection leg,
        # which exports $REPRO_FAULTS globally: this test is about
        # counters staying at zero.
        monkeypatch.delenv("REPRO_FAULTS", raising=False)
        hw, table, inputs, reference = batch_case
        with ProcessBackend(workers=2) as backend:
            with pytest.raises(RuntimeError, match="worker"):
                backend.evaluate(hw, table,
                                 np.array([99], dtype=np.int64),
                                 np.array([0], dtype=np.int64),
                                 np.array([4], dtype=np.int64),
                                 np.array([64], dtype=np.int64))
            assert backend.retries == 0
            # The pool survives for the next valid batch.
            _assert_reports_equal(reference,
                                  backend.evaluate(hw, table, *inputs))

    def test_env_knobs_resolve_defaults(self, monkeypatch):
        monkeypatch.setenv("REPRO_MAX_RETRIES", "7")
        monkeypatch.setenv("REPRO_TASK_TIMEOUT", "2.5")
        backend = ProcessBackend(workers=1)
        assert backend.max_retries == 7
        assert backend.task_timeout_s == 2.5
        monkeypatch.setenv("REPRO_MAX_RETRIES", "-1")
        with pytest.raises(ValueError, match="REPRO_MAX_RETRIES"):
            ProcessBackend(workers=1)


# ----------------------------------------------------------------------
# Degradation ladder
# ----------------------------------------------------------------------
class TestDegradation:
    def test_process_degrades_to_serial(self, batch_case):
        """Exhaustion on the process rung: the wrapper steps down to
        serial and the batch still matches serial bit for bit."""
        hw, table, inputs, reference = batch_case
        plan = FaultPlan(kill_worker=[(0, 0)] * 3)
        downshifts = []
        inner = ProcessBackend(workers=2, fault_plan=plan, max_retries=1,
                               backoff_base_s=0.0)
        resilient = ResilientBackend(
            inner, on_degrade=lambda error, a, b: downshifts.append((a, b)))
        _assert_reports_equal(reference,
                              resilient.evaluate(hw, table, *inputs))
        assert resilient.degraded_to == "serial"
        assert downshifts == [("process", "serial")]
        stats = resilient.stats()
        assert stats["pool_failures"] == 1
        assert stats["degraded_to"] == "serial"
        assert stats["executor"] == "serial"
        assert stats["retries"] >= 2
        resilient.shutdown()
        assert not _orphan_workers()

    def test_degrade_after_allows_same_rung_restarts(self, batch_case):
        """degrade_after=2: the first pool failure re-runs the batch on
        a fresh process pool instead of downshifting."""
        hw, table, inputs, reference = batch_case
        plan = FaultPlan(kill_worker=[(0, 0)] * 2)
        inner = ProcessBackend(workers=2, fault_plan=plan, max_retries=1,
                               backoff_base_s=0.0)
        resilient = ResilientBackend(inner, degrade_after=2)
        _assert_reports_equal(reference,
                              resilient.evaluate(hw, table, *inputs))
        assert resilient.degraded_to is None
        assert resilient.pool_failures == 1
        assert resilient.inner.name == "process"
        resilient.shutdown()
        assert not _orphan_workers()


# ----------------------------------------------------------------------
# Session integration: provenance, warnings, teardown
# ----------------------------------------------------------------------
class _WarningRecorder(SearchObserver):
    def __init__(self):
        super().__init__()
        self.warnings = []
        self.teardowns = 0

    def on_warning(self, kind, detail):
        self.warnings.append((kind, dict(detail)))

    def on_teardown(self):
        self.teardowns += 1


class TestSessionFaultTolerance:
    def test_retry_exhaustion_degrades_to_serial_and_completes(self):
        """The acceptance path: repeated kills exhaust the process rung,
        the session finishes on serial with the identical result and the
        whole story recorded in provenance + warnings."""
        reference = SearchSession(_spec(executor="serial")).run()
        plan = FaultPlan(kill_worker=[(0, 0)] * 4)
        recorder = _WarningRecorder()
        coordinator = ParallelCoordinator("process", workers=2,
                                          fault_plan=plan, max_retries=1)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            outcome = SearchSession(
                _spec(executor="process", workers=2)
            ).run(callbacks=[coordinator, recorder])
        assert _comparable(outcome) == _comparable(reference)
        execution = outcome.provenance["execution"]
        assert execution["degraded_to"] == "serial"
        assert execution["pool_failures"] == 1
        kinds = [kind for kind, _ in recorder.warnings]
        assert kinds == ["backend-degraded"]
        assert recorder.warnings[0][1]["from"] == "process"
        assert recorder.warnings[0][1]["to"] == "serial"
        assert any(issubclass(w.category, RuntimeWarning) for w in caught)
        assert recorder.teardowns == 1
        assert not _orphan_workers()

    def test_crash_free_run_reports_zero_retries(self, monkeypatch):
        # The CI fault-injection leg exports $REPRO_FAULTS globally; this
        # test is specifically about the crash-free counters staying at
        # zero.
        monkeypatch.delenv("REPRO_FAULTS", raising=False)
        coordinator = ParallelCoordinator("process", workers=2)
        outcome = SearchSession(
            _spec(executor="process", workers=2)
        ).run(callbacks=[coordinator])
        execution = outcome.provenance["execution"]
        assert execution["retries"] == 0
        assert execution["respawns"] == 0
        assert execution["timeouts"] == 0
        assert execution["degraded_to"] is None
        assert execution["sharded_batches"] > 0
        assert not _orphan_workers()

    def test_on_teardown_fires_once_when_retries_exhaust(self):
        """degrade=False + a budget-exhausting plan: the session dies
        with the typed error, but on_teardown still fires exactly once
        and no workers are orphaned."""
        plan = FaultPlan(kill_worker=[(0, 0)] * 4)
        recorder = _WarningRecorder()
        coordinator = ParallelCoordinator("process", workers=2,
                                          fault_plan=plan, max_retries=1,
                                          degrade=False)
        with pytest.raises(WorkerCrashError):
            SearchSession(
                _spec(executor="process", workers=2)
            ).run(callbacks=[coordinator, recorder])
        assert recorder.teardowns == 1
        assert coordinator.alive_workers == 0
        assert not _orphan_workers()

    def test_keep_alive_pool_rebuilds_after_respawn(self):
        """A keep-alive pool that lost (and replaced) a worker keeps
        serving sessions with the full complement alive."""
        plan = FaultPlan(kill_worker=[(0, 0)])
        with ParallelCoordinator("process", workers=2, keep_alive=True,
                                 fault_plan=plan) as pool:
            first = SearchSession(_spec()).run(callbacks=[pool])
            assert pool.alive_workers == 2
            second = SearchSession(_spec()).run(callbacks=[pool])
            assert first.best_cost == second.best_cost
            assert pool.execution_stats()["respawns"] == 1
        assert pool.alive_workers == 0
        assert not _orphan_workers()


# ----------------------------------------------------------------------
# Checkpoints: atomic writes and resume
# ----------------------------------------------------------------------
class TestCheckpointing:
    def test_checkpoint_write_is_atomic(self, tmp_path):
        path = tmp_path / "best.json"
        spec = _spec(executor="serial")
        SearchSession(spec).run(callbacks=[CheckpointHook(path)])
        assert path.exists()
        assert not (tmp_path / "best.json.tmp").exists()
        document = json.loads(path.read_text())
        assert {"step", "best_cost", "best_assignments",
                "spec"} <= set(document)
        assert document["spec"] == spec.to_dict()

    def test_resume_replays_to_identical_result(self, tmp_path):
        """Kill a run early; resume() from its checkpoint lands on the
        bit-identical final result of the uninterrupted run."""
        from repro.search import EarlyStopping

        spec = _spec(executor="serial", seed=9)
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


# ----------------------------------------------------------------------
# Serialization hardening (ROADMAP 5)
# ----------------------------------------------------------------------
class TestSerializationHardening:
    def test_search_spec_serialization_is_a_fixed_point(self):
        spec = _spec(executor="process", workers=2, task_timeout_s=1.5,
                     envs=4)
        once = spec.to_json()
        again = SearchSpec.from_json(once)
        assert again == spec
        assert again.to_json() == once
        assert hash(again) == hash(spec)

    def test_session_result_round_trips_with_execution_provenance(self):
        plan = FaultPlan(kill_worker=[(0, 0)])
        coordinator = ParallelCoordinator("process", workers=2,
                                          fault_plan=plan, degrade=False)
        outcome = SearchSession(
            _spec(executor="process", workers=2)
        ).run(callbacks=[coordinator])
        assert outcome.provenance["execution"]["respawns"] == 1
        document = outcome.to_json()
        restored = repro.SessionResult.from_json(document)
        assert restored.to_json() == document
        assert restored.provenance["execution"] \
            == outcome.provenance["execution"]
        assert restored.spec == outcome.spec
        assert not _orphan_workers()

    def test_checkpoint_document_round_trips(self, tmp_path):
        path = tmp_path / "best.json"
        SearchSession(_spec(executor="serial")).run(
            callbacks=[CheckpointHook(path)])
        document = json.loads(path.read_text())
        assert json.loads(json.dumps(document)) == document
        assert SearchSpec.from_dict(document["spec"]) \
            == _spec(executor="serial")

    def test_documents_written_by_1_8_load_and_resume(self, tmp_path):
        """1.8 wrote ``"nodes": null, "autotune": null`` into every
        spec; results and checkpoints carrying them still load and
        resume, and a non-null value names the replacement."""
        path = tmp_path / "best.json"
        outcome = SearchSession(_spec(executor="serial")).run(
            callbacks=[CheckpointHook(path)])
        legacy = outcome.to_dict()
        legacy["spec"].update(nodes=None, autotune=None)
        restored = repro.SessionResult.from_json(json.dumps(legacy))
        assert restored.spec == outcome.spec
        checkpoint = json.loads(path.read_text())
        checkpoint["spec"].update(nodes=None, autotune=None)
        path.write_text(json.dumps(checkpoint))
        assert _comparable(CheckpointHook.resume(path)) \
            == _comparable(outcome)
        for field, value in (("nodes", 4), ("autotune", True)):
            stale = dict(legacy, spec=dict(legacy["spec"], **{field: value}))
            with pytest.raises(ValueError, match='executor="process"'):
                repro.SessionResult.from_dict(stale)

    def test_documents_written_by_2_x_load_and_resume(self, tmp_path):
        """Every 2.x spec carries ``"kernel"``.  Its exact settings ran
        the batched engine's numbers, so results and checkpoints carrying
        them still load and resume bit-identically; float32 results
        cannot be reproduced, so ``"fused32"`` is refused."""
        path = tmp_path / "best.json"
        outcome = SearchSession(_spec(executor="serial")).run(
            callbacks=[CheckpointHook(path)])
        legacy = outcome.to_dict()
        legacy["spec"]["kernel"] = None
        legacy["provenance"]["kernel"] = "batched"
        restored = repro.SessionResult.from_json(json.dumps(legacy))
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
            repro.SessionResult.from_dict(stale)

    def test_fault_plan_survives_env_round_trip(self, monkeypatch):
        plan = FaultPlan(kill_worker=[(0, 1)], delay_s=[(2, 0, 0.1)],
                         seed=None)
        monkeypatch.setenv("REPRO_FAULTS", plan.to_json())
        assert FaultPlan.from_env() == plan
        backend = ProcessBackend(workers=2)
        assert backend.fault_plan == plan
        backend.shutdown()


# ----------------------------------------------------------------------
# Resource hygiene: shm leaks and queue sentinels
# ----------------------------------------------------------------------
class TestResourceHygiene:
    def test_allocate_failure_does_not_strand_segment(self, monkeypatch):
        """An exception between segment creation and BatchBlock return
        (here: a dtype the no-cast copy rejects) must unlink the
        segment, not leak it until interpreter exit."""
        from multiprocessing import shared_memory

        from repro.parallel.shm import BatchBlock

        created = []
        original = shared_memory.SharedMemory

        class Recorder(original):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                if kwargs.get("create"):
                    created.append(self.name)

        monkeypatch.setattr(shared_memory, "SharedMemory", Recorder)
        bad = np.zeros(8, dtype=np.float64)  # int64 expected: copy fails
        good = np.zeros(8, dtype=np.int64)
        with pytest.raises(TypeError):
            BatchBlock.allocate(bad, good, good, good)
        assert len(created) == 1
        with pytest.raises(FileNotFoundError):
            original(name=created[0])

    def test_shutdown_after_terminated_worker_leaves_no_sentinels(self,
                                                                  batch_case):
        """Shutting down a pool whose worker was killed (and whose
        queues carry undrained messages) must not hang or leak."""
        hw, table, inputs, reference = batch_case
        plan = FaultPlan(kill_worker=[(0, 0)])
        backend = ProcessBackend(workers=2, fault_plan=plan,
                                 backoff_base_s=0.01)
        _assert_reports_equal(reference,
                              backend.evaluate(hw, table, *inputs))
        backend.shutdown()
        assert backend.alive_workers == 0
        assert not _orphan_workers()
        # Counters survive shutdown for provenance.
        assert backend.respawns == 1

    def test_keep_alive_worker_tables_are_capped(self):
        """One keep-alive pool serving 20 distinct tables: each worker
        holds at most WORKER_TABLE_CAP of them, every batch matches
        serial, and an evicted table is re-shipped when needed again."""
        from repro.costmodel.batched import table_token
        from repro.parallel.backend import WORKER_TABLE_CAP

        hw = HardwareConfig()
        layers = get_model("mobilenet_v2")
        tables = [LayerTable.build(layers[i:i + 3]) for i in range(20)]
        rng = np.random.default_rng(1)
        inputs = (rng.integers(0, 3, 64), rng.integers(0, 3, 64),
                  rng.integers(8, 128, 64), rng.integers(64, 4096, 64))
        serial = make_backend("serial")
        # An explicit empty plan: a respawn would swap out the recorded
        # queues, so $REPRO_FAULTS must not inject kills here.
        with ProcessBackend(workers=2, fault_plan=FaultPlan()) as backend:
            backend._ensure_started()
            # Record what each worker is told to load and drop.
            sent = [[] for _ in backend._task_queues]
            for log, task_queue in zip(sent, backend._task_queues):
                def record(message, _put=task_queue.put, _log=log):
                    if message is not None and message[0] != "eval":
                        _log.append(message[:2])
                    _put(message)
                task_queue.put = record
            for table in tables + tables[:1]:
                _assert_reports_equal(serial.evaluate(hw, table, *inputs),
                                      backend.evaluate(hw, table, *inputs))
            for worker_id, log in enumerate(sent):
                held = set()
                for kind, table_id in log:
                    if kind == "load":
                        held.add(table_id)
                    else:
                        held.remove(table_id)
                    assert len(held) <= WORKER_TABLE_CAP
                assert held == set(backend._shipped[worker_id])
                assert log.count(("load", table_token(tables[0]))) == 2
            assert backend.respawns == 0
        assert not _orphan_workers()

    def test_mid_batch_exception_releases_segment(self, batch_case):
        """The evaluate context manager guarantees close+unlink even
        when supervision raises mid-batch (retry exhaustion)."""
        from multiprocessing import shared_memory

        hw, table, inputs, _ = batch_case
        created = []
        original = shared_memory.SharedMemory

        class Recorder(original):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                if kwargs.get("create"):
                    created.append(self.name)

        plan = FaultPlan(kill_worker=[(0, 0)] * 2)
        backend = ProcessBackend(workers=2, fault_plan=plan,
                                 max_retries=0)
        import unittest.mock

        with unittest.mock.patch.object(shared_memory, "SharedMemory",
                                        Recorder):
            with pytest.raises(WorkerCrashError):
                backend.evaluate(hw, table, *inputs)
        assert created
        for name in created:
            with pytest.raises(FileNotFoundError):
                original(name=name)
        assert not _orphan_workers()
