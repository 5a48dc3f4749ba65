"""Session-level ownership of a parallel execution backend.

:class:`ParallelCoordinator` is the :class:`~repro.search.callbacks
.SearchObserver` that plugs the execution backends into the unified
session API (the seam the ROADMAP planned for).  Its whole job is
lifecycle:

* ``on_start`` -- build the backend (workers spawn lazily on the first
  batch), wrap it in the degradation ladder
  (:class:`~repro.parallel.backend.ResilientBackend`, unless
  ``degrade=False``), and install it on the session's cost model, so
  every population-level consumer of the run -- GA generations, the
  baseline optimizers, batched REINFORCE epochs -- shards through it
  without knowing it exists.
* ``on_teardown`` -- snapshot the fault-tolerance counters, uninstall
  the backend, and shut the workers down.  The session fires this hook
  on *every* exit path (budget exhausted, observer early stop, method
  exception), which is what makes "no orphan worker processes" a
  guarantee rather than a habit.
* ``on_finish`` -- surface the snapshot (``retries`` / ``respawns`` /
  ``timeouts`` / ``pool_failures`` / ``degraded_to``) into
  ``SessionResult.provenance["execution"]``, so a run's resilience story
  travels with its result file.

When the ladder downshifts mid-session the coordinator emits a
``RuntimeWarning`` and a structured ``on_warning("backend-degraded",
...)`` through the session's observer fan-out -- the run completes on
the lower rung instead of dying.

Sessions create one automatically when ``SearchSpec.executor`` resolves
to a parallel backend; pass your own (e.g. with ``keep_alive=True``) to
reuse one worker pool across a whole comparison grid::

    with ParallelCoordinator("process", workers=4, keep_alive=True) as pool:
        for spec in grid:
            SearchSession(spec, cost_model=shared).run(callbacks=[pool])

Concurrent sharing -- leases
----------------------------

One coordinator instance observes one run at a time (its ``on_start`` /
``on_teardown`` pair is stateful).  To multiplex *concurrent* sessions
over one pool -- the search-service pattern -- give each session its own
:meth:`lease`::

    pool = ParallelCoordinator("process", workers=4, keep_alive=True)
    # in N scheduler threads, concurrently:
    SearchSession(spec).run(callbacks=[pool.lease()])

Every lease installs the same backend, wrapped so each *batch
evaluation* serializes on the pool's lock: the worker fleet computes one
batch at a time (its task queues and counters are single-dispatcher
state) while the sessions around it interleave freely.  The batched
kernel is pure and per-batch atomic, so interleaved sessions are
bit-identical to running them back to back -- locked by
``tests/test_parallel_lifecycle.py``.
"""

from __future__ import annotations

import threading
import warnings
from typing import Dict, List, Optional

from repro.parallel.backend import (
    ExecutionBackend,
    ResilientBackend,
    make_backend,
)
from repro.parallel.faults import FaultPlan
from repro.search.callbacks import SearchObserver

__all__ = ["ParallelCoordinator", "PoolLease"]


class _SerializedBackend:
    """Facade making one shared backend safe for concurrent sessions.

    The underlying backends are single-dispatcher (``_next_task``
    counters, per-worker queues, one result queue), so concurrent
    ``evaluate`` calls must not interleave; this wrapper serializes them
    on the owning coordinator's lock.  Everything else (counters,
    ``alive_workers``, ``name``) forwards to the real backend.  Batch
    evaluations are atomic and the kernel is pure, so serialization
    changes wall-clock interleaving only, never results.
    """

    def __init__(self, inner: ExecutionBackend,
                 lock: threading.Lock) -> None:
        self.inner = inner
        self._evaluate_lock = lock

    def __getattr__(self, name):
        return getattr(self.inner, name)

    def evaluate(self, hw, table, layer_idx, style_idx, pes, l1_bytes):
        with self._evaluate_lock:
            return self.inner.evaluate(hw, table, layer_idx, style_idx,
                                       pes, l1_bytes)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"_SerializedBackend({self.inner!r})"


class PoolLease(SearchObserver):
    """One session's lease on a shared :class:`ParallelCoordinator` pool.

    A lease is a per-run observer: it installs the coordinator's
    (serialized) backend on its session's cost model at ``on_start``,
    uninstalls it at ``on_teardown``, and stamps the pool's
    fault-tolerance counters into the result's provenance at
    ``on_finish`` -- exactly what the coordinator does as a direct
    observer, minus the per-run instance state that makes the
    coordinator itself single-run.  Create one per concurrent session
    via :meth:`ParallelCoordinator.lease`.
    """

    def __init__(self, coordinator: "ParallelCoordinator") -> None:
        super().__init__()
        self.coordinator = coordinator
        self._cost_model = None

    def on_start(self, session) -> None:
        self._cost_model = session.cost_model
        self.coordinator._attach(session, session.cost_model)

    def on_teardown(self) -> None:
        if self._cost_model is not None:
            self.coordinator._detach(self._cost_model)
            self._cost_model = None

    def on_finish(self, result) -> None:
        stats = self.coordinator.execution_stats()
        if stats is not None:
            result.provenance["execution"] = dict(stats)


class ParallelCoordinator(SearchObserver):
    """Observer that owns worker lifecycle for one or many sessions.

    Args:
        executor: "serial" | "process".
        workers: Worker count (``None``: ``$REPRO_WORKERS`` or the core
            count).
        keep_alive: Keep workers running after ``on_teardown`` so the
            next run reuses them; call :meth:`close` (or use the
            coordinator as a context manager) when done.  Fault-tolerance
            counters accumulate across the reusing sessions.
        min_batch_per_worker: Adaptive-dispatch threshold forwarded to
            the backend (0, the default, always shards; sessions built
            from a :class:`~repro.search.spec.SearchSpec` pass the
            spec-resolved break-even so small batches skip the IPC).
        task_timeout_s: Per-batch deadline forwarded to the process
            backend (``None``: ``$REPRO_TASK_TIMEOUT`` or disabled; 0
            explicitly disables).
        max_retries: Per-batch recovery budget (``None``:
            ``$REPRO_MAX_RETRIES`` or the default).
        fault_plan: Deterministic fault-injection script (``None``:
            ``$REPRO_FAULTS``, or none).
        degrade: Wrap the backend in the process -> serial degradation
            ladder (on by default; turn off to let retry exhaustion
            raise instead -- what the parity tests do).
    """

    def __init__(self, executor: str = "process",
                 workers: Optional[int] = None,
                 keep_alive: bool = False,
                 min_batch_per_worker: int = 0,
                 task_timeout_s: Optional[float] = None,
                 max_retries: Optional[int] = None,
                 fault_plan: Optional[FaultPlan] = None,
                 degrade: bool = True) -> None:
        super().__init__()
        self.executor = executor
        self.workers = workers
        self.keep_alive = keep_alive
        self.min_batch_per_worker = min_batch_per_worker
        self.task_timeout_s = task_timeout_s
        self.max_retries = max_retries
        self.fault_plan = fault_plan
        self.degrade = degrade
        self.backend: Optional[ExecutionBackend] = None
        #: Counter snapshot from the most recent teardown (what
        #: ``on_finish`` writes into provenance after the pool is gone).
        self.last_stats: Optional[Dict[str, object]] = None
        self._cost_model = None
        self._session = None
        # Pool-sharing state: _lock guards build/install/close
        # bookkeeping, _evaluate_lock serializes shared-pool batches.
        self._lock = threading.RLock()
        self._evaluate_lock = threading.Lock()
        self._serialized: Optional[_SerializedBackend] = None
        self._active_sessions: List = []

    # ------------------------------------------------------------------
    def lease(self) -> PoolLease:
        """A fresh per-session observer sharing this coordinator's pool.

        Concurrent sessions must not share the coordinator *instance*
        (its on_start/on_teardown pair is per-run state); they share the
        pool through one lease each.  Batch evaluations from all lessees
        serialize on the pool lock, which keeps the single-dispatcher
        backends safe and results bit-identical to serial execution.
        """
        return PoolLease(self)

    def _ensure_backend(self) -> _SerializedBackend:
        with self._lock:
            if self.backend is None:
                inner = make_backend(
                    self.executor, self.workers, self.min_batch_per_worker,
                    task_timeout_s=self.task_timeout_s,
                    max_retries=self.max_retries,
                    fault_plan=self.fault_plan)
                if self.degrade and inner.name != "serial":
                    self.backend = ResilientBackend(
                        inner, on_degrade=self._on_degrade)
                else:
                    self.backend = inner
                self._serialized = _SerializedBackend(
                    self.backend, self._evaluate_lock)
            return self._serialized

    def _attach(self, session, cost_model) -> None:
        """Install the (serialized) backend on one session's cost model."""
        with self._lock:
            backend = self._ensure_backend()
            self._active_sessions.append(session)
            cost_model.set_executor(backend)

    def _detach(self, cost_model, session=None) -> None:
        """Uninstall from one cost model; close the pool when the last
        lease ends unless kept alive."""
        with self._lock:
            self.last_stats = self.execution_stats()
            cost_model.set_executor(None)
            for index, active in enumerate(self._active_sessions):
                if session is None or active is session:
                    del self._active_sessions[index]
                    break
            if not self.keep_alive and not self._active_sessions:
                self.close()

    # ------------------------------------------------------------------
    def on_start(self, session) -> None:
        """Install the backend on the session's shared cost model."""
        self._session = session
        self._cost_model = session.cost_model
        self._attach(session, session.cost_model)

    def _on_degrade(self, error, from_name: str, to_name: str) -> None:
        """Bridge a ladder downshift to the warning surfaces: a Python
        ``RuntimeWarning`` (always) and the structured observer hook of
        every session currently on the pool."""
        detail = {
            "from": from_name,
            "to": to_name,
            "error": type(error).__name__,
            "message": str(error),
        }
        warnings.warn(
            f"execution backend degraded {from_name} -> {to_name} "
            f"after {type(error).__name__}: {error}",
            RuntimeWarning, stacklevel=2)
        with self._lock:
            sessions = list(self._active_sessions)
        for session in sessions:
            if hasattr(session, "_notify_warning"):
                session._notify_warning("backend-degraded", detail)

    def execution_stats(self) -> Optional[Dict[str, object]]:
        """Fault-tolerance counters for the live backend (or the
        snapshot from the last teardown once the pool is gone)."""
        backend = self.backend
        if backend is None:
            return self.last_stats
        if isinstance(backend, ResilientBackend):
            return backend.stats()
        return {
            "executor": backend.name,
            "retries": getattr(backend, "retries", 0),
            "respawns": getattr(backend, "respawns", 0),
            "timeouts": getattr(backend, "timeouts", 0),
            "inline_batches": backend.inline_batches,
            "sharded_batches": backend.sharded_batches,
            "pool_failures": 0,
            "degraded_to": None,
        }

    def on_teardown(self) -> None:
        """Snapshot counters, uninstall from the cost model, and stop
        workers unless kept alive.

        Fired by the session on every exit path, including early stops
        and method exceptions.
        """
        if self._cost_model is not None:
            self._detach(self._cost_model, self._session)
            self._cost_model = None
        else:
            self.last_stats = self.execution_stats()
            if not self.keep_alive and not self._active_sessions:
                self.close()
        self._session = None

    def on_finish(self, result) -> None:
        """Record the run's fault-tolerance story in its provenance."""
        stats = self.execution_stats()
        if stats is not None:
            result.provenance["execution"] = dict(stats)

    def close(self) -> None:
        """Shut the workers down now (idempotent)."""
        with self._lock:
            if self.backend is not None:
                self.backend.shutdown()
                self.backend = None
                self._serialized = None

    @property
    def alive_workers(self) -> int:
        """Live worker processes (0 when shut down or in-process)."""
        return 0 if self.backend is None else self.backend.alive_workers

    def __enter__(self) -> "ParallelCoordinator":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()
