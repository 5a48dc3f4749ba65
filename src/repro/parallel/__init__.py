"""Process-parallel population evaluation with shared-memory batches.

The batched cost-model engine made ``evaluate_population`` the unit of
work; this package shards that unit across worker processes:

* :func:`~repro.parallel.backend.make_backend` builds a ``serial`` or
  ``process`` :class:`~repro.parallel.backend.ExecutionBackend`; the
  process backend hands batches to persistent workers via zero-copy
  shared memory (:mod:`repro.parallel.shm`) and *supervises* them --
  dead or hung workers are respawned and their lost shards
  re-dispatched, bounded by a retry budget (:mod:`repro.parallel.errors`
  is the failure taxonomy).
* :class:`~repro.parallel.backend.ResilientBackend` adds the
  process -> serial degradation ladder on top of the process backend.
* :class:`~repro.parallel.faults.FaultPlan` scripts deterministic
  worker kills / injected exceptions / delays (``$REPRO_FAULTS``), so
  every recovery path is tested, not hoped for.
* :class:`~repro.parallel.coordinator.ParallelCoordinator` is the
  session observer that owns worker lifecycle and surfaces the
  fault-tolerance counters into ``SessionResult.provenance``; sessions
  build one automatically from ``SearchSpec.executor`` /
  ``SearchSpec.workers``.

Both backends are bit-identical to the serial kernel -- crash-free,
recovered, or degraded -- the determinism suite in
``tests/test_parallel_parity.py`` holds that line.
"""

from repro.parallel.backend import (
    DEFAULT_DISPATCH_MIN_BATCH,
    DEFAULT_MAX_RETRIES,
    DEGRADATION_LADDER,
    EXECUTORS,
    ExecutionBackend,
    ProcessBackend,
    ResilientBackend,
    SerialBackend,
    default_dispatch_min_batch,
    default_max_retries,
    default_task_timeout,
    default_workers,
    make_backend,
    shard_bounds,
)
from repro.parallel.coordinator import ParallelCoordinator, PoolLease
from repro.parallel.errors import (
    ExecutionError,
    FaultInjected,
    TaskTimeoutError,
    WorkerCrashError,
)
from repro.parallel.faults import FaultPlan
from repro.parallel.shm import BatchBlock

__all__ = [
    "DEFAULT_DISPATCH_MIN_BATCH",
    "DEFAULT_MAX_RETRIES",
    "DEGRADATION_LADDER",
    "EXECUTORS",
    "BatchBlock",
    "ExecutionBackend",
    "ExecutionError",
    "FaultInjected",
    "FaultPlan",
    "ParallelCoordinator",
    "PoolLease",
    "ProcessBackend",
    "ResilientBackend",
    "SerialBackend",
    "TaskTimeoutError",
    "WorkerCrashError",
    "default_dispatch_min_batch",
    "default_max_retries",
    "default_task_timeout",
    "default_workers",
    "make_backend",
    "shard_bounds",
]
