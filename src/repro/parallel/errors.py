"""Structured error taxonomy for the parallel execution stack.

Every *infrastructure* failure the execution backends can recover from
-- a worker process dying mid-batch, a batch blowing its deadline, an
injected fault -- derives from :class:`ExecutionError`, so callers
(most importantly the degradation ladder in
:class:`~repro.parallel.backend.ResilientBackend`) can catch the whole
family with one ``except`` and know the failed batch is *retryable*: the
batched kernel is pure, so re-running the same shards on a different
backend produces bit-identical results.

Genuine *kernel* errors (a bug, invalid inputs that slipped past
validation) deliberately stay plain ``RuntimeError``: they are
deterministic, would fail identically on any backend, and must surface
to the caller instead of burning the retry budget.

``ExecutionError`` subclasses ``RuntimeError`` so pre-existing callers
catching ``RuntimeError`` around backend calls keep working unchanged.
"""

from __future__ import annotations

__all__ = [
    "ExecutionError",
    "FaultInjected",
    "TaskTimeoutError",
    "WorkerCrashError",
]


class ExecutionError(RuntimeError):
    """A retryable infrastructure failure in a parallel backend.

    Raised only after the backend's own recovery (respawn + re-dispatch,
    bounded by the retry budget) has been exhausted; catching it and
    re-running the batch elsewhere is always safe because the batched
    kernel is pure and shard-invariant.
    """


class WorkerCrashError(ExecutionError):
    """A worker process died mid-batch and the retry budget ran out.

    Attributes:
        worker_names: Names of the worker processes that died during the
            final attempt (useful for post-mortems; respawned
            incarnations carry a ``-rN`` suffix).
    """

    def __init__(self, message: str, worker_names=()):
        super().__init__(message)
        self.worker_names = tuple(worker_names)


class TaskTimeoutError(ExecutionError):
    """A batch missed its deadline on every attempt.

    Attributes:
        timeout_s: The per-attempt deadline that was exceeded.
    """

    def __init__(self, message: str, timeout_s: float = 0.0):
        super().__init__(message)
        self.timeout_s = timeout_s


class FaultInjected(ExecutionError):
    """An error deliberately injected by a :class:`~repro.parallel
    .faults.FaultPlan` (the ``raise_in_kernel`` fault kind).

    Inside a worker it is forwarded with the dedicated ``"fault"``
    status so the coordinator retries it (exercising the recovery path)
    instead of treating it as a deterministic kernel bug; workers fire
    each entry exactly once, so the retry always succeeds.
    """
