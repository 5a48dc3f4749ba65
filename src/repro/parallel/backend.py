"""Pluggable execution backends for batched population evaluation.

A backend answers one call -- :meth:`ExecutionBackend.evaluate` -- with
exactly the :class:`~repro.costmodel.report.BatchCostReport` the in-process
kernel would have produced.  Because
:func:`~repro.costmodel.batched.evaluate_batch_kernel` is elementwise over
the batch axis, a backend may split the batch at any boundaries, evaluate
the shards in worker processes, and write the shard outputs back at
their offsets: the gathered report is bit-identical to a single serial
call, which is the invariant the parity suite in
``tests/test_parallel_parity.py`` locks down.

Two backends ship:

* :class:`SerialBackend` -- the in-process kernel (the do-nothing
  reference implementation the process backend must match bit for bit).
* :class:`ProcessBackend` -- shards across persistent worker processes
  with zero-copy array handoff via :mod:`repro.parallel.shm`.  Workers
  are spawned once, reused for every batch of a session, and shut down
  deterministically (``shutdown``, context-manager exit, or finalizer).
  The backend *supervises* its pool: a worker that dies or hangs
  mid-batch is respawned, its cached tables re-shipped, and only the
  lost shards re-dispatched -- bounded by a retry budget with
  exponential backoff -- so the recovered batch is bit-identical to a
  crash-free run (the kernel is pure and shard-invariant).  A
  :class:`~repro.parallel.faults.FaultPlan` (``$REPRO_FAULTS``) scripts
  worker kills, injected exceptions and delays, so every recovery path
  is exercised by ordinary test runs.

:class:`ResilientBackend` wraps the process backend in the degradation
ladder: when the pool fails outright (retry budget exhausted -- an
:class:`~repro.parallel.errors.ExecutionError`), it downshifts
process -> serial via :func:`make_backend`, re-runs the failed batch in
process, and records ``degraded_to`` -- the session completes instead
of dying.

Pick one by name with :func:`make_backend`.
"""

from __future__ import annotations

import os
import time
import weakref
from collections import OrderedDict
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.costmodel.batched import (
    LayerTable,
    evaluate_batch_kernel,
    table_token,
)
from repro.costmodel.constants import HardwareConfig
from repro.costmodel.report import BatchCostReport
from repro.parallel.errors import (
    ExecutionError,
    FaultInjected,
    TaskTimeoutError,
    WorkerCrashError,
)
from repro.parallel.faults import FaultPlan
from repro.parallel.shm import BatchBlock, mute_resource_tracker

__all__ = [
    "DEFAULT_DISPATCH_MIN_BATCH",
    "DEFAULT_MAX_RETRIES",
    "DEGRADATION_LADDER",
    "EXECUTORS",
    "ExecutionBackend",
    "ProcessBackend",
    "ResilientBackend",
    "SerialBackend",
    "default_dispatch_min_batch",
    "default_max_retries",
    "default_task_timeout",
    "default_workers",
    "make_backend",
    "shard_bounds",
]

#: Names accepted by :func:`make_backend` and ``SearchSpec.executor``.
EXECUTORS: Tuple[str, ...] = ("serial", "process")

#: Per-batch recovery budget: how many crash/timeout/fault recoveries a
#: single ``evaluate`` call may spend before raising (override with
#: ``$REPRO_MAX_RETRIES`` or the ``max_retries`` argument).
DEFAULT_MAX_RETRIES = 3

#: The downshift order :class:`ResilientBackend` walks after a pool
#: failure.  ``serial`` has no entry: it cannot fail for infrastructure
#: reasons, so an error there propagates.
DEGRADATION_LADDER: Dict[str, str] = {"process": "serial"}

#: Default adaptive-dispatch threshold: batches smaller than this many
#: elements *per worker* run in-process instead of being sharded -- the
#: per-batch IPC cost (queue hop + shared-memory map) beats the kernel
#: itself below roughly this size (see the ``break_even`` section of
#: BENCH_parallel.json, written by ``bench_parallel_scaling.py``).
DEFAULT_DISPATCH_MIN_BATCH = 256

#: Layer tables one process worker holds at most.  The coordinator
#: tracks each worker's shipped tables in least-recently-used order and
#: sends a ``drop`` for the oldest before shipping one more, so a
#: keep-alive pool (``repro serve --executor process``) stays bounded no
#: matter how many searches it serves; a dropped table that is needed
#: again is simply re-shipped.
WORKER_TABLE_CAP = 8


def default_workers() -> int:
    """Worker count when none is requested: ``$REPRO_WORKERS`` if set,
    else every available core (capped at 8 -- the batch sizes this
    repository produces stop scaling long before that)."""
    env = os.environ.get("REPRO_WORKERS")
    if env is not None:
        workers = int(env)
        if workers < 1:
            raise ValueError(f"REPRO_WORKERS must be >= 1, got {env!r}")
        return workers
    return max(1, min(8, os.cpu_count() or 1))


def default_dispatch_min_batch() -> int:
    """Adaptive-dispatch threshold when none is requested:
    ``$REPRO_DISPATCH_MIN`` if set (0 disables the fallback), else
    :data:`DEFAULT_DISPATCH_MIN_BATCH`."""
    env = os.environ.get("REPRO_DISPATCH_MIN")
    if env is None:
        return DEFAULT_DISPATCH_MIN_BATCH
    try:
        threshold = int(env)
    except ValueError:
        raise ValueError(
            f"REPRO_DISPATCH_MIN must be an integer >= 0 (unset: "
            f"{DEFAULT_DISPATCH_MIN_BATCH}), got {env!r}") from None
    if threshold < 0:
        raise ValueError(f"REPRO_DISPATCH_MIN must be >= 0, got {env!r}")
    return threshold


def default_max_retries() -> int:
    """Per-batch recovery budget when none is requested:
    ``$REPRO_MAX_RETRIES`` if set (0 disables recovery: the first
    failure raises), else :data:`DEFAULT_MAX_RETRIES`."""
    env = os.environ.get("REPRO_MAX_RETRIES")
    if env is not None:
        retries = int(env)
        if retries < 0:
            raise ValueError(f"REPRO_MAX_RETRIES must be >= 0, got {env!r}")
        return retries
    return DEFAULT_MAX_RETRIES


def default_task_timeout() -> float:
    """Per-batch deadline in seconds when none is requested:
    ``$REPRO_TASK_TIMEOUT`` if set, else 0 (no deadline)."""
    env = os.environ.get("REPRO_TASK_TIMEOUT")
    if env is not None:
        timeout = float(env)
        if timeout < 0:
            raise ValueError(
                f"REPRO_TASK_TIMEOUT must be >= 0, got {env!r}")
        return timeout
    return 0.0


def shard_bounds(batch: int, shards: int) -> List[Tuple[int, int]]:
    """Split ``[0, batch)`` into at most ``shards`` contiguous ranges.

    Remainder elements go to the leading shards, so shard sizes differ by
    at most one; empty shards are never produced.  The boundaries affect
    only *where* elements are computed, never their values.
    """
    shards = max(1, min(shards, batch))
    base, remainder = divmod(batch, shards)
    bounds: List[Tuple[int, int]] = []
    lo = 0
    for index in range(shards):
        hi = lo + base + (1 if index < remainder else 0)
        bounds.append((lo, hi))
        lo = hi
    return bounds


class ExecutionBackend:
    """Interface: evaluate one validated batch, own any worker state.

    Args:
        workers: Degree of sharding.
        min_batch_per_worker: Adaptive-dispatch threshold -- batches with
            fewer than ``min_batch_per_worker * workers`` elements run
            through the in-process kernel instead of the workers (the
            IPC cost exceeds the kernel below the break-even; see
            :func:`default_dispatch_min_batch`).  Directly constructed
            backends default to ``0`` (always shard, the legacy
            behavior); the spec-level surfaces (``SearchSpec`` sessions,
            ``compare_methods``, the CLI) resolve the adaptive default.
            Sharding never changes results, so neither does the
            fallback.
    """

    name = "base"

    def __init__(self, workers: int = 1,
                 min_batch_per_worker: int = 0) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if min_batch_per_worker < 0:
            raise ValueError("min_batch_per_worker must be >= 0")
        self.workers = workers
        self.min_batch_per_worker = min_batch_per_worker
        #: Dispatch counters: how many batches ran in-process vs sharded
        #: (observability for the adaptive fallback; never affects
        #: results).
        self.inline_batches = 0
        self.sharded_batches = 0

    def _below_break_even(self, batch: int) -> bool:
        """Whether ``batch`` is too small to be worth sharding."""
        return batch < self.min_batch_per_worker * self.workers

    def evaluate(self, hw: HardwareConfig, table: LayerTable,
                 layer_idx: np.ndarray, style_idx: np.ndarray,
                 pes: np.ndarray, l1_bytes: np.ndarray) -> BatchCostReport:
        raise NotImplementedError

    def shutdown(self) -> None:
        """Release workers; the backend restarts lazily if reused."""

    @property
    def alive_workers(self) -> int:
        """Live worker processes (0 for in-process backends)."""
        return 0

    def __enter__(self) -> "ExecutionBackend":
        return self

    def __exit__(self, *_exc) -> None:
        self.shutdown()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(workers={self.workers})"


class SerialBackend(ExecutionBackend):
    """The in-process kernel; the reference the other backends must match."""

    name = "serial"

    def evaluate(self, hw, table, layer_idx, style_idx, pes,
                 l1_bytes) -> BatchCostReport:
        return evaluate_batch_kernel(hw, table, layer_idx, style_idx, pes,
                                     l1_bytes)


# ----------------------------------------------------------------------
# Process backend
# ----------------------------------------------------------------------
def _worker_main(worker_id: int, task_queue, result_queue,
                 faults: Optional[dict] = None) -> None:
    """Worker loop: evaluate shards of shared-memory batches until told
    to exit.  Tables and hardware constants arrive once per search
    (``load`` messages) and are cached by id until a ``drop`` message
    evicts them (the coordinator keeps at most
    :data:`WORKER_TABLE_CAP` per worker); per-batch messages carry only
    the segment descriptor, so the arrays themselves never cross the
    queue.

    ``faults`` is this worker's slice of a
    :class:`~repro.parallel.faults.FaultPlan` (``{"kill": [batch...],
    "raise": [batch...], "delay": [[batch, seconds]...]}``), shipped at
    spawn time; respawned workers receive a pruned copy so a consumed
    fault never re-fires.  Kills exit before the segment is touched,
    raises fire once each and are reported with the dedicated
    ``"fault"`` status (retryable), and delays sleep before evaluating.
    """
    mute_resource_tracker()
    kill_at = list(faults["kill"]) if faults else []
    raise_at = list(faults["raise"]) if faults else []
    delay_at: Dict[int, float] = {}
    if faults:
        for batch_idx, seconds in faults["delay"]:
            delay_at[batch_idx] = delay_at.get(batch_idx, 0.0) + seconds
    tables: Dict[int, Tuple[HardwareConfig, LayerTable]] = {}
    while True:
        message = task_queue.get()
        if message is None:
            break
        kind = message[0]
        if kind == "load":
            _, table_id, hw, layers = message
            tables[table_id] = (hw, LayerTable.build(layers))
            continue
        if kind == "drop":
            tables.pop(message[1], None)
            continue
        _, task_id, segment_name, batch, lo, hi, table_id = message
        if task_id in kill_at:
            os._exit(1)
        delay = delay_at.pop(task_id, 0.0)
        if delay:
            time.sleep(delay)
        status, detail = "ok", None
        try:
            if task_id in raise_at:
                raise_at.remove(task_id)
                raise FaultInjected(
                    f"injected fault in worker {worker_id} at batch "
                    f"{task_id}")
            hw, table = tables[table_id]
            block = BatchBlock.attach(segment_name, batch)
            try:
                report = evaluate_batch_kernel(
                    hw, table,
                    block.inputs["layer_idx"][lo:hi],
                    block.inputs["style_idx"][lo:hi],
                    block.inputs["pes"][lo:hi],
                    block.inputs["l1_bytes"][lo:hi])
                block.write_report(report, lo, hi)
            finally:
                block.close()
        except FaultInjected as error:
            status, detail = "fault", repr(error)
        except BaseException as error:  # noqa: BLE001 - forwarded verbatim
            import traceback

            status, detail = "error", f"{error!r}\n{traceback.format_exc()}"
        result_queue.put((task_id, worker_id, lo, hi, status, detail))


class ProcessBackend(ExecutionBackend):
    """Shard batches across persistent, *supervised* worker processes.

    Workers are spawned lazily on the first batch (once per backend
    lifetime), reused for every subsequent batch -- a whole session's
    generations -- and shut down via :meth:`shutdown` / context exit; a
    ``weakref.finalize`` guard reaps them if the owner forgets.  Each
    batch travels through one shared-memory segment (see
    :mod:`repro.parallel.shm`); each worker gets a dedicated task queue
    so shard routing -- and therefore table shipping -- is deterministic.

    Supervision: a worker that dies mid-batch (OOM kill, segfault,
    injected fault) is detected by the result-wait loop, respawned with
    a fresh task queue, its cached tables re-shipped, and only its lost
    shards re-dispatched -- after an exponential backoff, bounded per
    batch by ``max_retries``.  A batch that misses ``task_timeout_s``
    has its hung workers terminated and recovered the same way.  The
    batched kernel is pure and shard-invariant, so a recovered batch is
    bit-identical to a crash-free one.  Exhausting the budget raises
    :class:`~repro.parallel.errors.WorkerCrashError` /
    :class:`~repro.parallel.errors.TaskTimeoutError` (both
    :class:`~repro.parallel.errors.ExecutionError`, the degradation
    ladder's cue) with the pool shut down for a clean restart.

    Args:
        workers: Worker process count.
        start_method: ``multiprocessing`` start method; default
            ``$REPRO_MP_START`` or ``fork`` where available (spawn works
            too, it just pays a per-worker interpreter start).
        min_batch_per_worker: Adaptive-dispatch threshold (see
            :class:`ExecutionBackend`); small batches run in-process and
            do not spawn the pool.
        max_retries: Per-batch recovery budget (``None``:
            ``$REPRO_MAX_RETRIES`` or :data:`DEFAULT_MAX_RETRIES`).
        backoff_base_s: First-retry backoff; attempt ``n`` sleeps
            ``backoff_base_s * 2**(n-1)``.
        task_timeout_s: Per-batch deadline in seconds; 0 disables
            (``None``: ``$REPRO_TASK_TIMEOUT`` or disabled).
        fault_plan: Deterministic fault injection script (``None``:
            ``$REPRO_FAULTS`` or no faults).

    Attributes:
        retries / respawns / timeouts: Recovery counters (never reset by
            :meth:`shutdown`), surfaced into ``SessionResult.provenance``
            by :class:`~repro.parallel.ParallelCoordinator`.  All stay 0
            in a crash-free run -- supervision costs nothing until a
            failure happens.
    """

    name = "process"

    #: Liveness/deadline poll interval while waiting on shard acks --
    #: also the worst-case crash-detection latency.
    POLL_S = 0.25

    def __init__(self, workers: int = 1,
                 start_method: Optional[str] = None,
                 min_batch_per_worker: int = 0,
                 max_retries: Optional[int] = None,
                 backoff_base_s: float = 0.05,
                 task_timeout_s: Optional[float] = None,
                 fault_plan: Optional[FaultPlan] = None) -> None:
        super().__init__(workers, min_batch_per_worker)
        import multiprocessing

        if start_method is None:
            start_method = os.environ.get("REPRO_MP_START")
        if start_method is None:
            start_method = ("fork" if "fork"
                            in multiprocessing.get_all_start_methods()
                            else "spawn")
        self._context = multiprocessing.get_context(start_method)
        self.max_retries = (default_max_retries() if max_retries is None
                            else max_retries)
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if backoff_base_s < 0:
            raise ValueError("backoff_base_s must be >= 0")
        self.backoff_base_s = backoff_base_s
        if task_timeout_s is None:
            task_timeout_s = default_task_timeout()
        if task_timeout_s < 0:
            raise ValueError("task_timeout_s must be >= 0 (0 disables)")
        #: Per-batch deadline; ``None`` means no deadline.
        self.task_timeout_s = float(task_timeout_s) or None
        if fault_plan is None:
            fault_plan = FaultPlan.from_env()
        self.fault_plan = fault_plan
        # Mutable per-worker remainders of the plan's consumable fault
        # kinds: one occurrence is pruned per observed death / hang so a
        # respawned worker never replays a consumed fault.
        self._kills: Dict[int, List[int]] = {}
        self._delays: Dict[int, List[Tuple[int, float]]] = {}
        if fault_plan is not None:
            for worker_id in range(workers):
                self._kills[worker_id] = fault_plan.kills_for(worker_id)
                self._delays[worker_id] = fault_plan.delays_for(worker_id)
        self.retries = 0
        self.respawns = 0
        self.timeouts = 0
        self._processes: List = []
        self._task_queues: List = []
        self._result_queue = None
        # Per worker: the table ids it holds, least recently used first.
        self._shipped: List[OrderedDict] = []
        self._generations: List[int] = []
        self._next_task = 0
        self._finalizer: Optional[weakref.finalize] = None

    # ------------------------------------------------------------------
    @property
    def alive_workers(self) -> int:
        return sum(1 for process in self._processes if process.is_alive())

    def _fault_wire(self, worker_id: int) -> Optional[dict]:
        """This worker's (remaining) slice of the fault plan, in the
        wire format ``_worker_main`` consumes."""
        if self.fault_plan is None:
            return None
        return {
            "kill": list(self._kills.get(worker_id, ())),
            "raise": self.fault_plan.raises_for(worker_id),
            "delay": [[batch, seconds] for batch, seconds
                      in self._delays.get(worker_id, ())],
        }

    def _spawn(self, worker_id: int) -> None:
        generation = self._generations[worker_id]
        suffix = f"-r{generation}" if generation else ""
        process = self._context.Process(
            target=_worker_main,
            args=(worker_id, self._task_queues[worker_id],
                  self._result_queue, self._fault_wire(worker_id)),
            daemon=True,
            name=f"repro-worker-{worker_id}{suffix}")
        process.start()
        self._processes[worker_id] = process

    def _ensure_started(self) -> None:
        if self._processes:
            return
        self._result_queue = self._context.Queue()
        self._task_queues = [self._context.Queue()
                             for _ in range(self.workers)]
        self._processes = [None] * self.workers
        self._shipped = [OrderedDict() for _ in range(self.workers)]
        self._generations = [0] * self.workers
        for worker_id in range(self.workers):
            self._spawn(worker_id)
        # The finalizer holds the *lists*, which respawns mutate in
        # place, so it always reaps the current pool members.
        self._finalizer = weakref.finalize(
            self, _shutdown_workers, self._processes, self._task_queues)

    def _respawn(self, worker_id: int, task_id: int) -> None:
        """Replace one dead or hung worker: terminate what is left of
        it, drop its task queue (undelivered messages and sentinels die
        with it), prune the faults it just consumed, and start a fresh
        incarnation that will be re-shipped tables on demand."""
        process = self._processes[worker_id]
        if process.is_alive():
            process.terminate()
        process.join(timeout=5)
        old_queue = self._task_queues[worker_id]
        try:
            old_queue.cancel_join_thread()
            old_queue.close()
        except (OSError, ValueError):  # pragma: no cover - already closed
            pass
        # Prune one occurrence of the faults that explain this event so
        # the replacement does not replay them (entries are multisets:
        # duplicates deliberately re-fire).
        kills = self._kills.get(worker_id)
        if kills and task_id in kills:
            kills.remove(task_id)
        delays = self._delays.get(worker_id)
        if delays:
            for entry in delays:
                if entry[0] == task_id:
                    delays.remove(entry)
                    break
        self._task_queues[worker_id] = self._context.Queue()
        self._shipped[worker_id] = OrderedDict()
        self._generations[worker_id] += 1
        self._spawn(worker_id)
        self.respawns += 1

    def _ship_table(self, worker_id: int, hw: HardwareConfig,
                    table: LayerTable) -> int:
        """Make ``table`` available in a worker; returns its wire id.

        The wire id is the table's never-recycled generation token, so a
        collected table can never alias a later one worker-side.  A
        worker holding :data:`WORKER_TABLE_CAP` tables is first told to
        drop its least recently used one.
        """
        table_id = table_token(table)
        shipped = self._shipped[worker_id]
        if table_id in shipped:
            shipped.move_to_end(table_id)
            return table_id
        task_queue = self._task_queues[worker_id]
        if len(shipped) >= WORKER_TABLE_CAP:
            oldest, _ = shipped.popitem(last=False)
            task_queue.put(("drop", oldest))
        task_queue.put(("load", table_id, hw, table.layers))
        shipped[table_id] = None
        return table_id

    def _dispatch(self, worker_id: int, task_id: int, block: BatchBlock,
                  lo: int, hi: int, hw, table) -> None:
        table_id = self._ship_table(worker_id, hw, table)
        self._task_queues[worker_id].put(
            ("eval", task_id, block.name, block.batch, lo, hi, table_id))

    def evaluate(self, hw, table, layer_idx, style_idx, pes,
                 l1_bytes) -> BatchCostReport:
        batch = layer_idx.size
        if self._below_break_even(batch):
            # Too small to amortize the queue hop + segment map; the
            # in-process kernel is bit-identical, so only latency
            # changes.  An idle pool stays warm for the next big batch.
            self.inline_batches += 1
            return evaluate_batch_kernel(hw, table, layer_idx, style_idx,
                                         pes, l1_bytes)
        self.sharded_batches += 1
        self._ensure_started()
        task_id = self._next_task
        self._next_task += 1
        with BatchBlock.allocate(layer_idx, style_idx, pes,
                                 l1_bytes) as block:
            self._run_task(task_id, block, shard_bounds(batch, self.workers),
                           hw, table)
            return block.gather_report()

    # ------------------------------------------------------------------
    def _run_task(self, task_id: int, block: BatchBlock, bounds, hw,
                  table) -> None:
        """Dispatch one batch's shards and supervise them to completion.

        Shard ``i`` goes to worker ``i % workers``.  The loop waits for
        shard acks while polling worker liveness and the batch deadline;
        lost shards (dead or hung worker, injected fault) are
        re-dispatched after recovery, bounded by ``max_retries``
        recoveries per batch.  Stale acks -- from a
        worker terminated after it finished, or an earlier attempt of a
        recovered shard -- are recognized by (task, shard) bookkeeping
        and ignored; duplicate writes are idempotent because every
        attempt computes identical bytes.
        """
        import queue as queue_module

        pending: Dict[Tuple[int, int], int] = {}
        for shard, (lo, hi) in enumerate(bounds):
            worker_id = shard % self.workers
            self._dispatch(worker_id, task_id, block, lo, hi, hw, table)
            pending[(lo, hi)] = worker_id
        attempts = 0
        failures: List[Tuple[int, str]] = []
        timeout = self.task_timeout_s
        deadline = (None if timeout is None
                    else time.monotonic() + timeout)
        while pending:
            wait = self.POLL_S
            if deadline is not None:
                wait = min(wait, max(0.0, deadline - time.monotonic()))
            message = None
            try:
                message = self._result_queue.get(timeout=wait)
            except queue_module.Empty:
                pass
            if message is not None:
                done_id, worker_id, lo, hi, status, detail = message
                if done_id != task_id or (lo, hi) not in pending:
                    continue  # stale ack from a recovered attempt
                if status == "ok":
                    del pending[(lo, hi)]
                elif status == "fault":
                    # Injected and explicitly retryable; the worker is
                    # alive and will not re-fire, so re-dispatch the
                    # same shard right back to it.
                    attempts = self._account_recovery(
                        task_id, attempts, "fault",
                        f"injected fault on worker {worker_id}")
                    self._dispatch(worker_id, task_id, block, lo, hi, hw,
                                   table)
                else:
                    # A genuine kernel error is deterministic: burning
                    # the retry budget (or a downshift) on it would only
                    # delay the same failure, so surface it -- but only
                    # after the remaining shards drain, keeping the pool
                    # consistent for the next batch.
                    failures.append((worker_id, detail))
                    del pending[(lo, hi)]
                continue
            # Nothing arrived inside the poll window: look for dead
            # workers among the pending shards, then check the deadline.
            dead = sorted({wid for wid in pending.values()
                           if not self._processes[wid].is_alive()})
            if dead:
                names = [self._processes[wid].name for wid in dead]
                attempts = self._account_recovery(
                    task_id, attempts, "crash",
                    f"worker(s) died mid-batch: {', '.join(names)}",
                    worker_names=names)
                self._recover(task_id, block, pending, dead, hw, table)
                if deadline is not None:
                    deadline = time.monotonic() + timeout
                continue
            if deadline is not None and time.monotonic() >= deadline:
                hung = sorted(set(pending.values()))
                self.timeouts += 1
                attempts = self._account_recovery(
                    task_id, attempts, "timeout",
                    f"batch {task_id} missed its {timeout}s deadline "
                    f"({len(pending)} shard(s) outstanding)")
                self._recover(task_id, block, pending, hung, hw, table)
                deadline = time.monotonic() + timeout
        if failures:
            worker_id, detail = failures[0]
            raise RuntimeError(
                f"parallel worker {worker_id} failed:\n{detail}")

    def _account_recovery(self, task_id: int, attempts: int, kind: str,
                          reason: str, worker_names=()) -> int:
        """Charge one recovery against the batch budget; raise the
        matching :class:`~repro.parallel.errors.ExecutionError` when it
        is spent (with the pool reset so a retrying caller starts
        clean), else back off exponentially and return the new count."""
        attempts += 1
        self.retries += 1
        if attempts > self.max_retries:
            self.shutdown()
            message = (f"parallel batch {task_id}: {reason}; retry "
                       f"budget ({self.max_retries}) exhausted")
            if kind == "timeout":
                raise TaskTimeoutError(message,
                                       timeout_s=self.task_timeout_s or 0.0)
            if kind == "fault":
                raise FaultInjected(message)
            raise WorkerCrashError(message, worker_names=worker_names)
        if self.backoff_base_s:
            time.sleep(self.backoff_base_s * 2 ** (attempts - 1))
        return attempts

    def _recover(self, task_id: int, block: BatchBlock, pending,
                 worker_ids, hw, table) -> None:
        """Respawn the given workers and re-dispatch their lost shards
        (only those -- completed shards stay completed)."""
        for worker_id in worker_ids:
            self._respawn(worker_id, task_id)
        for (lo, hi), worker_id in list(pending.items()):
            if worker_id in worker_ids:
                self._dispatch(worker_id, task_id, block, lo, hi, hw,
                               table)

    def shutdown(self) -> None:
        if not self._processes:
            return
        if self._finalizer is not None:
            self._finalizer.detach()
            self._finalizer = None
        _shutdown_workers(self._processes, self._task_queues)
        if self._result_queue is not None:
            import queue as queue_module

            # Drain stale acks (from terminated or timed-out attempts)
            # so the feeder thread has nothing left to flush, then drop
            # the queue without joining it.
            try:
                while True:
                    self._result_queue.get_nowait()
            except (queue_module.Empty, OSError, ValueError):
                pass
            self._result_queue.cancel_join_thread()
            self._result_queue.close()
        self._processes = []
        self._task_queues = []
        self._result_queue = None
        self._shipped = []
        self._generations = []


def _shutdown_workers(processes, task_queues) -> None:
    """Ask workers to exit, then make sure they did (module-level so a
    ``weakref.finalize`` can run it after the backend is gone)."""
    for task_queue in task_queues:
        try:
            task_queue.put(None)
        except (OSError, ValueError):  # pragma: no cover - closed queue
            pass
    for process in processes:
        process.join(timeout=5)
    for process in processes:
        if process.is_alive():  # pragma: no cover - stuck worker
            process.terminate()
            process.join(timeout=5)
    for task_queue in task_queues:
        # A terminate()d worker leaves its exit sentinel (and any
        # undelivered messages) in the queue; cancel_join_thread stops
        # the feeder from blocking interpreter exit on that undrained
        # buffer, then close drops it.
        try:
            task_queue.cancel_join_thread()
            task_queue.close()
        except (OSError, ValueError):  # pragma: no cover - already closed
            pass


# ----------------------------------------------------------------------
# Degradation ladder
# ----------------------------------------------------------------------
class ResilientBackend(ExecutionBackend):
    """Graceful-degradation wrapper around the process backend.

    Delegates every batch to the wrapped backend; when that backend
    fails outright -- its per-batch retry budget exhausted, surfacing an
    :class:`~repro.parallel.errors.ExecutionError` -- the wrapper walks
    :data:`DEGRADATION_LADDER` (process -> serial) via
    :func:`make_backend`, re-runs the failed batch on the new rung
    (bit-identical: the kernel is pure), and keeps going.  The session
    completes; ``degraded_to`` records where it landed.  Genuine kernel
    errors (plain ``RuntimeError``) pass through untouched.

    :class:`~repro.parallel.ParallelCoordinator` wraps the backends it
    builds in one of these (``degrade=True``) and surfaces
    :meth:`stats` into ``SessionResult.provenance["execution"]``.

    Args:
        inner: The backend to supervise.
        degrade_after: Pool failures tolerated at a rung before
            downshifting (intermediate failures re-run the batch on the
            same backend, which restarts lazily).
        on_degrade: ``callback(error, from_name, to_name)`` fired on
            every downshift -- the coordinator bridges it to the
            observer protocol as a structured warning.
    """

    name = "resilient"

    def __init__(self, inner: ExecutionBackend, degrade_after: int = 1,
                 on_degrade=None) -> None:
        super().__init__(inner.workers, inner.min_batch_per_worker)
        if degrade_after < 1:
            raise ValueError("degrade_after must be >= 1")
        self.inner = inner
        self.degrade_after = degrade_after
        self.on_degrade = on_degrade
        self.pool_failures = 0
        self.degraded_to: Optional[str] = None
        self._failures_at_rung = 0
        # Counters of retired rungs, folded into stats() alongside the
        # live inner backend's.  The serial rung has no recovery
        # counters (getattr default 0), so the stats schema is uniform.
        self._absorbed = {"retries": 0, "respawns": 0, "timeouts": 0,
                          "inline_batches": 0, "sharded_batches": 0}

    # ------------------------------------------------------------------
    @property
    def alive_workers(self) -> int:
        return self.inner.alive_workers

    def stats(self) -> Dict[str, object]:
        """Aggregated fault-tolerance counters across every rung used."""
        data = {key: value + getattr(self.inner, key, 0)
                for key, value in self._absorbed.items()}
        data["pool_failures"] = self.pool_failures
        data["degraded_to"] = self.degraded_to
        data["executor"] = self.inner.name
        return data

    def evaluate(self, hw, table, layer_idx, style_idx, pes,
                 l1_bytes) -> BatchCostReport:
        while True:
            try:
                return self.inner.evaluate(hw, table, layer_idx,
                                           style_idx, pes, l1_bytes)
            except ExecutionError as error:
                self.pool_failures += 1
                self._failures_at_rung += 1
                next_name = DEGRADATION_LADDER.get(self.inner.name)
                if next_name is None:
                    raise
                if self._failures_at_rung < self.degrade_after:
                    # Budget left at this rung: the failed backend shut
                    # its pool down, so the re-run respawns it fresh.
                    continue
                previous = self.inner.name
                for key in self._absorbed:
                    self._absorbed[key] += getattr(self.inner, key, 0)
                self.inner.shutdown()
                self.inner = make_backend(next_name, self.workers)
                self.degraded_to = next_name
                self._failures_at_rung = 0
                if self.on_degrade is not None:
                    self.on_degrade(error, previous, next_name)

    def shutdown(self) -> None:
        self.inner.shutdown()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"ResilientBackend({self.inner!r}, "
                f"degraded_to={self.degraded_to!r})")


def make_backend(executor: str, workers: Optional[int] = None,
                 min_batch_per_worker: int = 0,
                 task_timeout_s: Optional[float] = None,
                 max_retries: Optional[int] = None,
                 fault_plan: Optional[FaultPlan] = None) -> ExecutionBackend:
    """Build a backend by name ("serial" | "process").

    ``min_batch_per_worker`` enables adaptive dispatch on the process
    backend (0, the default, always shards -- see
    :class:`ExecutionBackend`); the serial backend ignores it, as it
    does the fault-tolerance knobs.
    """
    if executor not in EXECUTORS:
        raise ValueError(
            f"unknown executor {executor!r}; available: "
            f"{', '.join(EXECUTORS)}")
    workers = default_workers() if workers is None else workers
    if executor == "serial":
        return SerialBackend(workers=workers)
    return ProcessBackend(workers=workers,
                          min_batch_per_worker=min_batch_per_worker,
                          task_timeout_s=task_timeout_s,
                          max_retries=max_retries, fault_plan=fault_plan)
