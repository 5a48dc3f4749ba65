"""Deterministic fault injection for the parallel execution stack.

A :class:`FaultPlan` is a seeded, JSON-serializable script of
infrastructure failures -- worker kills, injected kernel exceptions,
artificial delays -- keyed by ``(batch_idx, worker_id)``, where
``batch_idx`` is the backend's 0-based counter of *sharded* batches
(``ProcessBackend._next_task``; inline small-batch evaluations do not
advance it).  Because the script, not luck, decides when a worker dies,
every recovery path in :class:`~repro.parallel.backend.ProcessBackend`
is exercised by ordinary pytest cases, and a fault-injected run is
exactly reproducible from its plan.

Fault kinds:

* ``kill_worker`` -- the worker ``os._exit``\\ s before touching the
  batch the moment it receives the matching shard.  Entries are a
  *multiset*: the coordinator prunes one occurrence per observed death
  before respawning, so ``[[3, 0], [3, 0]]`` kills worker 0's
  replacement too (the way to exhaust a retry budget on purpose).
* ``raise_in_kernel`` -- the worker raises
  :class:`~repro.parallel.errors.FaultInjected` instead of running the
  kernel, exactly once per entry (the worker remembers what it fired),
  so the coordinator's re-dispatch succeeds.
* ``delay_s`` -- ``[batch_idx, worker_id, seconds]``: the worker sleeps
  before evaluating, the lever for deadline/timeout tests.  Pruned like
  kills when a hung worker is terminated.

Plans reach workers through ``$REPRO_FAULTS`` (see :func:`from_env`:
an inline JSON document, a ``seed:N`` generator shorthand, or a file
path) or explicitly via ``ProcessBackend(fault_plan=...)`` /
``ParallelCoordinator(fault_plan=...)``.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

__all__ = ["FaultPlan"]

#: Horizon (in sharded batches) the seeded generator scatters faults
#: over; searches shorter than this still see the early entries.
DEFAULT_HORIZON = 12


def _pairs(entries, name) -> List[Tuple[int, int]]:
    out = []
    for entry in entries:
        if len(entry) != 2:
            raise ValueError(
                f"{name} entries must be [batch_idx, worker_id] pairs, "
                f"got {entry!r}")
        batch_idx, worker_id = int(entry[0]), int(entry[1])
        if batch_idx < 0 or worker_id < 0:
            raise ValueError(
                f"{name} entries must be non-negative, got {entry!r}")
        out.append((batch_idx, worker_id))
    return out


@dataclass(frozen=True)
class FaultPlan:
    """A deterministic script of infrastructure faults.

    Attributes:
        kill_worker: ``(batch_idx, worker_id)`` multiset -- worker
            exits hard on receipt of that batch's shard.
        raise_in_kernel: ``(batch_idx, worker_id)`` pairs -- worker
            raises :class:`~repro.parallel.errors.FaultInjected` once.
        delay_s: ``(batch_idx, worker_id, seconds)`` -- worker sleeps
            before evaluating.
        seed: The seed :meth:`seeded` generated this plan from (``None``
            for hand-written plans); carried for provenance only.
    """

    kill_worker: Tuple[Tuple[int, int], ...] = ()
    raise_in_kernel: Tuple[Tuple[int, int], ...] = ()
    delay_s: Tuple[Tuple[int, int, float], ...] = ()
    seed: Optional[int] = None

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "kill_worker",
            tuple(_pairs(self.kill_worker, "kill_worker")))
        object.__setattr__(
            self, "raise_in_kernel",
            tuple(_pairs(self.raise_in_kernel, "raise_in_kernel")))
        delays = []
        for entry in self.delay_s:
            if len(entry) != 3:
                raise ValueError(
                    "delay_s entries must be [batch_idx, worker_id, "
                    f"seconds] triples, got {entry!r}")
            batch_idx, worker_id, seconds = (int(entry[0]), int(entry[1]),
                                             float(entry[2]))
            if batch_idx < 0 or worker_id < 0 or seconds < 0:
                raise ValueError(
                    f"delay_s entries must be non-negative, got {entry!r}")
            delays.append((batch_idx, worker_id, seconds))
        object.__setattr__(self, "delay_s", tuple(delays))

    # ------------------------------------------------------------------
    @property
    def empty(self) -> bool:
        return not (self.kill_worker or self.raise_in_kernel
                    or self.delay_s)

    def kills_for(self, worker_id: int) -> List[int]:
        """Batch indices (with multiplicity) at which ``worker_id``
        should die."""
        return [batch for batch, worker in self.kill_worker
                if worker == worker_id]

    def raises_for(self, worker_id: int) -> List[int]:
        return [batch for batch, worker in self.raise_in_kernel
                if worker == worker_id]

    def delays_for(self, worker_id: int) -> List[Tuple[int, float]]:
        return [(batch, seconds)
                for batch, worker, seconds in self.delay_s
                if worker == worker_id]

    # ------------------------------------------------------------------
    @classmethod
    def seeded(cls, seed: int, workers: int = 2,
               horizon: int = DEFAULT_HORIZON, kills: int = 2,
               raises: int = 1, delays: int = 0,
               delay_seconds: float = 0.05) -> "FaultPlan":
        """A reproducible random plan: ``kills`` worker deaths,
        ``raises`` injected exceptions, and ``delays`` sleeps scattered
        over the first ``horizon`` sharded batches of ``workers``
        workers.  Same arguments, same plan -- the CI fault-injection
        legs run one of these (``$REPRO_FAULTS=seed:N``)."""
        rng = random.Random(seed)

        def scatter(count):
            return tuple(sorted(
                (rng.randrange(horizon), rng.randrange(workers))
                for _ in range(count)))

        kill = scatter(kills)
        raise_ = scatter(raises)
        delay = tuple((batch, worker, delay_seconds)
                      for batch, worker in scatter(delays))
        return cls(kill_worker=kill, raise_in_kernel=raise_,
                   delay_s=delay, seed=seed)

    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """A JSON-safe dict fully reconstructing this plan."""
        return {
            "kill_worker": [list(entry) for entry in self.kill_worker],
            "raise_in_kernel": [list(entry)
                                for entry in self.raise_in_kernel],
            "delay_s": [list(entry) for entry in self.delay_s],
            "seed": self.seed,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "FaultPlan":
        known = {"kill_worker", "raise_in_kernel", "delay_s", "seed"}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown FaultPlan fields: {sorted(unknown)}")
        return cls(
            kill_worker=tuple(tuple(e) for e in data.get("kill_worker", ())),
            raise_in_kernel=tuple(
                tuple(e) for e in data.get("raise_in_kernel", ())),
            delay_s=tuple(tuple(e) for e in data.get("delay_s", ())),
            seed=data.get("seed"),
        )

    def to_json(self, indent: Optional[int] = None) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, document: str) -> "FaultPlan":
        return cls.from_dict(json.loads(document))

    # ------------------------------------------------------------------
    @classmethod
    def parse(cls, value: str) -> "FaultPlan":
        """Parse a ``$REPRO_FAULTS`` value: an inline JSON document
        (``{...}``), the shorthand ``seed:N`` for :meth:`seeded`, or a
        path to a JSON file."""
        value = value.strip()
        if value.startswith("{"):
            return cls.from_json(value)
        if value.startswith("seed:"):
            return cls.seeded(int(value[len("seed:"):]))
        with open(value) as handle:
            return cls.from_json(handle.read())

    @classmethod
    def from_env(cls) -> Optional["FaultPlan"]:
        """The plan ``$REPRO_FAULTS`` names, or ``None`` when unset/empty
        (the production default: no faults, zero overhead)."""
        value = os.environ.get("REPRO_FAULTS")
        if not value:
            return None
        return cls.parse(value)
