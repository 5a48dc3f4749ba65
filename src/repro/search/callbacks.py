"""Observer protocol for :class:`~repro.search.session.SearchSession`.

A session drives one search method and reports its life cycle to a list of
observers::

    on_start(session)                     once, before the method runs
    on_step(step, cost, best_cost)        per budget unit consumed
    on_improvement(step, best_cost, best_assignments)
                                          whenever the feasible best improves
    on_finish(result)                     once, with the SessionResult
    on_teardown()                         once, on *every* exit path

``on_step`` fires per *episode* for episodic-RL methods and per
*design-point evaluation* for genome-space methods; for two-stage methods
it covers the observable global stage.  Returning ``True`` from
``on_step`` (or calling :meth:`SearchObserver.request_stop`) asks the
session to stop gracefully at the next step boundary: the best-so-far
solution is kept and the result is flagged ``stopped_early``.
"""

from __future__ import annotations

import sys
from typing import Optional, Tuple


class StopSearch(Exception):
    """Raised internally to unwind a method when an observer stops it."""


class SearchObserver:
    """Base observer: every hook is a no-op; subclass what you need."""

    def __init__(self) -> None:
        self._stop = False

    def request_stop(self) -> None:
        """Ask the session to stop at the next step boundary."""
        self._stop = True

    @property
    def stop_requested(self) -> bool:
        return self._stop

    def _begin_run(self) -> None:
        """Clear run-scoped state; called by the session before
        ``on_start`` so one observer instance can serve many runs.
        Subclasses with per-run counters extend this."""
        self._stop = False

    # ------------------------------------------------------------------
    def on_start(self, session) -> None:
        """Called once before the search method starts consuming budget."""

    def on_step(self, step: int, cost: Optional[float],
                best_cost: Optional[float]) -> Optional[bool]:
        """Called per budget unit; return ``True`` to request a stop.

        Args:
            step: 1-based count of budget units consumed so far.
            cost: This step's cost (``None`` when infeasible).
            best_cost: Best feasible cost so far (``None`` if none yet).
        """

    def on_improvement(self, step: int, best_cost: float,
                       best_assignments: Optional[Tuple]) -> None:
        """Called when a new best feasible design point is found."""

    def on_finish(self, result) -> None:
        """Called once with the finished
        :class:`~repro.search.session.SessionResult`."""

    def on_teardown(self) -> None:
        """Called once when the run ends -- *including* early stops and
        method exceptions (the session fires it from a ``finally``).
        Observers owning external resources (files, sockets) release
        them here; ``on_finish`` only runs on success."""


class ProgressReporter(SearchObserver):
    """Print a one-line progress report every ``every`` steps."""

    def __init__(self, every: int = 50, stream=None) -> None:
        super().__init__()
        if every < 1:
            raise ValueError("every must be >= 1")
        self.every = every
        self.stream = stream if stream is not None else sys.stderr

    def on_start(self, session) -> None:
        from repro.objectives import objective_label

        spec = session.spec
        print(f"[{spec.method}] searching {spec.model} "
              f"({objective_label(spec.objective)}, "
              f"{spec.constraint_kind}:{spec.platform}, "
              f"budget {spec.budget})", file=self.stream)

    def on_step(self, step, cost, best_cost) -> None:
        if step % self.every == 0:
            shown = "inf" if best_cost is None else f"{best_cost:.4E}"
            print(f"[step {step}] best {shown}", file=self.stream)

    def on_finish(self, result) -> None:
        print(f"[done] {result.summary()}", file=self.stream)


class EarlyStopping(SearchObserver):
    """Stop when progress stalls or a target cost is reached.

    Args:
        patience: Stop after this many steps without a new feasible best
            (``None`` disables the stall criterion).
        target_cost: Stop as soon as the best feasible cost is <= this.
        min_steps: Never stop before this many steps.
    """

    def __init__(self, patience: Optional[int] = None,
                 target_cost: Optional[float] = None,
                 min_steps: int = 0) -> None:
        super().__init__()
        if patience is not None and patience < 1:
            raise ValueError("patience must be >= 1")
        self.patience = patience
        self.target_cost = target_cost
        self.min_steps = min_steps
        self._last_improvement = 0
        self.stopped_at: Optional[int] = None

    def _begin_run(self) -> None:
        super()._begin_run()
        self._last_improvement = 0
        self.stopped_at = None

    def on_improvement(self, step, best_cost, best_assignments) -> None:
        self._last_improvement = step

    def on_step(self, step, cost, best_cost) -> bool:
        if step < self.min_steps:
            return False
        stalled = (self.patience is not None
                   and step - self._last_improvement >= self.patience)
        reached = (self.target_cost is not None and best_cost is not None
                   and best_cost <= self.target_cost)
        if stalled or reached:
            self.stopped_at = step
            return True
        return False


class CheckpointHook(SearchObserver):
    """Persist the best-so-far solution to JSON on every improvement.

    Writes ``{step, best_cost, best_assignments, spec}`` to ``path``
    with a write-to-temp + ``fsync`` + ``os.replace`` protocol, so a
    reader (or a resume after a crash) only ever sees a complete
    checkpoint -- never a torn half-write, even if the process dies
    mid-dump.  The spec is captured from the session at ``on_start``,
    which is what makes the file self-contained: :meth:`resume` rebuilds
    the session from it and replays the search to the bit-identical
    final result (every method is deterministic in its spec'd seed).

    Args:
        path: Destination file.
        every_improvements: Write only every Nth improvement.
    """

    def __init__(self, path, every_improvements: int = 1) -> None:
        super().__init__()
        if every_improvements < 1:
            raise ValueError("every_improvements must be >= 1")
        self.path = path
        self.every_improvements = every_improvements
        self._improvements = 0
        self._spec_dict: Optional[dict] = None

    def _begin_run(self) -> None:
        super()._begin_run()
        self._improvements = 0

    def on_start(self, session) -> None:
        spec = getattr(session, "spec", None)
        self._spec_dict = spec.to_dict() if spec is not None else None

    def on_improvement(self, step, best_cost, best_assignments) -> None:
        self._improvements += 1
        if self._improvements % self.every_improvements:
            return
        document = {
            "step": step,
            "best_cost": best_cost,
            "best_assignments": (
                [list(a) for a in best_assignments]
                if best_assignments is not None else None),
            "spec": self._spec_dict,
        }
        self._write_atomic(document)

    def _write_atomic(self, document: dict) -> None:
        import json
        import os

        path = os.fspath(self.path)
        tmp_path = f"{path}.tmp"
        with open(tmp_path, "w") as handle:
            json.dump(document, handle, indent=2)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_path, path)

    # ------------------------------------------------------------------
    @staticmethod
    def resume(path, callbacks=()):
        """Resume a crashed search from its checkpoint file.

        Loads the frozen spec out of ``path`` and re-runs the session
        from scratch.  Because every registered method is a
        deterministic function of its spec (seed included), the replay's
        final :class:`~repro.search.session.SessionResult` is
        bit-identical to what the killed run would have produced -- the
        checkpoint's ``best_cost`` is a progress floor the replay is
        guaranteed to reach or beat.  Raises ``ValueError`` for
        checkpoints written without a spec (pre-1.5 files or sessions
        without one).
        """
        import json

        with open(path) as handle:
            document = json.load(handle)
        spec_dict = document.get("spec")
        if spec_dict is None:
            raise ValueError(
                f"checkpoint {path!r} carries no spec; it cannot seed a "
                f"resume (re-run the original SearchSpec instead)")
        from repro.search.session import SearchSession
        from repro.search.spec import SearchSpec

        spec = SearchSpec.from_dict(spec_dict)
        return SearchSession(spec).run(callbacks=list(callbacks))
