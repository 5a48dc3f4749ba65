"""JSON (de)serialization for search results.

A downstream user wants to run a long search once and keep the outcome:
the winning per-layer assignment, the convergence trace, and enough
metadata to reproduce the run.  These helpers turn a
:class:`SearchResult` into a plain-JSON dict (no pickling) and back;
:meth:`repro.search.session.SessionResult.save` writes one, with its
spec and provenance, to a file (for two-stage runs the flattened result
carries the stage figures in ``extra``).
"""

from __future__ import annotations

import json
import os
import uuid

from repro.rl.common import SearchResult


def write_json_atomic(path, document) -> None:
    """Write ``document`` as JSON to ``path``; a reader sees the old file
    or the whole new one, never a torn write.

    The document goes to a temp file named uniquely in ``path``'s
    directory, is ``fsync``'d, and ``os.replace`` moves it into place.
    A fixed temp name would let two writers that share no lock (two
    result stores on one root) replace each other's temp file.  The temp
    file is created with mode 0o666 less the umask, as ``open`` does.
    """
    path = os.fspath(path)
    tmp_path = f"{path}.{uuid.uuid4().hex}.tmp"
    fd = os.open(tmp_path, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w") as handle:
            json.dump(document, handle, indent=2)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_path, path)
    except BaseException:
        os.unlink(tmp_path)
        raise


def _encode_history(history):
    return [None if value == float("inf") else value for value in history]


def _decode_history(history):
    return [float("inf") if value is None else value for value in history]


def search_result_to_dict(result: SearchResult) -> dict:
    """A JSON-safe dict capturing everything a table needs."""
    return {
        "algorithm": result.algorithm,
        "best_cost": result.best_cost,
        "best_assignments": (
            [list(a) for a in result.best_assignments]
            if result.best_assignments is not None else None),
        "best_genome": result.best_genome,
        "history": _encode_history(result.history),
        "evaluations": result.evaluations,
        "cache_hits": result.cache_hits,
        "episodes": result.episodes,
        "wall_time_s": result.wall_time_s,
        "memory_bytes": result.memory_bytes,
        "extra": dict(result.extra),
    }


def search_result_from_dict(data: dict) -> SearchResult:
    """Inverse of :func:`search_result_to_dict`.

    Raises:
        KeyError: if a required field is missing.
    """
    result = SearchResult(algorithm=data["algorithm"])
    result.best_cost = data["best_cost"]
    assignments = data["best_assignments"]
    result.best_assignments = (
        tuple(tuple(a) for a in assignments)
        if assignments is not None else None)
    result.best_genome = data["best_genome"]
    result.history = _decode_history(data["history"])
    result.evaluations = data["evaluations"]
    # Documents written before the batched engine lack the hit counter.
    result.cache_hits = data.get("cache_hits", 0)
    result.episodes = data["episodes"]
    result.wall_time_s = data["wall_time_s"]
    result.memory_bytes = data["memory_bytes"]
    # Documents written before the session API lack the extra payload.
    result.extra = dict(data.get("extra", {}))
    return result
