"""Content-addressed, on-disk store of finished search results.

The traffic pattern the service targets is dominated by *repeats*: the
same (model, method, objective, constraint, budget, seed) spec submitted
again and again.  Every registered method is a deterministic function of
its :class:`~repro.search.spec.SearchSpec`, so a finished
:class:`~repro.search.session.SessionResult` can be addressed purely by
the spec's content -- no invalidation protocol, no freshness window.

Keys are the SHA-256 of the spec's *canonical identity*: the spec dict
with

* the objective normalized to its canonical JSON-safe form (so
  ``"latency"`` and the equivalent spec dict or
  :class:`~repro.objectives.Objective` instance dedup to one entry), and
* ``envs`` resolved (``None`` and an explicit ``1`` mean the same
  scalar-stepping scenario).

The identity never held the 3.x execution knobs (``executor``,
``workers``, ``dispatch_min_batch``, ``task_timeout_s``), so removing
them from :class:`~repro.search.spec.SearchSpec` moved no key.

The cache contract (after the kg-microbe exemplar): re-running is safe --
existing results are served from the store; a ``force`` flag bypasses the
lookup to re-run (the fresh result then overwrites the entry).  Writes
are atomic (write-to-temp + ``fsync`` + ``os.replace``, the
``CheckpointHook`` idiom), so a reader never sees a torn entry; a
corrupted or truncated entry is treated as a miss and dropped.  A small
in-process LRU sits in front of the disk so hot keys skip the filesystem
entirely.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
import time
from collections import OrderedDict
from typing import Optional, Union

from repro.objectives import objective_spec
from repro.search.session import SessionResult
from repro.search.spec import SearchSpec

__all__ = [
    "ResultStore",
    "canonical_identity",
    "result_key",
    "default_cache_dir",
    "STORE_FORMAT",
]

#: Envelope format tag; bump on incompatible layout changes (old entries
#: then read as misses and are regenerated, never misparsed).
STORE_FORMAT = "repro-result-store/v1"


def default_cache_dir() -> str:
    """``$REPRO_CACHE_DIR``, else ``~/.cache/repro/results``."""
    configured = os.environ.get("REPRO_CACHE_DIR")
    if configured:
        return configured
    return os.path.join(os.path.expanduser("~"), ".cache", "repro",
                        "results")


def canonical_identity(spec: SearchSpec) -> dict:
    """The JSON-safe dict that *is* a spec's result identity.

    Two specs with equal identities produce bit-identical results; two
    specs with different identities may not.  See the module docstring
    for what gets normalized away.
    """
    identity = spec.to_dict()
    identity["objective"] = objective_spec(spec.objective)
    identity["envs"] = spec.resolved_envs()
    return identity


def result_key(spec: SearchSpec) -> str:
    """SHA-256 hex digest of the spec's canonical identity."""
    canonical = json.dumps(canonical_identity(spec), sort_keys=True,
                           separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


class ResultStore:
    """Content-addressed result cache: spec in, finished result out.

    Args:
        root: Store directory (created on first write); ``None`` resolves
            ``$REPRO_CACHE_DIR`` / the user cache dir.
        max_memory_entries: Size of the in-process LRU in front of the
            disk (0 disables it).

    Thread-safe: all public methods may be called from concurrent
    scheduler threads.  Entries live at ``<root>/<key[:2]>/<key>.json``
    as a versioned envelope ``{format, key, identity, result, stored_at,
    repro_version}``; the embedded ``result`` document round-trips
    through :meth:`SessionResult.from_dict` unchanged, which is what
    makes a cache hit bit-identical to the run that produced it.
    """

    def __init__(self, root: Optional[Union[str, os.PathLike]] = None,
                 max_memory_entries: int = 64) -> None:
        if max_memory_entries < 0:
            raise ValueError("max_memory_entries must be >= 0")
        self.root = os.fspath(root) if root is not None \
            else default_cache_dir()
        self.max_memory_entries = max_memory_entries
        self._lock = threading.Lock()
        self._memory: "OrderedDict[str, dict]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.memory_hits = 0
        self.puts = 0
        self.evictions = 0
        self.bypasses = 0
        self.corrupt_dropped = 0

    # ------------------------------------------------------------------
    def key_of(self, spec_or_key: Union[SearchSpec, str]) -> str:
        """Accept a spec or a precomputed hex key."""
        if isinstance(spec_or_key, str):
            return spec_or_key
        return result_key(spec_or_key)

    def path_for(self, spec_or_key: Union[SearchSpec, str]) -> str:
        """Where the entry for ``spec_or_key`` lives (existing or not)."""
        key = self.key_of(spec_or_key)
        return os.path.join(self.root, key[:2], f"{key}.json")

    # ------------------------------------------------------------------
    def get(self, spec_or_key: Union[SearchSpec, str],
            force: bool = False) -> Optional[SessionResult]:
        """The stored result for this identity, or ``None`` on a miss.

        ``force=True`` bypasses the lookup unconditionally (the caller
        intends to re-run; the fresh :meth:`put` then overwrites the
        entry) -- the kg-microbe "force flag to re-run" contract.
        """
        key = self.key_of(spec_or_key)
        with self._lock:
            if force:
                self.bypasses += 1
                return None
            envelope = self._memory.get(key)
            if envelope is not None:
                self._memory.move_to_end(key)
                self.hits += 1
                self.memory_hits += 1
                return SessionResult.from_dict(envelope["result"])
            envelope = self._read_envelope(key)
            if envelope is None:
                self.misses += 1
                return None
            try:
                result = SessionResult.from_dict(envelope["result"])
            except Exception:
                self._drop_corrupt(key)
                self.misses += 1
                return None
            self._remember(key, envelope)
            self.hits += 1
            return result

    def put(self, spec: SearchSpec, result: SessionResult) -> str:
        """Store ``result`` under ``spec``'s identity; returns the key.

        Overwrites any existing entry atomically (last write wins whole,
        never torn), so a ``force`` re-run refreshes the cache in place.
        """
        key = result_key(spec)
        envelope = {
            "format": STORE_FORMAT,
            "key": key,
            "identity": canonical_identity(spec),
            "result": result.to_dict(),
            "stored_at": time.strftime("%Y-%m-%dT%H:%M:%S"),
            "repro_version": _repro_version(),
        }
        path = self.path_for(key)
        with self._lock:
            os.makedirs(os.path.dirname(path), exist_ok=True)
            self._write_atomic(path, envelope)
            self._remember(key, envelope)
            self.puts += 1
        return key

    def evict(self, spec_or_key: Union[SearchSpec, str]) -> bool:
        """Drop one entry (memory and disk); True if anything existed."""
        key = self.key_of(spec_or_key)
        with self._lock:
            existed = self._memory.pop(key, None) is not None
            path = self.path_for(key)
            if os.path.exists(path):
                os.remove(path)
                existed = True
            if existed:
                self.evictions += 1
            return existed

    def clear(self) -> int:
        """Drop every entry; returns how many disk entries were removed."""
        with self._lock:
            self._memory.clear()
            removed = 0
            for path in self._entry_paths():
                os.remove(path)
                removed += 1
            self.evictions += removed
            return removed

    def stats(self) -> dict:
        """Counters plus the current disk footprint (entries, bytes)."""
        with self._lock:
            paths = self._entry_paths()
            return {
                "root": self.root,
                "entries": len(paths),
                "bytes": sum(os.path.getsize(path) for path in paths),
                "memory_entries": len(self._memory),
                "hits": self.hits,
                "memory_hits": self.memory_hits,
                "misses": self.misses,
                "puts": self.puts,
                "evictions": self.evictions,
                "bypasses": self.bypasses,
                "corrupt_dropped": self.corrupt_dropped,
            }

    # ------------------------------------------------------------------
    def _entry_paths(self) -> list:
        paths = []
        if not os.path.isdir(self.root):
            return paths
        for shard in sorted(os.listdir(self.root)):
            shard_dir = os.path.join(self.root, shard)
            if not os.path.isdir(shard_dir):
                continue
            for name in sorted(os.listdir(shard_dir)):
                if name.endswith(".json"):
                    paths.append(os.path.join(shard_dir, name))
        return paths

    def _remember(self, key: str, envelope: dict) -> None:
        if self.max_memory_entries == 0:
            return
        self._memory[key] = envelope
        self._memory.move_to_end(key)
        while len(self._memory) > self.max_memory_entries:
            self._memory.popitem(last=False)

    def _read_envelope(self, key: str) -> Optional[dict]:
        """Load and validate one disk entry; corrupt entries (torn
        writes can't happen, but truncated copies, stray files, or
        format drift can) are dropped and read as misses."""
        path = self.path_for(key)
        try:
            with open(path) as handle:
                envelope = json.load(handle)
        except FileNotFoundError:
            return None
        except (json.JSONDecodeError, OSError, UnicodeDecodeError):
            self._drop_corrupt(key)
            return None
        if (not isinstance(envelope, dict)
                or envelope.get("format") != STORE_FORMAT
                or envelope.get("key") != key
                or "result" not in envelope):
            self._drop_corrupt(key)
            return None
        return envelope

    def _drop_corrupt(self, key: str) -> None:
        self._memory.pop(key, None)
        path = self.path_for(key)
        try:
            os.remove(path)
        except OSError:  # pragma: no cover - already gone
            pass
        self.corrupt_dropped += 1

    @staticmethod
    def _write_atomic(path: str, envelope: dict) -> None:
        tmp_path = f"{path}.tmp"
        with open(tmp_path, "w") as handle:
            json.dump(envelope, handle, indent=2)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_path, path)


def _repro_version() -> str:
    import repro

    return repro.__version__
