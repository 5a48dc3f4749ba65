"""Outside-in span tracer: wraps public functions of ``repro`` from here.

The program itself carries no instrumentation, so the traced run patches
the layer boundaries it wants to time -- class attributes in place, and
module-level functions at *every* module that bound them by name
(``from x import f`` copies the reference, so patching only the defining
module would miss those callers).

Spans nest per thread: each thread keeps its own stack, so the service
workload's scheduler, handler and client threads never attribute time
to one another.  A span's *self* time is its duration minus the
durations of the spans it directly contains.

Only functions called at most ~1e5 times per run are wrapped; the
wrapper costs about a microsecond per call, which would swamp a scalar
hot path such as ``CostModel.evaluate_layer``.  Its counts come from the
program's own counters instead (see ``layers.py``).
"""

from __future__ import annotations

import importlib
import inspect
import sys
import threading
import time
from typing import Callable, Dict, List, Optional, Tuple

#: Counter hook run after a traced call:
#: ``hook(tracer, args, kwargs, result, token)``, where ``token`` is what
#: the optional ``pre(args, kwargs)`` returned before the call.
Hook = Callable[["Tracer", tuple, dict, object, object], None]
Pre = Callable[[tuple, dict], object]


class Tracer:
    """Collects per-name call counts, self time and extra counters.

    ``patch`` installs wrappers and ``restore`` removes every one of
    them; spans are only recorded while :attr:`enabled` is true, so the
    same patched program can run untimed (the correctness gate re-scores
    through wrapped functions and must not pollute the figures).
    """

    def __init__(self) -> None:
        self.enabled = False
        self._local = threading.local()
        self._lock = threading.Lock()
        self._per_thread: List[Dict[str, List[int]]] = []
        self._counters: Dict[str, float] = {}
        self._patches: List[Tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    # Recording
    def _thread_state(self):
        state = getattr(self._local, "state", None)
        if state is None:
            stats: Dict[str, List[int]] = {}
            state = ([], stats)
            self._local.state = state
            with self._lock:
                self._per_thread.append(stats)
        return state

    def wrap(self, name: str, function, hook: Optional[Hook] = None,
             pre: Optional[Pre] = None):
        """A wrapper timing ``function`` as span ``name``."""
        clock = time.perf_counter_ns
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.enabled:
                return function(*args, **kwargs)
            stack, stats = tracer._thread_state()
            token = pre(args, kwargs) if pre is not None else None
            stack.append(0)
            start = clock()
            try:
                result = function(*args, **kwargs)
            finally:
                elapsed = clock() - start
                children = stack.pop()
                if stack:
                    stack[-1] += elapsed
                entry = stats.get(name)
                if entry is None:
                    entry = stats[name] = [0, 0]
                entry[0] += 1
                entry[1] += elapsed - children
            if hook is not None:
                hook(tracer, args, kwargs, result, token)
            return result

        traced.__wrapped__ = function
        traced.__name__ = getattr(function, "__name__", name)
        traced.__qualname__ = getattr(function, "__qualname__", name)
        traced.__doc__ = getattr(function, "__doc__", None)
        return traced

    def count(self, name: str, amount: float = 1) -> None:
        """Add ``amount`` to counter ``name`` (thread-safe)."""
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + amount

    # ------------------------------------------------------------------
    # Patching
    def patch_method(self, name: str, module: str, qualname: str,
                     hook: Optional[Hook] = None,
                     pre: Optional[Pre] = None) -> None:
        """Wrap ``Class.method`` (plain, class- or static method) where
        the class itself defines it."""
        class_name, attribute = qualname.split(".")
        owner = getattr(importlib.import_module(module), class_name)
        if attribute not in vars(owner):
            raise AttributeError(f"{qualname} is not defined on {module}."
                                 f"{class_name} itself")
        original = inspect.getattr_static(owner, attribute)
        if isinstance(original, (classmethod, staticmethod)):
            replacement = type(original)(
                self.wrap(name, original.__func__, hook, pre))
        else:
            replacement = self.wrap(name, original, hook, pre)
        setattr(owner, attribute, replacement)
        self._patches.append((owner, attribute, original))

    def patch_function(self, name: str, module: str, attribute: str,
                       hook: Optional[Hook] = None,
                       pre: Optional[Pre] = None) -> List[str]:
        """Wrap a module-level function at its definition and at every
        loaded ``repro`` module that bound it by name; returns the names
        of the patched modules."""
        original = getattr(importlib.import_module(module), attribute)
        replacement = self.wrap(name, original, hook, pre)
        patched = []
        for module_name, loaded in list(sys.modules.items()):
            if not (module_name == "repro"
                    or module_name.startswith("repro.")):
                continue
            if getattr(loaded, attribute, None) is original:
                setattr(loaded, attribute, replacement)
                self._patches.append((loaded, attribute, original))
                patched.append(module_name)
        return patched

    def restore(self) -> None:
        """Undo every patch, newest first."""
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    # ------------------------------------------------------------------
    # Results
    def spans(self) -> Dict[str, Tuple[int, float]]:
        """``name -> (calls, self seconds)`` merged over all threads."""
        merged: Dict[str, List[int]] = {}
        with self._lock:
            for stats in self._per_thread:
                for name, (calls, self_ns) in list(stats.items()):
                    entry = merged.setdefault(name, [0, 0])
                    entry[0] += calls
                    entry[1] += self_ns
        return {name: (calls, self_ns / 1e9)
                for name, (calls, self_ns) in merged.items()}

    def counters(self) -> Dict[str, float]:
        with self._lock:
            return dict(self._counters)
