"""Host-speed probe: rescales wall time to a fixed reference speed.

The benchmark shares its host with other tenants, and the host's speed
swings by up to 2x within seconds (co-scheduled work on sibling
hardware threads slows every instruction: CPU time grows with wall
time, so it is not preemption).  Raw wall times of two runs minutes
apart are then not comparable.

While a pass runs, a background thread wakes every ``interval`` seconds
and times a fixed chunk of interpreter-plus-NumPy work in *thread CPU
time*, which excludes the wait for the interpreter lock but includes the
slowdown.  Each sample gives the host's speed relative to
``REFERENCE_S``, and
:meth:`SpeedProbe.scaled` integrates those speeds over any wall-clock
interval: the result is the time the interval would have taken at
reference speed.
"""

from __future__ import annotations

import bisect
import threading
import time
from typing import List, Optional

import numpy as np

#: CPU seconds of one probe chunk at reference speed: about its time on
#: the 2-CPU host the bounds were set on, when no other tenant was busy
#: (0.8-1.0 ms then, 1.5-1.8 ms under contention).
REFERENCE_S = 0.0010


def _chunk(matrix: np.ndarray) -> float:
    value = matrix
    for _ in range(300):
        value = np.tanh(value @ matrix + 0.1)
    return float(value[0, 0])


class SpeedProbe:
    """Context manager sampling host speed in a daemon thread."""

    def __init__(self, interval: float = 0.05) -> None:
        self.interval = interval
        self._times: List[float] = []
        self._factors: List[float] = []
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self._matrix = np.arange(64, dtype=np.float64).reshape(8, 8) / 64

    def _sample(self) -> None:
        started = time.thread_time()
        _chunk(self._matrix)
        cpu = time.thread_time() - started
        self._times.append(time.perf_counter())
        self._factors.append(REFERENCE_S / cpu if cpu > 0 else 1.0)

    def _loop(self) -> None:
        while not self._stop.wait(self.interval):
            self._sample()

    def __enter__(self) -> "SpeedProbe":
        self._sample()
        self._thread = threading.Thread(target=self._loop,
                                        name="e2ebench-speed", daemon=True)
        self._thread.start()
        return self

    def __exit__(self, *_exc) -> None:
        self._stop.set()
        self._thread.join(timeout=10)
        self._sample()

    def scaled(self, start: float, end: float) -> float:
        """Seconds the wall interval ``[start, end]`` would have taken at
        reference speed: each stretch between samples is weighted by the
        first sample taken after it (the last sample covers the rest)."""
        times, factors = self._times, self._factors
        low = bisect.bisect_right(times, start)
        high = bisect.bisect_left(times, end)
        edges = [start, *times[low:high], end]
        total = 0.0
        for index, (left, right) in enumerate(zip(edges, edges[1:])):
            total += (right - left) * factors[min(low + index,
                                                  len(factors) - 1)]
        return total

    def mean_factor(self) -> float:
        return sum(self._factors) / len(self._factors)
