"""Perf tracker: what the service layer costs on top of a session run.

Times two things against one small search workload:

* **Submit overhead** -- a cache-miss submission through
  :class:`~repro.service.SearchServer` (job object, scheduler hop,
  store write) vs calling :class:`~repro.search.session.SearchSession`
  directly.  This is the service tax on a run that actually executes;
  it must stay a small constant factor (gated, lower is better).
* **Cache-hit speedup** -- the same spec submitted again.  A hit skips
  the search entirely (one disk read, or a memory-front lookup), so the
  ratio is the whole point of the result store; recorded, not gated
  (it scales with how long the *search* takes, which this bench keeps
  deliberately tiny -- real sessions see far larger ratios).

One session takes milliseconds, so a single timing is mostly noise.
The bench times ``PAIRS`` interleaved pairs, each on its own seed: a
direct run and a served miss of the same spec, back to back (the order
alternates from pair to pair), then a hit.  Each ratio is the median of
the per-pair ratios, so one invocation's gated figure is steady enough
for the trend gate's 20% band.

Writes ``BENCH_service.json`` at the repo root::

    {"direct_s": ..., "miss_s": ..., "hit_s": ...,
     "submit_overhead_x": ..., "hit_speedup_x": ..., "pairs": ...,
     "cpu_count": ...}

The three times are medians over the pairs.  Hit responses are asserted
bit-identical to the run that produced them (that is the cache
contract, not just a perf property).
"""

from __future__ import annotations

import json
import os
import pathlib
import statistics
import time

from repro.core.reporting import format_table
from repro.search import SearchSession, SearchSpec
from repro.service import ResultStore, SearchServer

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]

#: Timed direct/miss pairs; distinct seeds are distinct cache identities.
PAIRS = 9
#: Seed of the untimed run that warms both paths first.
WARMUP_SEED = 99
SEEDS = tuple(range(100, 100 + PAIRS))


def _spec(seed: int) -> SearchSpec:
    return SearchSpec(model="mnasnet", method="random", budget=60,
                      seed=seed, layer_slice=4)


def _timed(fn):
    started = time.perf_counter()
    out = fn()
    return time.perf_counter() - started, out


def test_service_latency(save_report, tmp_path):
    store = ResultStore(root=tmp_path / "cache")
    with SearchServer(store=store) as server:
        def direct(seed: int) -> float:
            return _timed(lambda: SearchSession(_spec(seed)).run())[0]

        def served(seed: int):
            return _timed(
                lambda: server.submit(_spec(seed)).wait(timeout=120))

        direct(WARMUP_SEED)
        served(WARMUP_SEED)
        directs, misses, hits = [], [], []
        for pair, seed in enumerate(SEEDS):
            if pair % 2 == 0:
                directs.append(direct(seed))
            seconds, fresh = served(seed)
            misses.append(seconds)
            seconds, cached = served(seed)
            hits.append(seconds)
            if pair % 2 == 1:
                directs.append(direct(seed))
            assert not fresh.cached and cached.cached
            assert cached.result.to_dict() == fresh.result.to_dict()
        assert server.executions == PAIRS + 1

    submit_overhead_x = statistics.median(
        miss / direct_s for miss, direct_s in zip(misses, directs))
    hit_speedup_x = statistics.median(
        miss / hit for miss, hit in zip(misses, hits))
    direct_s, miss_s, hit_s = (statistics.median(times)
                               for times in (directs, misses, hits))
    payload = {
        "direct_s": direct_s,
        "miss_s": miss_s,
        "hit_s": hit_s,
        "submit_overhead_x": submit_overhead_x,
        "hit_speedup_x": hit_speedup_x,
        "pairs": PAIRS,
        "cpu_count": os.cpu_count() or 1,
    }
    (REPO_ROOT / "BENCH_service.json").write_text(
        json.dumps(payload, indent=2) + "\n")

    rows = [
        ["direct session", f"{direct_s * 1e3:.2f}", "1.00"],
        ["served miss", f"{miss_s * 1e3:.2f}",
         f"{submit_overhead_x:.2f}"],
        ["served hit", f"{hit_s * 1e3:.2f}",
         f"{hit_speedup_x:.2f}x faster than miss"],
    ]
    save_report("bench_service", format_table(
        ["path", "ms (median)", "vs direct (median ratio)"], rows,
        title=f"Search-as-a-service latency, {PAIRS} pairs"))

    # The service tax on an executing run is a constant factor, not a
    # multiple; generous bound because the workload is milliseconds.
    assert submit_overhead_x < 3.0, (
        f"served miss {submit_overhead_x:.2f}x slower than a direct "
        f"session run")
    assert hit_speedup_x > 1.0, "a cache hit must beat re-running"
