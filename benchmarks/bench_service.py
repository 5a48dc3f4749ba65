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

Writes ``BENCH_service.json`` at the repo root::

    {"direct_s": ..., "miss_s": ..., "hit_s": ...,
     "submit_overhead_x": ..., "hit_speedup_x": ..., "cpu_count": ...}

Hit responses are asserted bit-identical to the run that produced them
(that is the cache contract, not just a perf property).
"""

from __future__ import annotations

import json
import os
import pathlib
import time

from repro.core.reporting import format_table
from repro.search import SearchSession, SearchSpec
from repro.service import ResultStore, SearchServer

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]

#: Distinct seeds -> distinct cache identities; one timing sample each.
SEEDS = (100, 101, 102, 103, 104)


def _spec(seed: int) -> SearchSpec:
    return SearchSpec(model="mnasnet", method="random", budget=60,
                      seed=seed, layer_slice=4)


def _timed(fn):
    started = time.perf_counter()
    out = fn()
    return time.perf_counter() - started, out


def test_service_latency(save_report, tmp_path):
    direct_s = min(
        _timed(lambda seed=seed: SearchSession(_spec(seed)).run())[0]
        for seed in SEEDS)

    store = ResultStore(root=tmp_path / "cache")
    with SearchServer(store=store) as server:
        misses, hits = [], []
        for seed in SEEDS:
            seconds, fresh = _timed(
                lambda s=seed: server.submit(_spec(s)).wait(timeout=120))
            misses.append(seconds)
            seconds, cached = _timed(
                lambda s=seed: server.submit(_spec(s)).wait(timeout=120))
            hits.append(seconds)
            assert not fresh.cached and cached.cached
            assert cached.result.to_dict() == fresh.result.to_dict()
        assert server.executions == len(SEEDS)
    miss_s, hit_s = min(misses), min(hits)

    submit_overhead_x = miss_s / direct_s
    hit_speedup_x = miss_s / hit_s
    payload = {
        "direct_s": direct_s,
        "miss_s": miss_s,
        "hit_s": hit_s,
        "submit_overhead_x": submit_overhead_x,
        "hit_speedup_x": hit_speedup_x,
        "cpu_count": os.cpu_count() or 1,
    }
    (REPO_ROOT / "BENCH_service.json").write_text(
        json.dumps(payload, indent=2) + "\n")

    rows = [
        ["direct session", f"{direct_s * 1e3:.2f}", "1.00"],
        ["served miss", f"{miss_s * 1e3:.2f}",
         f"{submit_overhead_x:.2f}"],
        ["served hit", f"{hit_s * 1e3:.2f}",
         f"{miss_s / hit_s:.2f}x faster than miss"],
    ]
    save_report("bench_service", format_table(
        ["path", "ms", "vs direct"], rows,
        title="Search-as-a-service latency"))

    # The service tax on an executing run is a constant factor, not a
    # multiple; generous bound because the workload is milliseconds.
    assert submit_overhead_x < 3.0, (
        f"served miss {submit_overhead_x:.2f}x slower than a direct "
        f"session run")
    assert hit_speedup_x > 1.0, "a cache hit must beat re-running"
