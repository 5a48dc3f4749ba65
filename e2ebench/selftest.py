"""Self-tests of the benchmark (not collected by the repository's suite).

    python3 -m pytest -q e2ebench/selftest.py

They check the tracer's self-time arithmetic, that every workload runs at
a tiny budget and passes the correctness gate, that the gate catches a
wrong result, and that the emitted metric names match ``BENCHMARK.json``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import threading
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import gate  # noqa: E402
import metrics  # noqa: E402
import run  # noqa: E402
import tracer as tracer_module  # noqa: E402
from speed import SpeedProbe  # noqa: E402
from workloads import BaselineGrid, ConfuciuxSweep, ServiceStream  # noqa: E402

SEED = 3


class FakeClock:
    """A per-thread nanosecond clock that moves only when told to."""

    def __init__(self) -> None:
        self._local = threading.local()

    def __call__(self) -> int:
        return getattr(self._local, "now", 0)

    def advance(self, nanoseconds: int) -> None:
        self._local.now = self() + nanoseconds


@pytest.fixture
def fake_clock(monkeypatch):
    clock = FakeClock()
    monkeypatch.setattr(tracer_module.time, "perf_counter_ns", clock)
    return clock


def _call_tree(tracer, clock):
    """outer(5 + inner + 7 + inner), inner(3 + leaf), leaf(2)."""
    def leaf():
        clock.advance(2)

    leaf = tracer.wrap("leaf", leaf)

    def inner():
        clock.advance(3)
        leaf()

    inner = tracer.wrap("inner", inner)

    def outer():
        clock.advance(5)
        inner()
        clock.advance(7)
        inner()

    return tracer.wrap("outer", outer)


def test_self_time_of_nested_calls(fake_clock):
    tracer = tracer_module.Tracer()
    outer = _call_tree(tracer, fake_clock)
    tracer.enabled = True
    outer()
    spans = tracer.spans()
    assert spans["outer"] == (1, 12e-9)
    assert spans["inner"] == (2, 6e-9)
    assert spans["leaf"] == (2, 4e-9)


def test_self_time_is_per_thread(fake_clock):
    """Two threads interleave their call trees; each thread's child
    spans must only be subtracted from that thread's parents."""
    tracer = tracer_module.Tracer()
    outer = _call_tree(tracer, fake_clock)
    barrier = threading.Barrier(2)

    def interleaved():
        barrier.wait()
        outer()
        barrier.wait()
        outer()

    tracer.enabled = True
    threads = [threading.Thread(target=interleaved) for _ in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=10)
        assert not thread.is_alive()
    spans = tracer.spans()
    assert spans["outer"] == (4, 48e-9)
    assert spans["inner"] == (8, 24e-9)
    assert spans["leaf"] == (8, 16e-9)


def test_disabled_tracer_records_nothing(fake_clock):
    tracer = tracer_module.Tracer()
    _call_tree(tracer, fake_clock)()
    assert tracer.spans() == {}


def test_install_patches_every_binding_and_restores():
    import layers
    import repro.core.confuciux
    import repro.experiments.tasks
    from repro.core.constraints import platform_constraint
    from repro.search.session import SessionResult

    original_decode = SessionResult.__dict__["from_dict"]
    tracer = tracer_module.Tracer()
    layers.install(tracer)
    try:
        for module in (repro.experiments.tasks, repro.core.confuciux):
            assert module.platform_constraint.__wrapped__ \
                is platform_constraint
        assert isinstance(SessionResult.__dict__["from_dict"], classmethod)
    finally:
        tracer.restore()
    assert repro.experiments.tasks.platform_constraint is platform_constraint
    assert repro.core.confuciux.platform_constraint is platform_constraint
    assert SessionResult.__dict__["from_dict"] is original_decode


def tiny(cls, scratch, **sizes):
    workload = cls(SEED, str(scratch))
    for name, value in sizes.items():
        setattr(workload, name, value)
    return workload


TINY = {
    ConfuciuxSweep: dict(sessions=1, budget=30),
    BaselineGrid: dict(grids=1, evaluations=400),
    ServiceStream: dict(
        distinct=5, submissions=9,
        budgets={"reinforce": 10, "confuciux": 10, "ga": 60,
                 "local-ga": 60, "sa": 60},
        combos=tuple((method, 8, "cloud") for method in
                     ("reinforce", "confuciux", "ga", "local-ga", "sa"))),
}


def _benchmark():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_benchmark_json_is_generated_from_the_catalog():
    assert _benchmark() == metrics.benchmark_json()


@pytest.mark.parametrize("cls", list(TINY), ids=lambda cls: cls.name)
@pytest.mark.parametrize("trace", [False, True], ids=["e2e", "traced"])
def test_tiny_workload_passes_gate_and_emits_catalog_names(cls, trace,
                                                          tmp_path):
    with SpeedProbe() as probe:
        record, result = run.measure(tiny(cls, tmp_path, **TINY[cls]),
                                     seconds=0, trace=trace,
                                     setup=[] if trace else [(0.0, 1.0)],
                                     probe=probe)
    assert result["correct"], record["problems"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    section = "per_layer" if trace else "end_to_end"
    assert set(result["metrics"]) == {metric["name"]
                                      for metric in _benchmark()[section]}
    assert all(isinstance(metric["value"], (int, float))
               for metric in result["metrics"].values())


def test_tiny_workload_is_exact_at_a_fixed_seed(tmp_path):
    runs = []
    for _ in range(2):
        workload = tiny(BaselineGrid, tmp_path, **TINY[BaselineGrid])
        workload.setup()
        runs.append({key: run.signature(outcome[4])
                     for key, outcome in workload.run_pass().outcomes.items()})
    assert runs[0] == runs[1]


def test_gate_rejects_a_wrong_best_cost(tmp_path):
    workload = tiny(ConfuciuxSweep, tmp_path, **TINY[ConfuciuxSweep])
    workload.setup()
    (task, method, budget, finetune,
     result) = next(iter(workload.run_pass().outcomes.values()))
    assert result.best_cost is not None
    assert gate.check(task, method, budget, finetune, result) == []
    result.best_cost *= 1.0000001
    assert any("re-scored" in problem
               for problem in gate.check(task, method, budget, finetune,
                                         result))
    result.history.append(result.history[-1] * 2)
    assert any("increases" in problem
               for problem in gate.check(task, method, budget, finetune,
                                         result))


def test_setup_probe_reports_ready(tmp_path):
    intervals = run.measure_setup(ServiceStream.name, SEED, tmp_path)
    assert len(intervals) == run.SETUP_PROBES
    assert all(0 < end - start < 60 for start, end in intervals)


def test_speed_probe_integrates_sampled_factors():
    probe = SpeedProbe()
    probe._times, probe._factors = [1.0, 2.0, 3.0], [1.0, 2.0, 4.0]
    # [0.5, 1] before the first sample, then each stretch is weighted by
    # the sample that closes it; past the last sample the last holds.
    assert probe.scaled(0.5, 1.0) == 0.5
    assert probe.scaled(1.0, 3.0) == 2.0 + 4.0
    assert probe.scaled(1.5, 3.5) == 0.5 * 2.0 + 4.0 + 0.5 * 4.0


def test_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload",
         ServiceStream.name, "--seed", "1", "--seconds", "1",
         "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
