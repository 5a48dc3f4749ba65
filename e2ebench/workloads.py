"""The benchmark's three workloads, each driving the public ``repro`` API.

Every workload turns ``--seed`` into a fixed pass of work -- a seed sweep
of sessions, a seed sweep of grids, or one stream of service
submissions -- sized to take about the run's 15 ``--seconds`` on one
CPU of a 2-CPU host.  All run closed-loop on the default serial executor.  A pass
returns its timings plus every search result, keyed by identity, for
the correctness gate and the quality metric.

``repro`` is imported inside the methods only, so importing this module
stays cheap for the set-up probe.
"""

from __future__ import annotations

import json
import random
import shutil
import statistics
import tempfile
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Tuple

from metrics import BASELINES, CONFUCIUX, SERVICE

MODEL = "mobilenet_v2"


@dataclass
class Pass:
    """One pass of a workload's search work, timed on the
    ``time.perf_counter`` clock."""

    #: Wall interval of the search work (first call to last result).
    interval: Tuple[float, float]
    #: Wall interval of every completed job.
    jobs: List[Tuple[float, float]]
    #: identity -> (TaskSpec, method, budget, finetune, SearchResult).
    outcomes: Dict[object, tuple]
    #: Jobs that raised or failed, as messages.
    errors: List[str] = field(default_factory=list)
    #: Workload-level counters for the traced run.
    counters: Dict[str, float] = field(default_factory=dict)
    #: Checks to run once tracing is off (they call wrapped functions).
    check: Callable[[], List[str]] = list


def _seeds(seed: int, count: int) -> List[int]:
    rng = random.Random(seed)
    return [rng.randrange(1 << 30) for _ in range(count)]


class ConfuciuxSweep:
    """ConfuciuX on MobileNet-V2 / IoT area budget, one session per
    derived seed, default fine-tune budget (``budget // 4``), envs=1.

    The sessions search the first ``layers`` layers: a short RL search's
    best cost varies by ~25% (log scale) from seed to seed, so the
    quality figure needs many sessions to be steady, and sixteen
    full-model sessions would not fit in a run.
    """

    name = CONFUCIUX
    sessions = 16
    budget = 60
    layers = 16

    def __init__(self, seed: int, scratch: str) -> None:
        self.seed = seed

    def describe(self) -> dict:
        return {"model": MODEL, "layers": self.layers,
                "method": "confuciux", "platform": "iot",
                "sessions": self.sessions, "epochs": self.budget,
                "finetune": self.budget // 4}

    def setup(self) -> None:
        import repro

        self.specs = [
            repro.SearchSpec(model=MODEL, method="confuciux",
                             objective="latency", dataflow="dla",
                             constraint_kind="area", platform="iot",
                             layer_slice=self.layers, budget=self.budget,
                             seed=seed)
            for seed in _seeds(self.seed, self.sessions)]
        repro.SearchSession(self.specs[0])

    def close(self) -> None:
        pass

    def run_pass(self) -> Pass:
        import repro

        jobs, outcomes = [], {}
        for spec in self.specs:
            begun = time.perf_counter()
            session = repro.SearchSession(spec).run()
            jobs.append((begun, time.perf_counter()))
            outcomes[spec.seed] = (spec.task(), spec.method, spec.budget,
                                   spec.finetune_budget, session.result)
        return Pass((jobs[0][0], jobs[-1][1]), jobs, outcomes)


class BaselineGrid:
    """Table IV grid on full MobileNet-V2 / cloud area budget: every
    baseline at the same evaluation budget, one grid per derived seed,
    each grid on a fresh cost model (the ``compare_methods`` default)."""

    name = BASELINES
    grids = 3
    evaluations = 4000
    methods = ("random", "sa", "ga", "local-ga", "pareto-ga")

    def __init__(self, seed: int, scratch: str) -> None:
        self.seed = seed

    def describe(self) -> dict:
        return {"model": MODEL, "platform": "cloud", "grids": self.grids,
                "methods": list(self.methods),
                "evaluations_per_cell": self.evaluations}

    def setup(self) -> None:
        import repro
        from repro.experiments.tasks import TaskSpec

        self.seeds = _seeds(self.seed, self.grids)
        self.task = TaskSpec(model=MODEL, objective="latency",
                             dataflow="dla", constraint_kind="area",
                             platform="cloud")
        repro.CostModel()

    def close(self) -> None:
        pass

    def run_pass(self) -> Pass:
        import repro
        from repro.experiments import runner

        jobs, outcomes = [], {}
        started = time.perf_counter()
        for seed in self.seeds:
            begun = time.perf_counter()
            # Looked up at call time so the traced run's patch applies.
            cells = runner.compare_methods(self.task, self.methods,
                                           self.evaluations, seed=seed,
                                           cost_model=repro.CostModel())
            # A cell's latency is its own search time, laid end to end
            # from the grid's start (grid set-up is not any cell's).
            for method, result in cells.items():
                jobs.append((begun, begun + result.wall_time_s))
                begun += result.wall_time_s
                outcomes[(seed, method)] = (self.task, method,
                                            self.evaluations, 0, result)
        return Pass((started, time.perf_counter()), jobs, outcomes)


class ServiceStream:
    """A seeded stream of small specs through ``SearchServer`` behind
    the ND-JSON transport, ``clients`` blocking ``ServiceClient``
    connections, a fresh ``ResultStore`` per pass.

    Identities cycle through every (method, layer slice, platform) combo
    below, so each seed draws the same mix; 1 in 3 submissions repeats
    an earlier identity (a store hit, or a single-flight join while it
    runs).  That keeps both clients busy nearly all the time, so the
    interpreter-lock contention every job sees is about the same from
    seed to seed, and puts the median latency among the short (GA-family)
    runs, where fixed per-job costs weigh most; with more repeats, hit
    latency swings between about 1 and 5 ms with that contention.
    SA runs on ``cloud`` only: on ``iot`` it often finds nothing feasible
    at this budget.
    """

    name = SERVICE
    clients = 2
    distinct = 54
    submissions = 81
    budgets = {"reinforce": 30, "confuciux": 30, "ga": 300,
               "local-ga": 300, "sa": 300}
    combos = tuple(
        (method, layers, platform)
        for method in ("reinforce", "confuciux", "ga", "local-ga", "sa")
        for layers in (8, 16)
        for platform in (("cloud",) if method == "sa" else ("iot", "cloud")))

    def __init__(self, seed: int, scratch: str) -> None:
        self.seed = seed
        self.scratch = scratch
        self._running = None

    def describe(self) -> dict:
        return {"model": MODEL, "clients": self.clients,
                "distinct": self.distinct,
                "submissions": self.submissions,
                "budgets": dict(self.budgets),
                "combos": [list(combo) for combo in self.combos]}

    def stream(self):
        """The seeded submission sequence (a list of ``SearchSpec``)."""
        import repro

        rng = random.Random(self.seed)
        identities = []
        for index in range(self.distinct):
            method, layers, platform = self.combos[index % len(self.combos)]
            identities.append(repro.SearchSpec(
                model=MODEL, method=method, objective="latency",
                dataflow="dla", constraint_kind="area", platform=platform,
                layer_slice=layers, budget=self.budgets[method],
                seed=rng.randrange(1 << 30)))
        rng.shuffle(identities)
        kinds = ([True] * (self.distinct - 1)
                 + [False] * (self.submissions - self.distinct))
        rng.shuffle(kinds)
        sequence, introduced = [], 0
        for new in [True] + kinds:
            if new:
                sequence.append(identities[introduced])
                introduced += 1
            else:
                sequence.append(identities[rng.randrange(introduced)])
        return sequence

    def _start(self):
        from repro.service import (ResultStore, SearchServer,
                                   start_transport)

        root = tempfile.mkdtemp(prefix="store-", dir=self.scratch)
        server = SearchServer(store=ResultStore(root=root))
        transport = start_transport(server, port=0)
        return server, transport, root

    @staticmethod
    def _stop(running) -> None:
        server, transport, root = running
        transport.shutdown()
        transport.server_close()
        server.close(timeout=60)
        shutil.rmtree(root, ignore_errors=True)

    def setup(self) -> None:
        from repro.service import ServiceClient

        self.specs = self.stream()
        self._running = self._start()
        with ServiceClient(port=self._running[1].server_address[1]) as client:
            client.ping()

    def close(self) -> None:
        if self._running is not None:
            self._stop(self._running)
            self._running = None

    def run_pass(self) -> Pass:
        from repro.service import ServiceClient, result_key

        running = self._start()
        server, transport, _ = running
        port = transport.server_address[1]
        specs = self.specs
        records: List[tuple] = [None] * len(specs)
        order = iter(range(len(specs)))
        lock = threading.Lock()

        def client_loop() -> None:
            with ServiceClient(port=port) as client:
                while True:
                    with lock:
                        index = next(order, None)
                    if index is None:
                        return
                    begun = time.perf_counter()
                    try:
                        result, error = client.submit(specs[index]), None
                    except Exception as exc:  # noqa: BLE001 - job boundary
                        result, error = None, f"{type(exc).__name__}: {exc}"
                    records[index] = (begun, time.perf_counter(), result,
                                      error)

        threads = [threading.Thread(target=client_loop, daemon=True)
                   for _ in range(self.clients)]
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=150)
            stats = server.stats()
            jobs = server.jobs()
        finally:
            self._stop(running)

        errors = ["client thread still running after 150 s"
                  for thread in threads if thread.is_alive()]
        outcomes, submitted = {}, []
        for index, record in enumerate(records):
            if record is None:
                errors.append(f"submission {index} never completed")
                continue
            _, _, result, error = record
            if error is not None:
                errors.append(f"submission {index}: {error}")
                continue
            spec = specs[index]
            key = result_key(spec)
            submitted.append((index, key, result))
            outcomes.setdefault(key, (spec.task(), spec.method, spec.budget,
                                      spec.finetune_budget, result.result))
        errors.extend(f"job {job.id} {job.state}: {job.error}"
                      for job in jobs if job.state != "DONE")
        executed = [job for job in jobs if job.started_at is not None]
        cache = stats["cache"]
        lookups = cache["hits"] + cache["misses"]
        counters = {
            "service.queue_wait_ms.p50": _median_ms(
                [job.started_at - job.created_at for job in executed]),
            "service.run_ms.p50": _median_ms(
                [job.finished_at - job.started_at for job in executed]),
            "service.store_hit_share": cache["hits"] / lookups
            if lookups else 0.0,
            "service.singleflight_share":
                (len(specs) - len(jobs)) / len(specs),
            "service.executions": stats["executions"],
        }
        done = [record for record in records if record is not None]
        interval = ((min(begun for begun, _, _, _ in done),
                     max(end for _, end, _, _ in done)) if done else (0, 0))
        jobs = [(begun, end) for begun, end, _, error in done
                if error is None]
        return Pass(interval, jobs, outcomes, errors, counters,
                    lambda: _same_documents(submitted))


def _same_documents(submitted) -> List[str]:
    """Every submission of one identity got a byte-identical result
    document (compared as canonical JSON, re-encoded client-side)."""
    first, problems = {}, []
    for index, key, result in submitted:
        document = json.dumps(result.to_dict(), sort_keys=True)
        if first.setdefault(key, document) != document:
            problems.append(f"submission {index}: result document differs "
                            f"from the first one of its identity")
    return problems


def _median_ms(seconds: List[float]) -> float:
    return 1000 * statistics.median(seconds) if seconds else 0.0


WORKLOADS = {cls.name: cls for cls in (ConfuciuxSweep, BaselineGrid,
                                      ServiceStream)}
