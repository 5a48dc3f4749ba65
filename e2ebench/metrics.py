"""The benchmark's catalog: workloads, metrics and what each one means.

``BENCHMARK.json`` at the repository root is generated from this file
(``python3 e2ebench/metrics.py --write``) and checked against it by the
self-tests.  Its schema allows only ``name``/``unit``/``better``/
``bound`` per metric, so the longer descriptions -- host or simulated
clock, and for every per-layer metric the end-to-end metric and workload
it should move -- live here.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

CONFUCIUX = "confuciux-mbv2-iot"
BASELINES = "baselines-mbv2-cloud"
SERVICE = "service-mixed-repeat"
ALL = (CONFUCIUX, BASELINES, SERVICE)

#: One line per workload: why it exists.
WORKLOADS = {
    CONFUCIUX: (
        "The paper's two-stage ConfuciuX search, 16 seeds on MobileNet-V2's "
        "first 16 layers under the IoT area budget; time goes to the "
        "autograd tape and policy, barely to the cost model."),
    BASELINES: (
        "Table IV baseline grid (random, SA, GA, local-GA, Pareto-GA) at "
        "equal budgets on MobileNet-V2/cloud; no autograd, so GA operators "
        "and the cost model dominate."),
    SERVICE: (
        "Search service over the ND-JSON transport, 2 closed-loop clients, "
        "1 in 3 submissions repeated; per-job fixed costs, the result store "
        "and single-flight dominate."),
}

#: End-to-end metrics, measured with tracing off:
#: name -> (unit, better, bound, clock, description).  "host" times are
#: wall times on one CPU rescaled to reference speed (see ``speed.py``);
#: the run record keeps the raw wall times beside them.
END_TO_END = {
    "setup_s": (
        "s", "lower", 0.25, "host",
        "Median over fresh interpreters of the time until the workload "
        "can issue its first search call: import repro plus spec and "
        "session construction (for the service: until the transport "
        "answers ping)."),
    "search_s": (
        "s", "lower", 0.2, "host",
        "Time of one pass of the workload's search work (median when a "
        "run fits several): the seed sweep of sessions, the seed sweep of "
        "grids, or first submit to last result."),
    "peak_rss_mb": (
        "MB", "lower", 0.1, "host",
        "High-water resident set size of the process running the "
        "workload."),
    "jobs_per_s": (
        "jobs/s", "higher", 0.2, "host",
        "Completed jobs (sessions, grid cells or service jobs) per second "
        "of search time."),
    "job_latency_p50_ms": (
        "ms", "lower", 0.25, "host",
        "Median job latency: session wall time, the cell's own search "
        "time, or submit-to-result as the service client sees it."),
    "job_latency_tail_ms": (
        "ms", "lower", 0.25, "host",
        "Job latency at the highest percentile with at least 10 samples "
        "beyond it, or the maximum when that would not lie above the "
        "median (fewer than 21 jobs); the run record names the percentile "
        "and the sample count."),
    "best_cost": (
        "cycles", "lower", 0.25, "simulated",
        "Geometric mean over the workload's distinct searches of the best "
        "feasible design's latency; exact at a fixed seed, so any change "
        "to search behaviour shows."),
}

#: Wrapped public functions: name -> (module, target or targets, should
#: move, workloads it must fire on).  A target with a dot is a method.
#: The must-fire workloads are those the layer does most of its work on;
#: ``env.step`` fires on none, because area-budget episodes are scored
#: through ``EpisodePlan`` instead, and ``compare_methods`` drives its
#: cells without ``SearchSession.run``.
SPANS = {
    "nn.backward": ("repro.nn.autograd", "Tensor.backward",
                    "search_s", (CONFUCIUX,)),
    "nn.sample": ("repro.nn.distributions", "Categorical.sample",
                  "search_s", (CONFUCIUX,)),
    "nn.log_prob": ("repro.nn.distributions", "Categorical.log_prob",
                    "search_s", (CONFUCIUX,)),
    "nn.entropy": ("repro.nn.distributions", "Categorical.entropy",
                   "search_s", (CONFUCIUX,)),
    "nn.adam_step": ("repro.nn.optim", "Adam.step",
                     "search_s", (CONFUCIUX,)),
    "nn.clip_grad_norm": ("repro.nn.optim", "clip_grad_norm",
                          "search_s", (CONFUCIUX,)),
    "rl.rollout": ("repro.rl.reinforce",
                   ("Reinforce.run_episode_planned", "Reinforce.run_episode"),
                   "search_s", (CONFUCIUX,)),
    "rl.update": ("repro.rl.reinforce", "Reinforce.update",
                  "search_s", (CONFUCIUX,)),
    "rl.policy_forward": ("repro.rl.policies", "RecurrentPolicy.forward",
                          "search_s", (CONFUCIUX,)),
    "env.reset": ("repro.env.environment", "HWAssignmentEnv.reset",
                  "search_s", (CONFUCIUX,)),
    "env.step": ("repro.env.environment", "HWAssignmentEnv.step",
                 "search_s", ()),
    "env.plan_step": ("repro.env.environment", "EpisodePlan.step",
                      "search_s", (CONFUCIUX,)),
    "env.plan_commit": ("repro.env.environment", "EpisodePlan.commit",
                        "search_s", (CONFUCIUX,)),
    "optim.random_genome": ("repro.optim.base",
                            "GenomeOptimizer.random_genome",
                            "search_s", (BASELINES,)),
    "optim.mutation": ("repro.optim.base",
                       "GenomeOptimizer.resample_mutation",
                       "search_s", (BASELINES,)),
    "optim.crossover": ("repro.optim.base",
                        "GenomeOptimizer.uniform_crossover",
                        "search_s", (BASELINES,)),
    "optim.evaluate_batch": ("repro.optim.base",
                             "GenomeOptimizer.evaluate_batch",
                             "search_s", (BASELINES,)),
    "ga.local_search": ("repro.ga.local_ga", "LocalGA.search",
                        "search_s", (BASELINES,)),
    "objectives.non_dominated_sort": ("repro.objectives.pareto",
                                      "non_dominated_sort",
                                      "search_s", (BASELINES,)),
    "costmodel.evaluate_model": ("repro.costmodel.estimator",
                                 "CostModel.evaluate_model",
                                 "search_s", (BASELINES,)),
    "costmodel.batched_evaluate": ("repro.costmodel.batched",
                                   "BatchedCostModel.evaluate",
                                   "search_s", (BASELINES,)),
    "costmodel.evaluate_constrained": (
        "repro.costmodel.batched", "BatchedCostModel.evaluate_constrained",
        "search_s", (BASELINES,)),
    "core.platform_constraint": ("repro.core.constraints",
                                 "platform_constraint",
                                 "search_s", (BASELINES, SERVICE)),
    "core.evaluate_population": ("repro.core.evaluator",
                                 "DesignPointEvaluator.evaluate_population",
                                 "search_s", (BASELINES, SERVICE)),
    "core.evaluate_population_raw": (
        "repro.core.evaluator", "DesignPointEvaluator.evaluate_population_raw",
        "search_s", (BASELINES, SERVICE)),
    "core.evaluate_raw": ("repro.core.evaluator",
                          "DesignPointEvaluator.evaluate_raw",
                          "job_latency_p50_ms", (BASELINES, SERVICE)),
    "search.session_run": ("repro.search.session", "SearchSession.run",
                           "search_s", (CONFUCIUX, SERVICE)),
    "experiments.compare_methods": ("repro.experiments.runner",
                                    "compare_methods",
                                    "search_s", (BASELINES,)),
    "service.submit": ("repro.service.server", "SearchServer.submit",
                       "jobs_per_s", (SERVICE,)),
    "service.store_get": ("repro.service.store", "ResultStore.get",
                          "job_latency_p50_ms", (SERVICE,)),
    "service.store_put": ("repro.service.store", "ResultStore.put",
                          "job_latency_tail_ms", (SERVICE,)),
    "service.result_encode": ("repro.search.session", "SessionResult.to_dict",
                              "job_latency_p50_ms", (SERVICE,)),
    "service.result_decode": ("repro.search.session",
                              "SessionResult.from_dict",
                              "job_latency_p50_ms", (SERVICE,)),
}

#: Ratios and counters of the traced run:
#: name -> (unit, better, should move, workloads, description).
RATIOS = {
    "env.steps_per_episode": (
        "count", "higher", "search_s", (CONFUCIUX, SERVICE),
        "Layer steps (scalar plus planned) per episode reset."),
    "costmodel.batched_evaluate.rows": (
        "count", "lower", "search_s", ALL,
        "Design rows passed to BatchedCostModel.evaluate."),
    "costmodel.evaluate_constrained.rows": (
        "count", "lower", "search_s", ALL,
        "Design rows passed to BatchedCostModel.evaluate_constrained."),
    "costmodel.layer_cache_hit_share": (
        "fraction", "higher", "search_s", (BASELINES, CONFUCIUX),
        "Scalar per-layer LRU hits over lookups, from CostModel.cache_info() "
        "of every session's and grid's cost model."),
    "core.feasible_share": (
        "fraction", "higher", "search_s", ALL,
        "Feasible outcomes over design points scored by DesignPointEvaluator "
        "(population, raw population and scalar raw calls)."),
    "core.dedup_hit_share": (
        "fraction", "higher", "search_s", (BASELINES, SERVICE),
        "Population rows served by the evaluator's duplicate-row memo over "
        "rows submitted."),
    "service.queue_wait_ms.p50": (
        "ms", "lower", "job_latency_tail_ms", (SERVICE,),
        "Median of started_at - created_at over executed service jobs."),
    "service.run_ms.p50": (
        "ms", "lower", "job_latency_tail_ms", (SERVICE,),
        "Median of finished_at - started_at over executed service jobs."),
    "service.store_hit_share": (
        "fraction", "higher", "jobs_per_s", (SERVICE,),
        "ResultStore hits over lookups, from SearchServer.stats()."),
    "service.singleflight_share": (
        "fraction", "higher", "jobs_per_s", (SERVICE,),
        "Submissions attached to an in-flight identical job over all "
        "submissions."),
    "service.executions": (
        "count", "lower", "jobs_per_s", (SERVICE,),
        "Sessions the service actually ran, from SearchServer.stats()."),
    "trace.overhead_share": (
        "fraction", "lower", "none", ALL,
        "(traced - untraced search_s) / untraced search_s of the same run."),
}


def per_layer():
    """Every per-layer metric: name -> (unit, better, description)."""
    metrics = {}
    for name, (module, targets, moves, workloads) in SPANS.items():
        if isinstance(targets, str):
            targets = (targets,)
        where = ", ".join(workloads) if workloads else "none of the three"
        about = (f"{module}.{' and '.join(targets)}; should move {moves}; "
                 f"must fire on {where}")
        metrics[f"{name}.calls"] = ("count", "lower", f"Calls of {about}.")
        metrics[f"{name}.self_s"] = (
            "s", "lower", f"Host wall self time (span minus child spans, "
                          f"not rescaled) of {about}.")
    for name, (unit, better, moves, workloads, text) in RATIOS.items():
        metrics[name] = (unit, better, f"{text} Should move {moves}; "
                                       f"measured on {', '.join(workloads)}.")
    return metrics


def benchmark_json() -> dict:
    """The ``BENCHMARK.json`` document this catalog defines."""
    return {
        "command": ["python3", "e2ebench/run.py"],
        "paths": ["e2ebench"],
        "run_seconds": 15,
        "workloads": [{"name": name, "why": why}
                      for name, why in WORKLOADS.items()],
        "end_to_end": [
            {"name": name, "unit": unit, "better": better, "bound": bound}
            for name, (unit, better, bound, _, _) in END_TO_END.items()],
        "per_layer": [
            {"name": name, "unit": unit, "better": better}
            for name, (unit, better, _) in per_layer().items()],
    }


def render() -> str:
    return json.dumps(benchmark_json(), indent=2) + "\n"


if __name__ == "__main__":
    target = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
    if sys.argv[1:] == ["--write"]:
        target.write_text(render())
    else:
        sys.stdout.write(render())
