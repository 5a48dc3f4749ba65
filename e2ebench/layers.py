"""The traced run: which ``repro`` functions get spans, plus the counters.

Counters come from the program's own bookkeeping wherever one exists
(``CostModel.cache_info()``, ``DesignPointEvaluator.cache_hits``, the
service's ``stats()``), read at the span boundaries below.
"""

from __future__ import annotations

import importlib
from typing import Dict

from metrics import RATIOS, SPANS, per_layer
from tracer import Tracer

#: Modules that bind a wrapped module-level function by name; each must
#: end up patched, or the span would silently read as 0 calls there.
REQUIRED_BINDINGS = {
    "core.platform_constraint": ("repro.experiments.tasks",
                                 "repro.core.confuciux"),
    "nn.clip_grad_norm": ("repro.rl.reinforce",),
    "objectives.non_dominated_sort": ("repro.optim.pareto_ga",),
    "experiments.compare_methods": ("repro.experiments.runner",),
}


def _rows(counter):
    def hook(tracer, args, kwargs, result, token):
        rows = args[2] if len(args) > 2 else kwargs["layer_idx"]
        tracer.count(counter, len(rows))
    return hook


def _evaluator_hits(args, kwargs):
    return args[0].cache_hits


def _population(tracer, args, kwargs, outcomes, hits_before):
    tracer.count("core.scored", len(outcomes))
    tracer.count("core.feasible", sum(1 for o in outcomes if o.feasible))
    tracer.count("core.population_rows", len(outcomes))
    tracer.count("core.dedup_hits", args[0].cache_hits - hits_before)


def _raw(tracer, args, kwargs, outcome, token):
    tracer.count("core.scored", 1)
    tracer.count("core.feasible", int(outcome.feasible))


def _layer_cache(tracer, cost_model) -> None:
    info = cost_model.cache_info()
    tracer.count("costmodel.layer_hits", info.hits)
    tracer.count("costmodel.layer_lookups", info.hits + info.misses)


def _session(tracer, args, kwargs, result, token):
    _layer_cache(tracer, args[0].cost_model)


def _grid(tracer, args, kwargs, result, token):
    _layer_cache(tracer, kwargs["cost_model"])


HOOKS = {
    "costmodel.batched_evaluate": (_rows("costmodel.batched_evaluate.rows"),
                                   None),
    "costmodel.evaluate_constrained": (
        _rows("costmodel.evaluate_constrained.rows"), None),
    "core.evaluate_population": (_population, _evaluator_hits),
    "core.evaluate_population_raw": (_population, _evaluator_hits),
    "core.evaluate_raw": (_raw, None),
    "search.session_run": (_session, None),
    "experiments.compare_methods": (_grid, None),
}


def install(tracer: Tracer) -> None:
    """Wrap every function in :data:`metrics.SPANS`."""
    for modules in REQUIRED_BINDINGS.values():
        for module in modules:
            importlib.import_module(module)
    for name, (module, targets, _, _) in SPANS.items():
        hook, pre = HOOKS.get(name, (None, None))
        for target in (targets,) if isinstance(targets, str) else targets:
            if "." in target:
                tracer.patch_method(name, module, target, hook, pre)
                continue
            patched = tracer.patch_function(name, module, target, hook, pre)
            missing = set(REQUIRED_BINDINGS.get(name, ())) - set(patched)
            if missing:
                tracer.restore()
                raise RuntimeError(
                    f"{name}: binding(s) {sorted(missing)} not patched")


def _share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def values(tracer: Tracer, workload_counters: Dict[str, float]
           ) -> Dict[str, float]:
    """Every per-layer metric of one traced pass.

    ``workload_counters`` carries what only the workload can read (the
    service's job timestamps and stats, and the tracing overhead).
    """
    spans = tracer.spans()
    counters = tracer.counters()
    out: Dict[str, float] = {}
    for name in SPANS:
        calls, self_s = spans.get(name, (0, 0.0))
        out[f"{name}.calls"] = calls
        out[f"{name}.self_s"] = self_s
    steps = out["env.plan_step.calls"] + out["env.step.calls"]
    derived = {
        "env.steps_per_episode": _share(steps, out["env.reset.calls"]),
        "costmodel.layer_cache_hit_share": _share(
            counters.get("costmodel.layer_hits", 0),
            counters.get("costmodel.layer_lookups", 0)),
        "core.feasible_share": _share(counters.get("core.feasible", 0),
                                      counters.get("core.scored", 0)),
        "core.dedup_hit_share": _share(
            counters.get("core.dedup_hits", 0),
            counters.get("core.population_rows", 0)),
    }
    for name in RATIOS:
        if name in derived:
            out[name] = derived[name]
        else:
            out[name] = workload_counters.get(name, counters.get(name, 0))
    assert set(out) == set(per_layer()), "catalog and trace disagree"
    return out


def unfired(tracer: Tracer, workload: str):
    """Spans that must fire on ``workload`` but recorded no call."""
    spans = tracer.spans()
    return [name for name, (_, _, _, workloads) in SPANS.items()
            if workload in workloads and spans.get(name, (0, 0))[0] == 0]
