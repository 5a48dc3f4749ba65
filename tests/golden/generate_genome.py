"""Golden pins for the genome-space search methods: writes
``tests/golden/genome.json``.

    PYTHONPATH=src python tests/golden/generate_genome.py          # rewrite
    PYTHONPATH=src python tests/golden/generate_genome.py --check  # diff only

Every ``kind == "genome"`` method (grid, random, sa, ga, bayesian,
pareto-ga, local-ga) runs a small seeded search on an 8-layer slice of
MobileNet-V2 with a fixed dataflow, on the same slice under MIX (a
dataflow gene per layer, so the gene bounds are ``[L, L, 3]`` per layer)
and on the full model (cloud tier), and the file records the best cost,
best genome and assignments, the evaluation and cache-hit counts, and a
SHA-256 of the best-so-far history.  ``local-ga`` also runs 54
generations (1,000 evaluations) on those three groups and on the slice
under ``ls`` and under a resource budget, and one case runs the
ablation's ``LocalGA(crossover_mode="global")`` directly.  ``sa`` also
runs on the slice under ``ls``, the default FPGA caps and a power budget
(``SA_GROUPS``).  ``pareto-ga``
also runs longer searches (``PARETO_GA_CASES``) that pin a SHA-256 of
the whole reported front as well.  ``OBSERVED_CASES`` run under
``generate_rl.py``'s recording observer, to their budget and stopped
early, and pin its trace too.  Hashing, the diff and the ``--check``
mode are ``generate_rl.py``'s; a change that moves a pin must say why in
CHANGES.md.  ``tests/test_golden_genome.py`` compares a fresh run of
every case with the file, exactly.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import sys
from pathlib import Path
from typing import Dict, List

_HERE = Path(__file__).resolve().parent
_SPEC = importlib.util.spec_from_file_location("golden_rl",
                                               _HERE / "generate_rl.py")
harness = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(harness)

GOLDEN = _HERE / "genome.json"
SEEDS = harness.SEEDS
MODEL = harness.MODEL
SLICE = harness.SLICE
FULL_PLATFORM = harness.FULL_PLATFORM

#: method -> budget in design-point evaluations: a few generations of
#: each population method, and enough annealing steps for SA to reach a
#: feasible point on the IoT slice with both seeds.
BUDGETS = {"grid": 300, "random": 300, "sa": 400, "ga": 300,
           "bayesian": 30, "pareto-ga": 150, "local-ga": 60}

#: Per-method spec options: the Pareto search runs on its intended
#: two-objective spec.
OPTIONS = {"pareto-ga": {"objective": "multi:latency,energy"}}

#: group -> spec options for that group's task.
GROUPS = {"slice8": {"layer_slice": SLICE},
          "mix8": {"layer_slice": SLICE, "mix": True},
          "full": {"platform": FULL_PLATFORM}}


#: Evaluations of the long stage-2 cases: 54 local-GA generations, where
#: ``BUDGETS["local-ga"]`` covers 2.
LOCAL_GA_BUDGET = 1000
LOCAL_GA = f"local-ga-{LOCAL_GA_BUDGET}"
#: The ablation's two-parent blend, which no spec field selects.
LOCAL_GA_GLOBAL = f"local-ga-global-{LOCAL_GA_BUDGET}"

#: group -> spec options for the long ``local-ga`` cases.  The resource
#: group's L1 cap binds: at the default 8,192 bytes no design the search
#: visits is infeasible, and the pins would match ``slice8``'s.
LOCAL_GA_GROUPS = {**GROUPS,
                   "ls8": {"layer_slice": SLICE, "deployment": "ls"},
                   "resource8": {"layer_slice": SLICE,
                                 "constraint_kind": "resource",
                                 "max_total_l1": 1024}}

#: group -> spec options for the extra ``sa`` cases on the 8-layer
#: slice: one shared design point (``ls``), the FPGA caps at their
#: defaults (4,096 PEs, 8,192 L1 bytes), checked on the decoded
#: assignments, where the first feasible design is the 111th evaluation
#: at seed 0 and the 161st at seed 1, and a power budget on the cloud
#: tier, where 3 and 104 of the 400 evaluations are infeasible.
SA_GROUPS = {"ls8": LOCAL_GA_GROUPS["ls8"],
             "fpga8": {"layer_slice": SLICE, "constraint_kind": "resource"},
             "power8": {"layer_slice": SLICE, "constraint_kind": "power",
                        "platform": "cloud"}}

#: The long ``pareto-ga`` cases, ``group/name -> (budget, spec options)``:
#: the baseline grid's own task (a scalar objective, so nearly every
#: individual is a front of its own), two objectives on the full model,
#: and three on the IoT slice, where about a fifth of the evaluations are
#: infeasible.  Each also pins ``front_sha256``.
PARETO_GA_CASES = {
    "full/pareto-ga-4000": (4000, {}),
    "full/pareto-ga-multi-1000": (
        1000, {"objective": "multi:latency,energy"}),
    "slice8/pareto-ga-multi3-1000": (
        1000, {"objective": "multi:latency,energy,area"}),
}


#: Observed searches, ``name -> (method, budget, spec options)``, each run
#: in every group of ``generate_rl.py``'s ``OBSERVER_GROUPS`` (to the
#: budget, and stopped after 5 and after 37 evaluations): single genomes
#: (``sa``), level populations gathered from the ladder table (``ga``,
#: ``random``, ``pareto-ga``) and scored by the kernel when the ladder is
#: too big to tabulate (60 levels and 256 PEs under MIX give 86,400 rows,
#: over ``MAX_LADDER_ROWS``), and raw populations (``local-ga``, whose
#: memo leaves fewer scored designs than evaluations, hence its longer
#: budget).
OBSERVED_CASES = {
    "mix8-sa": ("sa", BUDGETS["sa"], GROUPS["mix8"]),
    "mix8-ga": ("ga", BUDGETS["ga"], GROUPS["mix8"]),
    "mix8-random": ("random", BUDGETS["random"], GROUPS["mix8"]),
    "slice8-pareto-ga": ("pareto-ga", BUDGETS["pareto-ga"],
                         {**GROUPS["slice8"], **OPTIONS["pareto-ga"]}),
    "slice8-local-ga": ("local-ga", LOCAL_GA_BUDGET, GROUPS["slice8"]),
    "ls8-local-ga": ("local-ga", LOCAL_GA_BUDGET, LOCAL_GA_GROUPS["ls8"]),
    "mix8-levels60-ga": ("ga", BUDGETS["ga"],
                         {**GROUPS["mix8"], "num_levels": 60,
                          "max_pes": 256}),
}


def case_names() -> List[str]:
    names = [f"{group}/{method}/seed{seed}"
             for seed in SEEDS for group in GROUPS for method in BUDGETS]
    names += [f"{group}/{LOCAL_GA}/seed{seed}"
              for seed in SEEDS for group in LOCAL_GA_GROUPS]
    names += [f"{group}/sa/seed{seed}"
              for seed in SEEDS for group in SA_GROUPS]
    names += [f"slice8/{LOCAL_GA_GLOBAL}/seed{seed}" for seed in SEEDS]
    names += [f"{case}/seed{seed}"
              for seed in SEEDS for case in PARETO_GA_CASES]
    names += [f"{group}/{name}/seed{seed}"
              for seed in SEEDS for group in harness.OBSERVER_GROUPS
              for name in OBSERVED_CASES]
    return names


def _global_crossover_result(seed: int):
    """``LocalGA(crossover_mode="global")`` on the 8-layer slice, seeded,
    bounded and budgeted as the registered ``local-ga`` runner does."""
    from repro.costmodel import CostModel
    from repro.ga import LocalGA
    from repro.search import SearchSpec

    task = SearchSpec(model=MODEL, method="local-ga",
                      **GROUPS["slice8"]).task()
    evaluator = task.make_evaluator(CostModel())
    space = evaluator.space
    ga = LocalGA(crossover_mode="global", seed=seed,
                 max_pes=max(space.pe_levels),
                 max_l1_bytes=2 * max(space.buf_levels))
    generations = ((LOCAL_GA_BUDGET - ga.population_size)
                   // (ga.population_size - ga.elite))
    initial = evaluator.decode_genome([0] * evaluator.genome_length)
    return ga.search(evaluator, initial, generations)


def run_case(key: str) -> dict:
    """Compute the pins of one case named as in :func:`case_names`."""
    from repro.search import SearchSession, SearchSpec

    group, method, seed_text = key.split("/")
    seed = int(seed_text[len("seed"):])
    pareto_case = PARETO_GA_CASES.get(f"{group}/{method}")
    observed = None
    if group in harness.OBSERVER_GROUPS:
        name, budget, options = OBSERVED_CASES[method]
        spec = SearchSpec(model=MODEL, method=name, budget=budget,
                          seed=seed, **options)
        observed, outcome = harness.observed_case(spec, group)
        result = outcome.result
        pareto_case = name == "pareto-ga"
    elif method == LOCAL_GA_GLOBAL:
        result = _global_crossover_result(seed)
    else:
        if pareto_case is not None:
            budget, options = pareto_case
            spec = SearchSpec(model=MODEL, method="pareto-ga",
                              budget=budget, seed=seed, **GROUPS[group],
                              **options)
        elif method == LOCAL_GA:
            spec = SearchSpec(model=MODEL, method="local-ga",
                              budget=LOCAL_GA_BUDGET, seed=seed,
                              **LOCAL_GA_GROUPS[group])
        else:
            options = GROUPS[group] if group in GROUPS else SA_GROUPS[group]
            spec = SearchSpec(model=MODEL, method=method,
                              budget=BUDGETS[method], seed=seed,
                              **options, **OPTIONS.get(method, {}))
        result = SearchSession(spec).run().result
    pinned = harness.summarize(result) if observed is None else observed
    pinned["best_genome"] = (None if result.best_genome is None
                             else [int(gene) for gene in result.best_genome])
    if pareto_case:
        front = json.dumps(result.extra["pareto_front"], sort_keys=True)
        pinned["front_sha256"] = hashlib.sha256(front.encode()).hexdigest()
    return pinned


def load() -> Dict[str, dict]:
    return harness.load(GOLDEN)


def main(argv=None) -> int:
    return harness.regenerate(GOLDEN, case_names(), run_case,
                              __doc__.splitlines()[0], argv)


if __name__ == "__main__":
    sys.exit(main())
