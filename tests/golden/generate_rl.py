"""Golden pins for the RL search methods: writes ``tests/golden/rl.json``.

    PYTHONPATH=src python tests/golden/generate_rl.py          # rewrite
    PYTHONPATH=src python tests/golden/generate_rl.py --check  # diff only

Every case runs a small, seeded search and records absolute outputs --
best cost, best assignments, evaluation and episode counts, and a SHA-256
of the best-so-far history -- so a change that shifts a result shows up
even when every relative parity test (path A == path B) still passes.
Direct ``Reinforce`` and off-policy agent runs also pin a SHA-256 of the
final network parameter bytes, which covers the optimizer step exactly.
Observed sessions also pin whether an observer stopped them and a SHA-256
of every ``on_step`` and ``on_improvement`` call the observer received.
Two-stage sessions also pin the stage figures in ``result.extra``.

Regenerating the file is a reviewed act: the script prints every value
that changed, and a change that moves a pin must say why in CHANGES.md.
``tests/test_golden_rl.py`` compares a fresh run of every case with the
file, exactly.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path
from typing import Dict, List

import numpy as np

from repro.search.callbacks import SearchObserver

GOLDEN = Path(__file__).resolve().parent / "rl.json"
SEEDS = (0, 1)
MODEL = "mobilenet_v2"
SLICE = 8

#: (method, budget, finetune) run through SearchSession on the 8-layer
#: slice: every episodic and two-stage registered method.
SLICE_SESSIONS = (
    ("reinforce", 6, None), ("reinforce-mlp", 6, None), ("a2c", 6, None),
    ("acktr", 6, None), ("ppo2", 6, None), ("ddpg", 6, None),
    ("td3", 6, None), ("sac", 6, None), ("confuciux", 6, 2),
    ("confuciux-mlp", 6, 2),
)

#: Lockstep waves: every SLICE_SESSIONS method on the 8-layer slice at
#: ``envs=4`` and a budget of two full waves (finetunes as above).
ENVS = 4
ENVS_BUDGET = 8

#: The lockstep groups off the default IoT area budget: suffix ->
#: (constraint_kind, platform).  Power budgets are charged from the
#: wave's cost reports; FPGA caps (the default 4096 PEs, 8192 L1 bytes)
#: end most episodes part-way.
ENVS_CONSTRAINTS = {
    "power": ("power", "cloud"),
    "resource": ("resource", "iot"),
}

#: (name, method, mix, budget, finetune) on full MobileNet-V2, on the
#: cloud tier: at these budgets the IoT tier finds nothing feasible, and
#: an all-infeasible run pins little.
FULL_PLATFORM = "cloud"
FULL_SESSIONS = (
    ("reinforce", "reinforce", False, 3, None),
    ("confuciux", "confuciux", False, 3, 2),
    ("confuciux-mix", "confuciux", True, 3, 2),
)

#: Observed sessions on the 8-layer slice: name -> (method, budget,
#: finetune, spec options).  Group ``observed`` runs each to its budget
#: under a recording observer; groups ``stop5`` and ``stop37`` have the
#: observer stop it after that many steps.  They drive every episode
#: driver under observation: planned episodes (the IoT area budget and
#: FPGA caps), scalar steps (a power budget) and lockstep waves
#: (``envs=4``), standalone and as the two-stage global stage.
OBSERVED_SESSIONS = {
    "reinforce": ("reinforce", 40, None, {"envs": 1}),
    "reinforce-power": ("reinforce", 40, None,
                        {"envs": 1, "constraint_kind": "power",
                         "platform": "cloud"}),
    "reinforce-resource": ("reinforce", 40, None,
                           {"envs": 1, "constraint_kind": "resource"}),
    "reinforce-envs4": ("reinforce", 40, None, {"envs": ENVS}),
    "a2c-envs4": ("a2c", 40, None, {"envs": ENVS}),
    "ddpg-envs4": ("ddpg", 40, None, {"envs": ENVS}),
    "confuciux": ("confuciux", 40, 2, {"envs": 1}),
    "confuciux-envs4": ("confuciux", 40, 2, {"envs": ENVS}),
}

#: Two-stage sessions on the 8-layer slice at ``envs=1``: name ->
#: (method, spec options), each run at budget 20 with finetune 5.  They
#: cover both stages under the IoT area budget (planned episodes), a
#: power budget (scalar steps), FPGA caps (the default 4096 PEs, 8192 L1
#: bytes) and MIX calibrated on a style other than the default ``dla``.
TWO_STAGE_SESSIONS = {
    "confuciux": ("confuciux", {}),
    "confuciux-power": ("confuciux",
                        {"constraint_kind": "power", "platform": "cloud"}),
    "confuciux-resource": ("confuciux", {"constraint_kind": "resource"}),
    "confuciux-mix-eye": ("confuciux", {"mix": True, "dataflow": "eye"}),
    "confuciux-mlp": ("confuciux-mlp", {}),
}
TWO_STAGE_BUDGET = 20
TWO_STAGE_FINETUNE = 5

#: The stage figures a two-stage session reports in ``result.extra``.
TWO_STAGE_FIGURES = (
    "initial_valid_cost", "global_cost", "finetune_cost",
    "global_improvement", "finetune_improvement", "constraint_used",
    "constraint_budget",
)

#: Observer groups -> the step after which the observer stops the run
#: (``None``: never).
OBSERVER_GROUPS = {"observed": None, "stop5": 5, "stop37": 37}

#: Direct agent runs, pinning the final parameters: name -> (agent class
#: name, constructor options, task options, epochs).  The task is the
#: 8-layer slice unless its options name another ``layer_slice``;
#: ``reinforce-rnn-iot16`` is e2ebench's ``confuciux-mbv2-iot`` task
#: (16 layers, IoT area budget), whose episodes run up to 16 steps.
AGENTS = {
    "reinforce-rnn": ("Reinforce", {"policy": "rnn"}, {}, 8),
    "reinforce-rnn-iot16": ("Reinforce", {"policy": "rnn"},
                            {"layer_slice": 16, "platform": "iot"}, 12),
    "reinforce-rnn-mix": ("Reinforce", {"policy": "rnn"}, {"mix": True}, 8),
    "reinforce-rnn-power": ("Reinforce", {"policy": "rnn"},
                            {"constraint_kind": "power",
                             "platform": "cloud"}, 8),
    "reinforce-rnn-resource": ("Reinforce", {"policy": "rnn"},
                               {"constraint_kind": "resource"}, 8),
    "reinforce-mlp": ("Reinforce", {"policy": "mlp"}, {}, 8),
    "ddpg": ("DDPG", {"warmup_steps": 16, "batch_size": 8}, {}, 5),
    "td3": ("TD3", {"warmup_steps": 16, "batch_size": 8}, {}, 5),
    "sac": ("SAC", {"warmup_steps": 16, "batch_size": 8}, {}, 5),
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _history_sha(history) -> str:
    return _sha256(np.asarray(history, dtype=np.float64).tobytes())


def _assignments(assignments):
    if assignments is None:
        return None
    return [list(row) for row in assignments]


def summarize(result) -> dict:
    """The pinned fields of one :class:`~repro.rl.common.SearchResult`."""
    return {
        "best_cost": result.best_cost,
        "best_assignments": _assignments(result.best_assignments),
        "evaluations": result.evaluations,
        "episodes": result.episodes,
        "cache_hits": result.cache_hits,
        "history_sha256": _history_sha(result.history),
    }


class TraceObserver(SearchObserver):
    """Records every ``on_step`` and ``on_improvement`` call, and asks
    the session to stop once ``stop_at`` steps have run (if given)."""

    def __init__(self, stop_at=None) -> None:
        super().__init__()
        self.stop_at = stop_at
        self.calls = []

    def on_step(self, step, cost, best_cost):
        self.calls.append(["step", step, cost, best_cost])
        return self.stop_at is not None and step >= self.stop_at

    def on_improvement(self, step, best_cost, best_assignments):
        self.calls.append(["improvement", step, best_cost,
                           _assignments(best_assignments)])


def observed_case(spec, group: str):
    """Run ``spec`` under the observer of ``group`` (a key of
    :data:`OBSERVER_GROUPS`); returns the pins and the
    :class:`~repro.search.session.SessionResult`."""
    from repro.search import SearchSession

    observer = TraceObserver(OBSERVER_GROUPS[group])
    outcome = SearchSession(spec).run(callbacks=[observer])
    pinned = summarize(outcome.result)
    pinned["stopped_early"] = outcome.stopped_early
    pinned["trace_sha256"] = _sha256(json.dumps(observer.calls).encode())
    return pinned, outcome


def parameters_sha(modules) -> str:
    digest = hashlib.sha256()
    for module in modules:
        for parameter in module.parameters():
            digest.update(parameter.data.tobytes())
    return digest.hexdigest()


def _session_case(method: str, seed: int, budget: int, finetune,
                  **options) -> dict:
    from repro.search import SearchSession, SearchSpec

    spec = SearchSpec(model=MODEL, method=method, budget=budget, seed=seed,
                      finetune=finetune, **options)
    return summarize(SearchSession(spec).run().result)


def _agent_case(name: str, seed: int) -> dict:
    from repro import rl
    from repro.costmodel import CostModel
    from repro.experiments.tasks import TaskSpec
    from repro.nn.modules import Module

    cls_name, options, task_options, epochs = AGENTS[name]
    task = TaskSpec(model=MODEL, **{"layer_slice": SLICE, **task_options})
    cost_model = CostModel()
    env = task.make_env(cost_model, task.constraint(cost_model))
    agent = getattr(rl, cls_name)(seed=seed, **options)
    pinned = summarize(agent.search(env, epochs))
    # Every network the agent owns (policy, actor, critics, targets).
    networks = [value for _, value in sorted(vars(agent).items())
                if isinstance(value, Module)]
    pinned["parameters_sha256"] = parameters_sha(networks)
    return pinned


def case_names() -> List[str]:
    names = []
    for seed in SEEDS:
        names += [f"slice8/{method}/seed{seed}"
                  for method, _, _ in SLICE_SESSIONS]
        names += [f"envs{ENVS}/{method}/seed{seed}"
                  for method, _, _ in SLICE_SESSIONS]
        names += [f"envs{ENVS}-{suffix}/{method}/seed{seed}"
                  for suffix in ENVS_CONSTRAINTS
                  for method, _, _ in SLICE_SESSIONS]
        names += [f"full/{name}/seed{seed}"
                  for name, _, _, _, _ in FULL_SESSIONS]
        names += [f"agent/{name}/seed{seed}" for name in AGENTS]
        names += [f"{group}/{name}/seed{seed}"
                  for group in OBSERVER_GROUPS
                  for name in OBSERVED_SESSIONS]
        names += [f"two-stage/{name}/seed{seed}"
                  for name in TWO_STAGE_SESSIONS]
    return names


def run_case(key: str) -> dict:
    """Compute the pins of one case named as in :func:`case_names`."""
    group, name, seed_text = key.split("/")
    seed = int(seed_text[len("seed"):])
    if group == "slice8":
        _, budget, finetune = next(case for case in SLICE_SESSIONS
                                   if case[0] == name)
        return _session_case(name, seed, budget, finetune,
                             layer_slice=SLICE)
    if group.startswith(f"envs{ENVS}"):
        _, _, finetune = next(case for case in SLICE_SESSIONS
                              if case[0] == name)
        suffix = group[len(f"envs{ENVS}-"):]
        constraint = {}
        if suffix:
            kind, platform = ENVS_CONSTRAINTS[suffix]
            constraint = {"constraint_kind": kind, "platform": platform}
        return _session_case(name, seed, ENVS_BUDGET, finetune,
                             layer_slice=SLICE, envs=ENVS, **constraint)
    if group == "full":
        _, method, mix, budget, finetune = next(
            case for case in FULL_SESSIONS if case[0] == name)
        return _session_case(method, seed, budget, finetune, mix=mix,
                             platform=FULL_PLATFORM)
    if group == "agent":
        return _agent_case(name, seed)
    if group in OBSERVER_GROUPS:
        from repro.search import SearchSpec

        method, budget, finetune, options = OBSERVED_SESSIONS[name]
        spec = SearchSpec(model=MODEL, method=method, budget=budget,
                          seed=seed, finetune=finetune, layer_slice=SLICE,
                          **options)
        return observed_case(spec, group)[0]
    if group == "two-stage":
        from repro.search import SearchSession, SearchSpec

        method, options = TWO_STAGE_SESSIONS[name]
        spec = SearchSpec(model=MODEL, method=method,
                          budget=TWO_STAGE_BUDGET, seed=seed,
                          finetune=TWO_STAGE_FINETUNE, layer_slice=SLICE,
                          envs=1, **options)
        result = SearchSession(spec).run().result
        pinned = summarize(result)
        pinned.update({figure: result.extra[figure]
                       for figure in TWO_STAGE_FIGURES})
        return pinned
    raise KeyError(key)


def load(golden: Path = GOLDEN) -> Dict[str, dict]:
    return json.loads(golden.read_text()) if golden.exists() else {}


def render(pins: Dict[str, dict]) -> str:
    return json.dumps(pins, indent=1, sort_keys=True) + "\n"


def diff(old: Dict[str, dict], new: Dict[str, dict]) -> List[str]:
    lines = []
    for key in sorted(set(old) | set(new)):
        if key not in new:
            lines.append(f"- {key}")
        elif key not in old:
            lines.append(f"+ {key}")
        else:
            for field in sorted(set(old[key]) | set(new[key])):
                before, after = old[key].get(field), new[key].get(field)
                if before != after:
                    lines.append(f"~ {key} {field}: {before!r} -> {after!r}")
    return lines


def regenerate(golden: Path, names: List[str], run, description: str,
               argv=None) -> int:
    """The generator command line shared by every golden file: run each
    case, print the diff against ``golden``, and rewrite it (or, with
    ``--check``, exit 1 on any change)."""
    parser = argparse.ArgumentParser(description=description)
    parser.add_argument("--check", action="store_true",
                        help="print the diff and exit 1 on any change, "
                             "without writing the file")
    args = parser.parse_args(argv)
    new = {key: run(key) for key in names}
    changes = diff(load(golden), new)
    for line in changes:
        print(line)
    if args.check:
        return 1 if changes else 0
    if changes:
        golden.write_text(render(new))
        print(f"wrote {golden} ({len(changes)} change(s))")
    else:
        print("no change")
    return 0


def main(argv=None) -> int:
    return regenerate(GOLDEN, case_names(), run_case,
                      __doc__.splitlines()[0], argv)


if __name__ == "__main__":
    sys.exit(main())
