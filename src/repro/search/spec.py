"""The immutable run configuration behind every :class:`SearchSession`.

A :class:`SearchSpec` captures *everything* that determines a search run --
workload, platform, objective, dataflow, constraint kind, method, budget
and seed -- as one frozen dataclass, so a run can be named, logged,
compared, and reproduced from a single JSON document.  Two runs built from
equal specs produce bit-identical results.
"""

from __future__ import annotations

import json
import numbers
from dataclasses import asdict, dataclass, fields
from typing import Optional

from repro.experiments.tasks import TaskSpec
from repro.models.zoo import list_models
from repro.objectives import Objective, resolve_objective

#: The legacy scalar objective names (any registered objective name or
#: ``weighted:`` / ``multi:`` / dict spec is accepted as well; see
#: :mod:`repro.objectives`).
OBJECTIVES = ("latency", "energy", "edp")
DATAFLOWS = ("dla", "eye", "shi")
CONSTRAINT_KINDS = ("area", "power", "resource")
PLATFORMS = ("unlimited", "cloud", "iot", "iotx")
DEPLOYMENTS = ("lp", "ls")

#: Integer fields, mapped to their lower bound (``None`` allowed where
#: the field is optional).
_INT_FIELDS = {"budget": 1, "num_levels": 2, "max_pes": 1,
               "max_total_pes": 1, "max_total_l1": 1}
_OPTIONAL_INT_FIELDS = {"seed": 0, "layer_slice": 1, "finetune": 0,
                        "envs": 1}

_IN_PROCESS = "every batch is scored in-process; drop the field"

#: Removed fields -> (the values older documents carry, which
#: :meth:`SearchSpec.from_dict` drops; the error for any other value).
#: Documents written by 1.8 carry ``"nodes": null, "autotune": null``;
#: every 2.x document carries ``"kernel"``, and all of its exact
#: settings produced the batched engine's numbers.
_REMOVED_FIELDS = {
    "nodes": ((None,), "SearchSpec.nodes was removed in 2.0 (the "
                       f"distributed executor is gone); {_IN_PROCESS}"),
    "autotune": ((None,), "SearchSpec.autotune was removed in 2.0 "
                          "(adaptive shard planning is gone); "
                          f"{_IN_PROCESS}"),
    "kernel": ((None, "batched", "fused"),
               "SearchSpec.kernel was removed in 3.0 and only its exact "
               'settings (null, "batched", "fused") still load; float32 '
               '("fused32") results cannot be reproduced, so re-run the '
               "spec without the field"),
}

#: The execution knobs removed in 4.0, when the shard pool went.  Every
#: 3.x document carries them, and none of them ever changed a result, so
#: :meth:`SearchSpec.from_dict` drops them whatever they hold.
_EXECUTION_FIELDS = ("executor", "workers", "dispatch_min_batch",
                     "task_timeout_s")


@dataclass(frozen=True)
class SearchSpec:
    """A fully specified, serializable search run.

    Attributes:
        model: Workload-zoo name (kept to registry names so the spec stays
            serializable; pass explicit layer lists through
            :class:`repro.experiments.tasks.TaskSpec` instead).
        method: Registered search-method name (see
            :func:`repro.search.registry.list_methods`).
        objective: Any objective spec (minimized): a registered name
            ("latency" / "energy" / "edp" / "area" / "power" / custom),
            a compact ``weighted:latency=0.5,energy=0.5`` or
            ``multi:latency,energy`` string, a structured spec dict, or
            an :class:`repro.objectives.Objective` instance (stored as
            its JSON-safe spec, so serialization round-trips).
        dataflow: Fixed style, also used for constraint calibration under
            MIX.
        constraint_kind: "area" | "power" (Table II platform budgets) or
            "resource" (FPGA caps, Table VIII).
        platform: Table-II budget tier.
        budget: Search budget -- episodes for episodic-RL methods, whole
            design-point evaluations for genome-space methods, stage-1
            epochs for two-stage methods.
        seed: Master RNG seed handed to the method factory (``None`` draws
            fresh OS entropy; fix it for reproducible runs).
        mix: Per-layer dataflow co-automation (Section IV-D).
        num_levels: Coarse action levels L (Table I).
        max_pes: Top of the PE ladder.
        deployment: "lp" or "ls".  Only genome-space methods support
            "ls" (one design point shared by every layer); episodic and
            two-stage methods raise :class:`ValueError` when run under
            it, because their env assigns each layer its own point.
        max_total_pes / max_total_l1: FPGA caps when ``constraint_kind``
            is "resource".
        layer_slice: Restrict to the first N layers (None = full model).
        finetune: Stage-2 budget for two-stage methods, in LocalGA
            generations (20 initial designs, then up to 18 offspring per
            generation), not the design-point evaluations ``local-ga``'s
            ``budget`` counts; ``None`` means ``budget // 4``.  Ignored
            by single-stage methods.
        envs: Lockstep episode count for the episodic methods with a
            lockstep-wave path (a2c, acktr and ppo2): the agent rolls
            ``envs`` episodes per wave through a
            :class:`~repro.env.vector.VectorHWAssignmentEnv`, paying one
            batched cost call per layer step (PERFORMANCE.md's
            "Time-to-quality" table).  ``None`` means 1.  ``envs=1`` is
            bit-identical to scalar stepping; ``envs>1`` is a new
            reproducible scenario whose RNG stream is wave-major (one
            batched draw per action head per wave -- see API.md), so
            ``envs`` is part of the scenario identity, like ``seed``.
            The other episodic methods (reinforce, reinforce-mlp, ddpg,
            td3, sac) and the two-stage methods raise
            :class:`ValueError` at ``envs>1``; genome-space methods
            ignore it.

    Every field is validated at construction (a spec may arrive over the
    service wire): integer fields must be ``int`` (not ``bool``) within
    range, ``mix`` must be a ``bool``, and a violation raises
    :class:`ValueError`.
    """

    model: str
    method: str = "confuciux"
    objective: object = "latency"
    dataflow: str = "dla"
    constraint_kind: str = "area"
    platform: str = "iot"
    budget: int = 500
    seed: Optional[int] = 0
    mix: bool = False
    num_levels: int = 12
    max_pes: int = 128
    deployment: str = "lp"
    max_total_pes: int = 4096
    max_total_l1: int = 8192
    layer_slice: Optional[int] = None
    finetune: Optional[int] = None
    envs: Optional[int] = None

    def __post_init__(self) -> None:
        if not isinstance(self.model, str):
            raise TypeError(
                "SearchSpec.model must be a workload-zoo name (a str); "
                "use TaskSpec for explicit layer lists")
        if self.model not in list_models():
            raise ValueError(
                f"unknown model {self.model!r}; see repro.list_models()")
        if not isinstance(self.method, str):
            raise ValueError(
                f"method must be a registered method name (a str), got "
                f"{self.method!r}")
        if isinstance(self.objective, Objective):
            # Instances are stored as their JSON-safe spec so the frozen
            # dataclass stays serializable and comparable.
            object.__setattr__(self, "objective", self.objective.spec())
        try:
            resolve_objective(self.objective)
        except (KeyError, ValueError, TypeError) as error:
            raise ValueError(
                f"objective must be a registered objective name, a "
                f"weighted:/multi: spec, a spec dict, or an Objective "
                f"instance: {error}") from None
        for attribute, allowed in (("dataflow", DATAFLOWS),
                                   ("constraint_kind", CONSTRAINT_KINDS),
                                   ("platform", PLATFORMS),
                                   ("deployment", DEPLOYMENTS)):
            value = getattr(self, attribute)
            if value not in allowed:
                raise ValueError(
                    f"{attribute} must be one of {allowed}, got {value!r}")
        for attribute, low in _INT_FIELDS.items():
            self._check_int(attribute, low, optional=False)
        for attribute, low in _OPTIONAL_INT_FIELDS.items():
            self._check_int(attribute, low, optional=True)
        if not isinstance(self.mix, bool):
            raise ValueError(f"mix must be a bool, got {self.mix!r}")

    def _check_int(self, attribute: str, low: int, optional: bool) -> None:
        """Require ``attribute`` to be an integer ``>= low`` (or
        ``None`` when ``optional``); ``bool`` is not an integer here."""
        value = getattr(self, attribute)
        if value is None and optional:
            return
        if isinstance(value, bool) or not isinstance(value,
                                                     numbers.Integral):
            raise ValueError(
                f"{attribute} must be an int"
                f"{' or None' if optional else ''}, got {value!r}")
        if value < low:
            raise ValueError(f"{attribute} must be >= {low}, got {value!r}")
        # NumPy integers are accepted but stored as int so the spec
        # stays JSON-serializable.
        object.__setattr__(self, attribute, int(value))

    # ------------------------------------------------------------------
    def resolved_envs(self) -> int:
        """The effective lockstep episode count (``None`` means 1).
        This is *scenario-defining* for episodic methods when > 1: it
        changes which episodes are sampled (reproducibly, for a fixed
        seed)."""
        return 1 if self.envs is None else self.envs

    # ------------------------------------------------------------------
    @property
    def finetune_budget(self) -> int:
        """Resolved stage-2 budget in LocalGA generations: explicit
        ``finetune`` or ``budget//4``."""
        return self.budget // 4 if self.finetune is None else self.finetune

    def task(self) -> TaskSpec:
        """The equivalent :class:`TaskSpec` (env/evaluator construction)."""
        return TaskSpec(
            model=self.model, dataflow=self.dataflow,
            objective=self.objective, constraint_kind=self.constraint_kind,
            platform=self.platform, mix=self.mix,
            num_levels=self.num_levels, max_pes=self.max_pes,
            deployment=self.deployment, max_total_pes=self.max_total_pes,
            max_total_l1=self.max_total_l1, layer_slice=self.layer_slice)

    def __hash__(self) -> int:
        """Hash by canonical JSON: composite (dict) objective specs
        would otherwise make the frozen dataclass unhashable, breaking
        specs-as-keys dedup for exactly the richest runs.  ``sort_keys``
        keeps the hash consistent with field equality regardless of
        spec-dict key order."""
        return hash(json.dumps(self.to_dict(), sort_keys=True))

    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """A JSON-safe dict fully reconstructing this spec."""
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "SearchSpec":
        """Inverse of :meth:`to_dict`; rejects unknown keys.

        Older documents carry removed fields: ``"nodes"`` and
        ``"autotune"`` (``null`` before 2.0), ``"kernel"`` (2.x) and
        ``"executor"``, ``"workers"``, ``"dispatch_min_batch"`` and
        ``"task_timeout_s"`` (3.x).  Each is dropped when it holds a
        value the current engine reproduces exactly -- the 3.x knobs
        whatever they hold -- and rejected with a field-specific
        ``ValueError`` otherwise.
        """
        if not isinstance(data, dict):
            raise TypeError(
                f"a SearchSpec document must be a JSON object, got "
                f"{type(data).__name__}")
        data = dict(data)
        for name in _EXECUTION_FIELDS:
            data.pop(name, None)
        for name, (accepted, message) in _REMOVED_FIELDS.items():
            if name in data and data.pop(name) not in accepted:
                raise ValueError(message)
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown SearchSpec fields: {sorted(unknown)}")
        return cls(**data)

    def to_json(self, indent: Optional[int] = 2) -> str:
        """This spec as a JSON document."""
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_json(cls, document: str) -> "SearchSpec":
        """Rebuild a spec from :meth:`to_json` output."""
        return cls.from_dict(json.loads(document))
