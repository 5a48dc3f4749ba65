"""Whole-design-point evaluation shared by every search method.

The RL environment steps layer by layer, but the baseline optimizers (grid /
random / SA / GA / Bayesian) and the stage-2 GA treat a complete per-layer
assignment -- a *genome* -- as one sample.  ``DesignPointEvaluator`` turns a
genome into (objective value, feasibility, report) under a platform or
resource constraint, counting evaluations so sample efficiency can be
compared across methods.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.constraints import PlatformConstraint, ResourceConstraint
from repro.costmodel.batched import (
    BATCH_STYLES,
    STYLE_INDEX,
    ConstraintFold,
    LadderTable,
    LayerTable,
    population_totals,
)
from repro.costmodel.estimator import CostModel, model_report
from repro.costmodel.report import ModelCostReport
from repro.env.spaces import ActionSpace
from repro.models.layers import Layer
from repro.objectives import CostTotals, resolve_objective

Constraint = Union[PlatformConstraint, ResourceConstraint]

#: A raw per-layer assignment: (pes, l1_bytes) or (pes, l1_bytes, style).
RawAssignment = Tuple


def raw_genome(assignments: Sequence[RawAssignment]) -> np.ndarray:
    """Raw assignments -> one ``(layers, 2)`` int64 array, or
    ``(layers, 3)`` with each style's :data:`STYLE_INDEX` code when the
    assignments carry styles (the stage-2 GA's genome)."""
    rows = []
    for assignment in assignments:
        if len(assignment) == 3:
            try:
                code = STYLE_INDEX[assignment[2]]
            except KeyError:
                raise KeyError(
                    f"unknown dataflow style {assignment[2]!r}; available: "
                    f"{', '.join(STYLE_INDEX)}"
                ) from None
            assignment = (assignment[0], assignment[1], code)
        elif len(assignment) != 2:
            raise ValueError(
                f"an assignment is (pes, l1_bytes[, style]), got "
                f"{assignment!r}"
            )
        if rows and len(assignment) != len(rows[0]):
            raise ValueError(
                "assignments must all carry a style or all omit it")
        rows.append(assignment)
    return np.array(rows, dtype=np.int64)


def raw_assignments(genome) -> Tuple[RawAssignment, ...]:
    """One raw genome -- a ``(layers, 2|3)`` array, or assignments as
    :func:`raw_genome` takes them -- as ``(pes, l1_bytes[, style])``
    tuples of Python ints, each style by name."""
    if not isinstance(genome, np.ndarray):
        genome = raw_genome(genome)
    rows = genome.tolist()
    if genome.shape[1] == 3:
        return tuple((pes, l1_bytes, BATCH_STYLES[code])
                     for pes, l1_bytes, code in rows)
    return tuple(map(tuple, rows))


@dataclass(frozen=True)
class EvalResult:
    """Outcome of evaluating one complete design point."""

    cost: float
    feasible: bool
    used: float
    report: ModelCostReport


class DesignPointEvaluator:
    """Evaluate complete genomes for a (model, objective, constraint) task.

    Args:
        layers: Target model.
        objective: Any objective spec -- a registered name
            ("latency" / "energy" / "edp" / ...), a ``weighted:`` /
            ``multi:`` string, a spec dict, or an
            :class:`repro.objectives.Objective` instance (minimized).
        constraint: Platform (area/power) or resource (FPGA) budget.
        cost_model: The analytical estimator.
        space: Action space for level-indexed genomes.
        dataflow: Default style when assignments carry none.
        deployment: "lp" (per-layer partitions) or "ls" (one shared point).

    The resolved :class:`~repro.objectives.Objective` is exposed as
    :attr:`objective`; multi-objective specs score ``EvalResult.cost``
    with their primary component (Pareto methods re-rank from the
    aggregate figures on each result's report).
    """

    def __init__(
        self,
        layers: Sequence[Layer],
        objective,
        constraint: Constraint,
        cost_model: CostModel,
        space: ActionSpace,
        dataflow: Optional[str] = None,
        deployment: str = "lp",
    ) -> None:
        if deployment not in ("lp", "ls"):
            raise ValueError("deployment must be 'lp' or 'ls'")
        if space.is_mix and dataflow is None:
            dataflow = space.dataflows[0]
        if not space.is_mix and dataflow is None:
            raise ValueError("a dataflow is required for non-MIX spaces")
        self.layers = list(layers)
        self.objective = resolve_objective(objective)
        self.constraint = constraint
        self.cost_model = cost_model
        self.space = space
        self.dataflow = dataflow
        self.deployment = deployment
        self.evaluations = 0
        #: Population rows that repeat an earlier row of the same
        #: population, counted for the record (``SearchResult.cache_hits``).
        #: Nothing is served from a memo: every row is scored, since
        #: gathering a repeat costs no more than finding it.
        self.cache_hits = 0
        #: An observed session's tracker (``None`` otherwise): every
        #: scored design is recorded with it, in ``_outcome`` (single
        #: designs) and ``_results`` (populations).
        self._tracker = None

    # ------------------------------------------------------------------
    @property
    def genome_length(self) -> int:
        """Genes per genome: 2N, or 3N under MIX (Section III-G)."""
        return len(self.layers) * self.space.actions_per_step

    def decode_genome(self, genome: Sequence[int]) -> List[RawAssignment]:
        """Level-index genome -> raw per-layer assignments."""
        if len(genome) != self.genome_length:
            raise ValueError(
                f"genome length {len(genome)} != expected "
                f"{self.genome_length}"
            )
        return self.space.decode_genes(genome)

    # ------------------------------------------------------------------
    def evaluate_genome(self, genome: Sequence[int]) -> EvalResult:
        """Evaluate a level-indexed genome."""
        return self.evaluate_raw(self.decode_genome(genome))

    def evaluate_raw(
        self, assignments: Sequence[RawAssignment]
    ) -> EvalResult:
        """Evaluate raw (pes, l1_bytes[, style]) per-layer assignments."""
        if self.deployment == "ls":
            pes, l1_bytes = assignments[0][0], assignments[0][1]
            style = (assignments[0][2] if len(assignments[0]) == 3
                     else self.dataflow)
            report = self.cost_model.evaluate_model_ls(
                self.layers, pes, l1_bytes, style)
        else:
            report = self.cost_model.evaluate_model(
                self.layers, assignments, dataflow=self.dataflow)
        return self._outcome(report, assignments)

    def evaluate_move(self, genome: Sequence[int], base: EvalResult,
                      layer: int) -> EvalResult:
        """Evaluate a level-indexed genome that differs from the one
        ``base`` scored only in layer ``layer``, re-pricing that layer.

        ``base``'s per-layer reports are copied, layer ``layer``'s is
        looked up again (:meth:`CostModel.evaluate_layer`, the same LRU
        as :meth:`evaluate_genome`) and the whole model is totalled by
        :func:`~repro.costmodel.estimator.model_report`, so the result
        equals ``evaluate_genome(genome)`` field for field and is counted
        and observed like it.  The genome is decoded whole, which
        validates every gene.  Under ``ls``, or from a ``base`` without
        per-layer reports (a population's), it is
        :meth:`evaluate_genome`.
        """
        reports = base.report.per_layer
        if self.deployment == "ls" or not reports:
            return self.evaluate_genome(genome)
        assignments = self.decode_genome(genome)
        moved = assignments[layer]
        style = moved[2] if len(moved) == 3 else self.dataflow
        reports = list(reports)
        reports[layer] = self.cost_model.evaluate_layer(
            self.layers[layer], style, moved[0], moved[1])
        return self._outcome(model_report(reports), assignments)

    def _outcome(self, report: ModelCostReport,
                 assignments: Sequence[RawAssignment]) -> EvalResult:
        """One scored design's result from its report: the budget check
        and the objective, counted and recorded with an observed
        session's tracker."""
        self.evaluations += 1
        used, feasible = self._check(report, assignments)
        result = EvalResult(
            cost=self.objective.evaluate(report),
            feasible=feasible,
            used=used,
            report=report,
        )
        if self._tracker is not None:
            self._tracker.record(result.cost, feasible,
                                 assignments_fn=lambda: assignments)
        return result

    # ------------------------------------------------------------------
    # Population (batched) evaluation
    # ------------------------------------------------------------------
    def evaluate_population(
        self, genomes: Sequence[Sequence[int]]
    ) -> List[EvalResult]:
        """Evaluate a whole population of level-index genomes as one batch.

        Each genome's per-layer figures are gathered from this task's
        :class:`~repro.costmodel.batched.LadderTable` (priced with one
        kernel call on first use) and totalled left to right; platform
        (area/power) and FPGA resource budgets are checked vectorized.  A
        ladder too big to tabulate is scored through the kernel instead,
        as raw populations are.  The returned costs, feasibility flags,
        and used-budget figures are bit-identical to calling
        :meth:`evaluate_genome` per genome; the per-result
        :class:`ModelCostReport` carries the aggregate figures with an
        empty ``per_layer`` list (population consumers only read the
        aggregates).
        """
        genomes = list(genomes)
        if not genomes:
            return []
        try:
            genes = np.asarray(genomes, dtype=np.int64)
        except ValueError:
            raise ValueError(
                f"population genomes must all have length "
                f"{self.genome_length}"
            ) from None
        if genes.ndim != 2 or genes.shape[1] != self.genome_length:
            raise ValueError(
                f"population genomes must all have length "
                f"{self.genome_length}, got shape {genes.shape}"
            )
        per_step = self.space.actions_per_step
        pe_idx = genes[:, 0::per_step]
        buf_idx = genes[:, 1::per_step]
        num_levels = self.space.num_levels
        if pe_idx.min() < 0 or pe_idx.max() >= num_levels:
            raise ValueError("PE level index out of range")
        if buf_idx.min() < 0 or buf_idx.max() >= num_levels:
            raise ValueError("buffer level index out of range")
        df_idx = None
        if self.space.is_mix:
            df_idx = genes[:, 2::per_step]
            if df_idx.min() < 0 or df_idx.max() >= len(self.space.dataflows):
                raise ValueError("dataflow index out of range")

        def decode(row):
            return self.decode_genome(genomes[row])

        ladder = self._ladder
        if ladder is None:
            pes, l1_bytes, style_idx = self._decode_levels(
                pe_idx, buf_idx, df_idx)
            return self._evaluate_population_arrays(pes, l1_bytes, style_idx,
                                                    decode)
        if self.deployment == "ls":
            # One shared design point runs every layer: gather each
            # genome's first assignment for the whole model.
            pe_idx, buf_idx = pe_idx[:, :1], buf_idx[:, :1]
            if df_idx is not None:
                df_idx = df_idx[:, :1]
        rows = ladder.rows(np.arange(len(self.layers), dtype=np.int64),
                           pe_idx, buf_idx, df_idx)
        self._charge(rows)
        totals = population_totals(ladder.gather(rows), self.deployment)
        if isinstance(self.constraint, PlatformConstraint):
            fold = ConstraintFold.of(totals, self.constraint.kind,
                                     self.constraint.budget)
            return self._results(totals, fold.used, fold.feasible, decode)
        pes, l1_bytes, _ = self._decode_levels(pe_idx, buf_idx, None)
        return self._results(totals, *self._resource_check(pes, l1_bytes),
                             decode)

    def evaluate_population_raw(self, populations) -> List[EvalResult]:
        """Batched :meth:`evaluate_raw` over many complete assignments.

        Used by the stage-2 GA, whose candidates live in the raw integer
        space rather than the level-index space, so they are scored by
        the kernel.  ``populations`` is one ``(G, layers, 2|3)`` integer
        array -- (pes, l1_bytes[, style code]) per layer, the GA's
        genomes stacked -- or a sequence of assignment lists, which is
        converted to that array by :func:`raw_genome`.  Genomes without
        a style column run this evaluator's dataflow.
        """
        if not isinstance(populations, np.ndarray):
            populations = list(populations)
            if not populations:
                return []
            for assignments in populations:
                self._check_layer_count(len(assignments))
            rows = raw_genome([assignment for assignments in populations
                               for assignment in assignments])
            populations = rows.reshape(len(populations), len(self.layers),
                                       -1)
        design = np.asarray(populations, dtype=np.int64)
        if design.ndim != 3 or design.shape[2] not in (2, 3):
            raise ValueError(
                f"a raw population is a (genomes, layers, 2|3) array, got "
                f"shape {design.shape}"
            )
        if not len(design):
            return []
        self._check_layer_count(design.shape[1])
        pes, l1_bytes = design[:, :, 0], design[:, :, 1]
        if design.shape[2] == 3:
            style_idx = design[:, :, 2]
            if style_idx.min() < 0 or style_idx.max() >= len(STYLE_INDEX):
                raise KeyError(
                    f"unknown dataflow style code; available: "
                    f"0..{len(STYLE_INDEX) - 1} ({', '.join(STYLE_INDEX)})"
                )
        else:
            style_idx = np.full(pes.shape, STYLE_INDEX[self.dataflow],
                                dtype=np.int64)
        return self._evaluate_population_arrays(
            pes, l1_bytes, style_idx, lambda row: raw_assignments(design[row]))

    def _check_layer_count(self, count: int) -> None:
        if count != len(self.layers):
            raise ValueError(
                f"got {len(self.layers)} layers but {count} assignments")

    @functools.cached_property
    def _ladder(self) -> Optional[LadderTable]:
        """This task's ladder table, built on first use; ``None`` (also
        cached) when the ladder has more than ``MAX_LADDER_ROWS`` rows."""
        return LadderTable.build(self.cost_model.batched, self._layer_table,
                                 self.space, self.dataflow)

    @functools.cached_property
    def _layer_table(self) -> LayerTable:
        return LayerTable.build(self.layers)

    def _decode_levels(self, pe_idx: np.ndarray, buf_idx: np.ndarray,
                       df_idx: Optional[np.ndarray]):
        """Level-index arrays -> (pes, l1_bytes, style_idx) arrays."""
        pes = np.asarray(self.space.pe_levels, dtype=np.int64)[pe_idx]
        l1_bytes = np.asarray(self.space.buf_levels, dtype=np.int64)[buf_idx]
        if df_idx is None:
            style_idx = np.full(pes.shape, STYLE_INDEX[self.dataflow],
                                dtype=np.int64)
        else:
            style_idx = np.asarray(
                [STYLE_INDEX[s] for s in self.space.dataflows],
                dtype=np.int64)[df_idx]
        return pes, l1_bytes, style_idx

    def _evaluate_population_arrays(
        self, pes: np.ndarray, l1_bytes: np.ndarray, style_idx: np.ndarray,
        decode: Callable[[int], Sequence[RawAssignment]]
    ) -> List[EvalResult]:
        """Kernel path: (G, N) design arrays -> per-genome results
        (``decode`` as for :meth:`_results`).

        Raw populations and ladders too big to tabulate come here.  Every
        row reaches the kernel; repeated rows are counted on
        :attr:`cache_hits`, not served from a memo.
        """
        population, num_layers = pes.shape
        if self.deployment == "ls":
            # One shared design point runs every layer: broadcast each
            # genome's first assignment across the model.
            pes = np.repeat(pes[:, :1], num_layers, axis=1)
            l1_bytes = np.repeat(l1_bytes[:, :1], num_layers, axis=1)
            style_idx = np.repeat(style_idx[:, :1], num_layers, axis=1)
        self._charge(np.concatenate((pes, l1_bytes, style_idx), axis=1))
        layer_idx = np.tile(np.arange(num_layers, dtype=np.int64),
                            population)
        batch = (self._layer_table, layer_idx, style_idx.reshape(-1),
                 pes.reshape(-1), l1_bytes.reshape(-1))
        constraint = self.constraint
        if isinstance(constraint, PlatformConstraint):
            fold = self.cost_model.batched.evaluate_constrained(
                *batch, self.deployment, constraint.kind, constraint.budget)
            return self._results(fold[:4], fold.used, fold.feasible, decode)
        figures = self.cost_model.batched.evaluate(*batch).figures()
        totals = population_totals(
            figures.reshape(4, population, num_layers), self.deployment)
        return self._results(totals, *self._resource_check(pes, l1_bytes),
                             decode)

    def _charge(self, design: np.ndarray) -> None:
        """Count a population of design rows, one per genome (equal rows
        for equal design points): each row is an evaluation, and each
        repeat of an earlier row a cache hit."""
        population = len(design)
        self.evaluations += population
        if population < 2:
            return
        # Cheap pre-check: equal rows hash equal, so a fully-unique hash
        # vector proves there is no repeat without paying the row sort
        # (wrapping int64 overflow is fine -- collisions only cost the
        # full count below).
        if len(np.unique(design @ self._row_mixer(design.shape[1]))) \
                < population:
            self.cache_hits += population - len(np.unique(design, axis=0))

    def _row_mixer(self, width: int) -> np.ndarray:
        """A fixed random int64 vector hashing design rows (seeded, so
        the count is deterministic across runs)."""
        mixer = getattr(self, "_mixer", None)
        if mixer is None or len(mixer) != width:
            mixer = np.random.default_rng(0x5EED).integers(
                np.iinfo(np.int64).min, np.iinfo(np.int64).max,
                size=width, dtype=np.int64)
            self._mixer = mixer
        return mixer

    def _resource_check(self, pes: np.ndarray, l1_bytes: np.ndarray
                        ) -> Tuple[np.ndarray, np.ndarray]:
        """Vectorized FPGA-cap check of (G, N) design arrays: (used,
        feasible) per genome, the rule of :meth:`_check`."""
        constraint = self.constraint
        if self.deployment == "ls":
            total_pes = pes[:, 0]
            total_l1 = pes[:, 0] * l1_bytes[:, 0]
        else:
            total_pes = pes.sum(axis=1)
            total_l1 = (pes * l1_bytes).sum(axis=1)
        feasible = ((total_pes <= constraint.max_pes)
                    & (total_l1 <= constraint.max_l1_bytes))
        return total_pes.astype(np.float64), feasible

    def _results(self, totals, used: np.ndarray, feasible: np.ndarray,
                 decode: Callable[[int], Sequence[RawAssignment]]
                 ) -> List[EvalResult]:
        """Per-genome results from ``(4, G)`` totals and budget checks,
        each recorded with an observed session's tracker; ``decode(row)``
        is row ``row``'s raw assignments, decoded only for a new best."""
        latency_total, energy_total, area_total, power_total = totals
        cost = np.asarray(self.objective.evaluate(CostTotals(
            latency_total, energy_total, area_total, power_total)),
            dtype=np.float64)
        # tolist() converts to native Python scalars in one pass, which is
        # markedly cheaper than per-element float() on numpy scalars.
        results: List[EvalResult] = []
        for lat, en, ar, po, co, fe, us in zip(
                latency_total.tolist(), energy_total.tolist(),
                area_total.tolist(), power_total.tolist(), cost.tolist(),
                feasible.tolist(), used.tolist()):
            results.append(EvalResult(
                cost=co,
                feasible=fe,
                used=us,
                report=ModelCostReport(
                    latency_cycles=lat,
                    energy_nj=en,
                    area_um2=ar,
                    power_mw=po,
                    per_layer=[],
                ),
            ))
        if self._tracker is not None:
            for row, result in enumerate(results):
                self._tracker.record(
                    result.cost, result.feasible,
                    assignments_fn=lambda row=row: decode(row))
        return results

    def _check(self, report: ModelCostReport,
               assignments: Sequence[RawAssignment]) -> Tuple[float, bool]:
        constraint = self.constraint
        if isinstance(constraint, ResourceConstraint):
            if self.deployment == "ls":
                total_pes = assignments[0][0]
                total_l1 = assignments[0][0] * assignments[0][1]
            else:
                total_pes = sum(a[0] for a in assignments)
                total_l1 = sum(a[0] * a[1] for a in assignments)
            feasible = (total_pes <= constraint.max_pes
                        and total_l1 <= constraint.max_l1_bytes)
            return float(total_pes), feasible
        used = report.constraint(constraint.kind)
        return used, used <= constraint.budget
