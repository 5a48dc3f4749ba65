"""Parity suite for the vectorized batched estimator.

The batched engine is engineered to be *bit-identical* to the scalar path
(same expression order, same integer semantics), so these tests assert
exact equality -- far stronger than the 1e-9 tolerance the engine
guarantees publicly.  Coverage spans all three dataflow styles, DWCONV
layers, MIX assignments, extreme layer geometries, LP and LS
deployments, both constraint kinds, the kernel's row independence, and
seeded end-to-end equivalence of every search method that routes
through the batch API.
"""

import dataclasses
import functools
import operator

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.constraints import ResourceConstraint, platform_constraint
from repro.core.evaluator import DesignPointEvaluator, raw_assignments
from repro.costmodel import (
    BATCH_STYLES,
    DEFAULT_HW,
    BatchedCostModel,
    CostModel,
    LayerTable,
    STYLE_INDEX,
)
from repro.costmodel.batched import (
    MAX_LADDER_ROWS,
    LadderTable,
    _single_layer_table,
    evaluate_batch_kernel,
    ordered_row_sum,
)
from repro.costmodel.report import BatchCostReport
from repro.env.spaces import ActionSpace
from repro.experiments import ls_study
from repro.ga import LocalGA
from repro.models import get_model, list_models
from repro.models.layers import Layer, LayerType
from repro.optim import BASELINE_OPTIMIZERS

REPORT_FIELDS = [f.name for f in dataclasses.fields(BatchCostReport)]
INT_FIELDS = ("pes_used", "l1_bytes_per_pe", "l2_bytes", "tile_k", "macs")


@pytest.fixture(scope="module")
def model_layers():
    """A MobileNet-V2 slice: CONV, DWCONV, and PWCONV layers."""
    return get_model("mobilenet_v2")[:10]


def assert_reports_equal(scalar, batched):
    for field in dataclasses.fields(scalar):
        a = getattr(scalar, field.name)
        b = getattr(batched, field.name)
        assert a == b, f"{field.name}: scalar {a!r} != batched {b!r}"


def assert_batches_identical(want: BatchCostReport,
                             got: BatchCostReport) -> None:
    for name in REPORT_FIELDS:
        a, b = getattr(want, name), getattr(got, name)
        assert a.dtype == b.dtype, f"{name}: dtype {a.dtype} != {b.dtype}"
        assert np.array_equal(a, b), f"{name}: values differ"


def tiled_batch(table: LayerTable, pop: int, seed: int):
    """A (pop x layers) lockstep MIX batch -- the layout searches emit."""
    num_layers = len(table)
    rng = np.random.default_rng(seed)
    n = pop * num_layers
    return (np.tile(np.arange(num_layers), pop),
            rng.integers(0, len(BATCH_STYLES), size=n),
            rng.integers(1, 600, size=n), rng.integers(1, 12_000, size=n))


# ----------------------------------------------------------------------
# Per-layer parity
# ----------------------------------------------------------------------
class TestLayerParity:
    @pytest.mark.parametrize("style", BATCH_STYLES)
    def test_exact_parity_all_styles(self, style, cost_model, tiny_model):
        """Every CostReport field matches exactly on a dense sweep across
        CONV, DWCONV, PWCONV, and GEMM layers."""
        pes = np.array([1, 2, 3, 7, 16, 64, 128, 500])
        l1 = np.array([1, 5, 19, 64, 129, 300, 2048, 9999])
        for layer in tiny_model:
            batch = cost_model.evaluate_layer_batch(
                layer, style, np.repeat(pes, len(l1)), np.tile(l1, len(pes)))
            i = 0
            for p in pes:
                for b in l1:
                    scalar = cost_model.evaluate_layer(layer, style,
                                                       int(p), int(b))
                    assert_reports_equal(scalar, batch.report(i))
                    i += 1

    def test_random_fuzz_parity(self, cost_model, model_layers):
        rng = np.random.default_rng(0)
        table = LayerTable.build(model_layers)
        n = 300
        layer_idx = rng.integers(0, len(model_layers), n)
        style_idx = rng.integers(0, len(BATCH_STYLES), n)
        pes = rng.integers(1, 300, n)
        l1 = rng.integers(1, 4000, n)
        batch = cost_model.batched.evaluate(table, layer_idx, style_idx,
                                            pes, l1)
        for i in range(n):
            scalar = cost_model.evaluate_layer(
                model_layers[layer_idx[i]], BATCH_STYLES[style_idx[i]],
                int(pes[i]), int(l1[i]))
            assert_reports_equal(scalar, batch.report(i))

    def test_objective_and_constraint_lookup(self, cost_model, conv_layer):
        batch = cost_model.evaluate_layer_batch(
            conv_layer, "dla", np.array([4, 8]), np.array([19, 39]))
        assert np.all(batch.objective("edp")
                      == batch.energy_nj * batch.latency_cycles)
        assert np.all(batch.constraint("area") == batch.area_um2)
        with pytest.raises(KeyError, match="objective"):
            batch.objective("nope")
        with pytest.raises(KeyError, match="constraint"):
            batch.constraint("nope")

    def test_rejects_bad_inputs(self, cost_model, conv_layer, tiny_model):
        table = LayerTable.build(tiny_model)
        ones = np.ones(2, dtype=np.int64)
        with pytest.raises(ValueError, match="pes"):
            cost_model.batched.evaluate(table, ones * 0, 0, ones * 0, ones)
        with pytest.raises(ValueError, match="l1_bytes"):
            cost_model.batched.evaluate(table, ones * 0, 0, ones, ones * 0)
        with pytest.raises(ValueError, match="style"):
            cost_model.batched.evaluate(table, ones * 0, 9, ones, ones)
        with pytest.raises(ValueError, match="layer_idx"):
            cost_model.batched.evaluate(table, ones * 99, 0, ones, ones)
        with pytest.raises(ValueError, match="empty"):
            cost_model.evaluate_layer_batch(conv_layer, "dla",
                                            np.array([], dtype=int),
                                            np.array([], dtype=int))
        with pytest.raises(ValueError, match="zero layers"):
            LayerTable.build([])


# ----------------------------------------------------------------------
# Extreme layer geometries
# ----------------------------------------------------------------------
EDGE_LAYERS = [
    # L1 smaller than one R*S window.
    Layer("tiny-l1", LayerType.CONV, K=8, C=4, Y=14, X=14, R=5, S=5),
    # 1x1 kernel (R=S=1): window math degenerates.
    Layer("one-by-one", LayerType.PWCONV, K=16, C=8, Y=7, X=7),
    # Depthwise with a single channel.
    Layer("dw-c1", LayerType.DWCONV, K=1, C=1, Y=14, X=14, R=3, S=3),
    # Single output channel.
    Layer("k1", LayerType.CONV, K=1, C=16, Y=7, X=7, R=3, S=3),
    # Wide layer for the overflow probe.
    Layer("wide", LayerType.CONV, K=512, C=512, Y=56, X=56, R=3, S=3),
]

EDGE_POINTS = [
    (1, 1),                  # minimum everything
    (1, 4),                  # l1 < R*S for the 5x5 layer
    (7, 24),                 # l1 < window+S edge for shi
    (2 ** 20, 2 ** 20),      # huge pes * l1: int64 headroom probe
]


class TestEdgeDims:
    @pytest.mark.parametrize("style", BATCH_STYLES)
    def test_scalar_and_batched_agree(self, style, cost_model):
        """The scalar oracle and the batched engine agree exactly on
        every edge geometry x design-point combination."""
        table = LayerTable.build(EDGE_LAYERS)
        points = np.array(EDGE_POINTS, dtype=np.int64)
        n_layers, n_points = len(EDGE_LAYERS), len(points)
        layer_idx = np.repeat(np.arange(n_layers), n_points)
        pes = np.tile(points[:, 0], n_layers)
        l1 = np.tile(points[:, 1], n_layers)
        batch = BatchedCostModel().evaluate(table, layer_idx,
                                            STYLE_INDEX[style], pes, l1)
        for i in range(len(layer_idx)):
            scalar = cost_model.evaluate_layer(
                EDGE_LAYERS[layer_idx[i]], style, int(pes[i]), int(l1[i]))
            for name in REPORT_FIELDS:
                assert getattr(scalar, name) == getattr(batch, name)[i], \
                    f"{name} @ {EDGE_LAYERS[layer_idx[i]].name} " \
                    f"pes={pes[i]} l1={l1[i]}"

    @pytest.mark.parametrize("style", BATCH_STYLES)
    def test_huge_products_stay_positive(self, style, cost_model):
        """pes * l1_bytes around 2**40 must not wrap int64 anywhere:
        every integer report field stays non-negative, the floats stay
        finite, and every row still equals the scalar oracle."""
        table = LayerTable.build(EDGE_LAYERS)
        n = len(EDGE_LAYERS)
        report = BatchedCostModel().evaluate(
            table, np.arange(n), STYLE_INDEX[style], np.full(n, 2 ** 20),
            np.full(n, 2 ** 20))
        for name in INT_FIELDS:
            assert (getattr(report, name) >= 0).all(), \
                f"{name} wrapped negative"
        assert (report.l2_bytes > 0).all()
        assert (report.macs > 0).all()
        assert np.isfinite(report.latency_cycles).all()
        assert np.isfinite(report.energy_nj).all()
        for i, layer in enumerate(EDGE_LAYERS):
            assert_reports_equal(
                cost_model.evaluate_layer(layer, style, 2 ** 20, 2 ** 20),
                report.report(i))


# ----------------------------------------------------------------------
# Row independence and bounded caches
# ----------------------------------------------------------------------
class TestShardInvariance:
    def test_worker_slice_matches_full_batch(self, model_layers):
        """Any slice of a tiled batch evaluates identically to the same
        slice of the full-batch result: the kernel is elementwise over
        the batch."""
        table = LayerTable.build(model_layers)
        batch = tiled_batch(table, pop=40, seed=11)
        full = evaluate_batch_kernel(DEFAULT_HW, table, *batch)
        lo, hi = 17, 391
        shard = evaluate_batch_kernel(DEFAULT_HW, table,
                                      *(a[lo:hi] for a in batch))
        for name in REPORT_FIELDS:
            assert np.array_equal(getattr(full, name)[lo:hi],
                                  getattr(shard, name)), name


class TestSingleTableCache:
    def test_single_layer_tables_bounded(self):
        """Regression: the per-layer table cache used to grow without
        bound under layer-sweep workloads."""
        model = BatchedCostModel()
        layers = [Layer(f"l{k}", LayerType.CONV, K=8 + k, C=8,
                        Y=7, X=7, R=3, S=3) for k in range(40)]
        for layer in layers:
            model.evaluate_layer_batch(layer, "dla",
                                       np.array([64]), np.array([512]))
        assert _single_layer_table.cache_info().currsize <= 16

    def test_scalar_inputs_promote_to_length_one(self, conv_layer):
        """Regression: 0-d pes / l1_bytes used to fail batch validation."""
        model = BatchedCostModel()
        for pes, l1 in [(64, 512), (np.int64(64), np.int64(512)),
                        (np.array(64), np.array(512))]:
            report = model.evaluate_layer_batch(conv_layer, "dla", pes, l1)
            assert len(report) == 1
        vector = model.evaluate_layer_batch(conv_layer, "dla",
                                            np.array([64]),
                                            np.array([512]))
        scalar = model.evaluate_layer_batch(conv_layer, "dla", 64, 512)
        assert_batches_identical(vector, scalar)


# ----------------------------------------------------------------------
# evaluate_constrained: the population reduction under a platform budget
# ----------------------------------------------------------------------
class TestConstraintFold:
    @pytest.mark.parametrize("deployment", ["lp", "ls"])
    @pytest.mark.parametrize("kind", ["area", "power"])
    def test_fold_matches_two_step_post_pass(self, model_layers,
                                             deployment, kind):
        """Every folded number equals reducing :meth:`evaluate`'s report
        by hand, bit for bit."""
        table = LayerTable.build(model_layers)
        model = BatchedCostModel()
        pop, num_layers = 17, len(table)
        batch = tiled_batch(table, pop=pop, seed=43)
        budget = 5e8 if kind == "area" else 5e3
        fold = model.evaluate_constrained(table, *batch, deployment, kind,
                                          budget)
        report = model.evaluate(table, *batch)
        area = report.area_um2.reshape(pop, num_layers)
        power = report.power_mw.reshape(pop, num_layers)
        if deployment == "ls":
            area_total = area.max(axis=1)
            power_total = power.max(axis=1)
        else:
            area_total = ordered_row_sum(area)
            power_total = ordered_row_sum(power)
        used = area_total if kind == "area" else power_total
        for got, want in [
                (fold.latency_total, ordered_row_sum(
                    report.latency_cycles.reshape(pop, num_layers))),
                (fold.energy_total, ordered_row_sum(
                    report.energy_nj.reshape(pop, num_layers))),
                (fold.area_total, area_total),
                (fold.power_total, power_total),
                (fold.used, used),
                (fold.feasible, used <= budget)]:
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)

    def test_fold_layout_check(self, model_layers):
        """A batch outside the tiled population layout is refused, never
        mis-reduced."""
        table = LayerTable.build(model_layers)
        batch = tiled_batch(table, pop=5, seed=47)
        scrambled = batch[0].copy()
        scrambled[0] = 1
        with pytest.raises(ValueError, match="tiled population layout"):
            BatchedCostModel().evaluate_constrained(
                table, scrambled, *batch[1:], "lp", "area", 1e9)


# ----------------------------------------------------------------------
# ordered_row_sum: the scalar path's left-to-right totals
# ----------------------------------------------------------------------
@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), rows=st.integers(1, 200),
       columns=st.integers(1, 80),
       layout=st.sampled_from(["C", "F", "reversed"]),
       signed=st.booleans())
def test_ordered_row_sum_is_the_sequential_sum(seed, rows, columns, layout,
                                               signed):
    """Every row total equals a left-to-right fold over the row, bit for
    bit, for magnitudes from 1e-6 to 1e12 in any memory order.  The fold
    is spelled out: from Python 3.12 ``sum()`` compensates its float
    additions and is no sequential reference."""
    rng = np.random.default_rng(seed)
    values = 10.0 ** rng.uniform(-6, 12, size=(rows, columns))
    if signed:
        values *= rng.choice([-1.0, 1.0], size=values.shape)
    if layout == "F":
        values = np.asfortranarray(values)
    elif layout == "reversed":
        values = np.ascontiguousarray(values[::-1, ::-1])[::-1, ::-1]
    want = np.array([functools.reduce(operator.add, row, 0.0)
                     for row in values.tolist()])
    got = np.ascontiguousarray(ordered_row_sum(values))
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


# ----------------------------------------------------------------------
# Ladder tables: the level-indexed design space, priced once
# ----------------------------------------------------------------------
class TestLadderTable:
    @pytest.mark.parametrize("mix", [False, True])
    def test_every_entry_is_the_scalar_estimate(self, mix, cost_model):
        """Rows run layer by layer, then style, PE level and buffer
        level; each holds ``evaluate_layer``'s four figures exactly."""
        layers = get_model("mobilenet_v2")[:8]
        space = ActionSpace.build("dla", mix=mix)
        ladder = LadderTable.build(BatchedCostModel(),
                                   LayerTable.build(layers), space,
                                   None if mix else "dla")
        styles = BATCH_STYLES if mix else ("dla",)
        levels = space.num_levels
        assert ladder.figures.shape == (
            4, len(layers) * len(styles) * levels * levels)
        assert ladder.figures.shape[1] == (3456 if mix else 1152)
        row = 0
        for layer_index, layer in enumerate(layers):
            for style in styles:
                gene = space.dataflows.index(style) if mix else None
                for i, pes in enumerate(space.pe_levels):
                    for j, l1_bytes in enumerate(space.buf_levels):
                        report = cost_model.evaluate_layer(
                            layer, style, pes, l1_bytes)
                        assert ladder.rows(layer_index, i, j, gene) == row
                        assert ladder.figures[:, row].tolist() == [
                            report.latency_cycles, report.energy_nj,
                            report.area_um2, report.power_mw]
                        row += 1

    def test_gather_keeps_the_row_shape(self):
        layers = get_model("mobilenet_v2")[:3]
        ladder = LadderTable.build(BatchedCostModel(),
                                   LayerTable.build(layers),
                                   ActionSpace.build("dla"), "dla")
        rows = np.array([[0, 5, 300], [7, 7, 7]])
        gathered = ladder.gather(rows)
        assert gathered.shape == (4, 2, 3)
        assert np.array_equal(gathered[:, 1, 2], ladder.figures[:, 7])

    def test_every_zoo_model_fits_at_the_papers_ladder(self):
        mix = ActionSpace.build(mix=True)
        for name in list_models():
            rows = len(get_model(name)) * len(BATCH_STYLES) \
                * mix.num_levels ** 2
            assert rows <= MAX_LADDER_ROWS, name

    @pytest.mark.parametrize("deployment", ["lp", "ls"])
    @pytest.mark.parametrize("resource", [False, True])
    def test_oversized_ladder_scores_through_the_kernel(
            self, cost_model, monkeypatch, deployment, resource):
        """A 64-level MIX ladder on full MobileNet-V2 is 638,976 rows:
        no table is built (the ladder is sized once, not per
        population), and populations still score exactly as
        ``evaluate_genome`` does."""
        layers = get_model("mobilenet_v2")
        space = ActionSpace.build(num_levels=64, max_pes=256, mix=True)
        assert len(layers) * len(BATCH_STYLES) * 64 ** 2 == 638_976
        if resource:
            constraint = ResourceConstraint(max_pes=4000,
                                            max_l1_bytes=2_000_000)
        else:
            constraint = platform_constraint(layers, "dla", "area",
                                             "cloud", cost_model, space)
        evaluator = DesignPointEvaluator(layers, "latency", constraint,
                                         cost_model, space,
                                         deployment=deployment)
        assert LadderTable.build(cost_model.batched, LayerTable.build(
            layers), space) is None
        batch_rows = []
        evaluate = BatchedCostModel.evaluate

        def spy(self, table, layer_idx, *args):
            batch_rows.append(len(layer_idx))
            return evaluate(self, table, layer_idx, *args)

        monkeypatch.setattr(BatchedCostModel, "evaluate", spy)
        builds = []
        build = LadderTable.build

        def counting_build(*args):
            builds.append(build(*args))
            return builds[-1]

        monkeypatch.setattr(LadderTable, "build", counting_build)
        genomes = _random_genomes(np.random.default_rng(5), space,
                                  len(layers), 6)
        outcomes = evaluator.evaluate_population(genomes)
        assert evaluator.evaluate_population(genomes[:2]) == outcomes[:2]
        assert builds == [None]
        assert max(batch_rows, default=0) <= len(genomes) * len(layers)
        for genome, outcome in zip(genomes, outcomes):
            scalar = evaluator.evaluate_genome(genome)
            assert outcome.cost == scalar.cost
            assert outcome.feasible == scalar.feasible
            assert outcome.used == scalar.used
            assert outcome.report.area_um2 == scalar.report.area_um2
            assert outcome.report.power_mw == scalar.report.power_mw


# ----------------------------------------------------------------------
# Whole-model / population parity
# ----------------------------------------------------------------------
def _constraints(layers, cost_model):
    space = ActionSpace.build("dla")
    return [
        platform_constraint(layers, "dla", "area", "iot", cost_model, space),
        platform_constraint(layers, "dla", "power", "cloud", cost_model,
                            space),
        ResourceConstraint(max_pes=250, max_l1_bytes=30_000),
        platform_constraint(layers, "dla", "area", "cloud", cost_model,
                            space),
    ]


def _random_genomes(rng, space, num_layers, count):
    genomes = []
    for _ in range(count):
        genome = []
        for _ in range(num_layers):
            genome.append(int(rng.integers(space.num_levels)))
            genome.append(int(rng.integers(space.num_levels)))
            if space.is_mix:
                genome.append(int(rng.integers(len(space.dataflows))))
        genomes.append(genome)
    return genomes


def assert_array_form_matches(make_evaluator, populations, genomes):
    """A raw population scores the same as assignment lists and as one
    ``(G, layers, 2|3)`` array, on fresh evaluators: cost, feasibility,
    used budget and the repeat count."""
    by_tuples, by_array = make_evaluator(), make_evaluator()
    want = by_tuples.evaluate_population_raw(populations)
    got = by_array.evaluate_population_raw(genomes)
    assert [(o.cost, o.feasible, o.used) for o in got] \
        == [(o.cost, o.feasible, o.used) for o in want]
    assert by_array.cache_hits == by_tuples.cache_hits > 0
    assert by_array.evaluations == by_tuples.evaluations == len(genomes)


class TestPopulationParity:
    @pytest.mark.parametrize("mix", [False, True])
    @pytest.mark.parametrize("deployment", ["lp", "ls"])
    @pytest.mark.parametrize("objective", ["latency", "energy", "edp"])
    def test_population_matches_scalar(self, mix, deployment, objective,
                                       cost_model, model_layers):
        """evaluate_population == per-genome evaluate_genome, exactly,
        across MIX/fixed styles, LP/LS deployments, every objective, and
        both constraint kinds."""
        rng = np.random.default_rng(42)
        space = ActionSpace.build("dla", mix=mix)
        for constraint in _constraints(model_layers, cost_model):
            evaluator = DesignPointEvaluator(
                model_layers, objective, constraint, cost_model, space,
                dataflow=None if mix else "dla", deployment=deployment)
            genomes = _random_genomes(rng, space, len(model_layers), 25)
            batched = evaluator.evaluate_population(genomes)
            for genome, outcome in zip(genomes, batched):
                scalar = evaluator.evaluate_genome(genome)
                assert outcome.cost == scalar.cost
                assert outcome.feasible == scalar.feasible
                assert outcome.used == scalar.used
                assert (outcome.report.latency_cycles
                        == scalar.report.latency_cycles)
                assert outcome.report.energy_nj == scalar.report.energy_nj
                assert outcome.report.area_um2 == scalar.report.area_um2
                assert outcome.report.power_mw == scalar.report.power_mw

    def test_population_raw_mix_assignments(self, cost_model, model_layers):
        """Raw assignments carrying explicit per-layer styles (the MIX
        genome format of the stage-2 GA)."""
        rng = np.random.default_rng(3)
        space = ActionSpace.build(mix=True)
        constraint = _constraints(model_layers, cost_model)[0]
        evaluator = DesignPointEvaluator(
            model_layers, "latency", constraint, cost_model, space)
        populations = [
            [(int(rng.integers(1, 128)), int(rng.integers(1, 2048)),
              BATCH_STYLES[int(rng.integers(3))])
             for _ in model_layers]
            for _ in range(12)
        ]
        batched = evaluator.evaluate_population_raw(populations)
        for assignments, outcome in zip(populations, batched):
            scalar = evaluator.evaluate_raw(assignments)
            assert outcome.cost == scalar.cost
            assert outcome.feasible == scalar.feasible
            assert outcome.used == scalar.used
        codes = np.array([[(pes, l1_bytes, STYLE_INDEX[style])
                           for pes, l1_bytes, style in assignments]
                          for assignments in populations + populations[:3]])
        assert_array_form_matches(
            lambda: DesignPointEvaluator(model_layers, "latency", constraint,
                                         cost_model, space),
            populations + populations[:3], codes)

    @pytest.mark.parametrize("deployment", ["lp", "ls"])
    def test_population_raw_pairs(self, cost_model, model_layers,
                                  deployment):
        """(pes, l1_bytes) pairs -- the fixed-dataflow stage-2 genome
        format -- under every constraint."""
        rng = np.random.default_rng(4)
        space = ActionSpace.build("dla")
        populations = [
            [(int(rng.integers(1, 128)), int(rng.integers(1, 2048)))
             for _ in model_layers]
            for _ in range(12)
        ]
        # Repeats, and (under ls) rows sharing only the first assignment.
        repeated = populations + populations[:2] + [
            populations[2][:1] + populations[3][1:]]
        for constraint in _constraints(model_layers, cost_model):
            def make_evaluator(constraint=constraint):
                return DesignPointEvaluator(
                    model_layers, "edp", constraint, cost_model, space,
                    dataflow="dla", deployment=deployment)

            evaluator = make_evaluator()
            batched = evaluator.evaluate_population_raw(populations)
            for assignments, outcome in zip(populations, batched):
                scalar = evaluator.evaluate_raw(assignments)
                assert outcome.cost == scalar.cost
                assert outcome.feasible == scalar.feasible
                assert outcome.used == scalar.used
            assert_array_form_matches(make_evaluator, repeated,
                                      np.array(repeated))

    def test_population_raw_rejects_bad_assignments(self, cost_model,
                                                    model_layers):
        space = ActionSpace.build(mix=True)
        constraint = _constraints(model_layers, cost_model)[0]
        evaluator = DesignPointEvaluator(
            model_layers, "latency", constraint, cost_model, space)
        pair = (8, 64)
        with pytest.raises(ValueError, match="layers but"):
            evaluator.evaluate_population_raw(
                [[pair] * len(model_layers), [pair]])
        with pytest.raises(ValueError, match="layers but"):
            evaluator.evaluate_population_raw([[pair]] * 3)
        with pytest.raises(KeyError, match="unknown dataflow style"):
            evaluator.evaluate_population_raw(
                [[(8, 64, "tpu")] * len(model_layers)])
        layers = len(model_layers)
        mixed = [pair] * (layers - 1) + [(8, 64, "dla")]
        for rows in ([(8,)] * layers, mixed):
            with pytest.raises(ValueError, match="assignment"):
                evaluator.evaluate_population_raw([rows])
        # The array form: wrong layer count, row width and style code.
        with pytest.raises(ValueError, match="layers but"):
            evaluator.evaluate_population_raw(
                np.full((3, layers - 1, 2), 8, dtype=np.int64))
        for shape in [(3, layers, 1), (3, layers, 4), (3, layers)]:
            with pytest.raises(ValueError, match="raw population is a"):
                evaluator.evaluate_population_raw(
                    np.full(shape, 8, dtype=np.int64))
        for code in (-1, len(STYLE_INDEX)):
            genomes = np.full((3, layers, 3), 8, dtype=np.int64)
            genomes[1, -1, 2] = code
            with pytest.raises(KeyError, match="unknown dataflow style"):
                evaluator.evaluate_population_raw(genomes)
        assert evaluator.evaluations == 0

    def test_empty_population(self, cost_model, model_layers):
        space = ActionSpace.build("dla")
        constraint = _constraints(model_layers, cost_model)[0]
        evaluator = DesignPointEvaluator(
            model_layers, "latency", constraint, cost_model, space,
            dataflow="dla")
        assert evaluator.evaluate_population([]) == []
        assert evaluator.evaluate_population_raw([]) == []
        assert evaluator.evaluations == 0

    def test_population_counts_evaluations(self, cost_model, model_layers):
        space = ActionSpace.build("dla")
        constraint = _constraints(model_layers, cost_model)[0]
        evaluator = DesignPointEvaluator(
            model_layers, "latency", constraint, cost_model, space,
            dataflow="dla")
        genomes = _random_genomes(np.random.default_rng(0), space,
                                  len(model_layers), 7)
        evaluator.evaluate_population(genomes)
        assert evaluator.evaluations == 7

    def test_population_rejects_bad_genomes(self, cost_model, model_layers):
        space = ActionSpace.build("dla")
        constraint = _constraints(model_layers, cost_model)[0]
        evaluator = DesignPointEvaluator(
            model_layers, "latency", constraint, cost_model, space,
            dataflow="dla")
        with pytest.raises(ValueError, match="length"):
            evaluator.evaluate_population([[0, 0]])
        bad = [0] * evaluator.genome_length
        bad[0] = space.num_levels
        with pytest.raises(ValueError, match="PE level"):
            evaluator.evaluate_population([bad])


# ----------------------------------------------------------------------
# Model-level study helpers
# ----------------------------------------------------------------------
class TestStudyParity:
    def test_layer_contour_matches_scalar(self, cost_model, model_layers):
        space = ActionSpace.build("dla")
        layer = model_layers[4]
        grid = ls_study.layer_contour(layer, "dla", "latency", cost_model,
                                      space)
        for pe_idx, pes in enumerate(space.pe_levels):
            for buf_idx, l1_bytes in enumerate(space.buf_levels):
                report = cost_model.evaluate_layer(layer, "dla", pes,
                                                   l1_bytes)
                assert grid[pe_idx, buf_idx] == report.latency_cycles

    def test_uniform_sweep_matches_uniform_cost(self, cost_model,
                                                model_layers):
        space = ActionSpace.build("dla")
        for objective in ("latency", "energy", "edp"):
            grid = ls_study.uniform_sweep(model_layers, "dla", objective,
                                          cost_model, space)
            for pe_idx in (0, 5, 11):
                for buf_idx in (0, 5, 11):
                    expected = ls_study.uniform_cost(
                        model_layers, "dla", objective, cost_model,
                        space.pe_levels[pe_idx], space.buf_levels[buf_idx])
                    assert grid[pe_idx, buf_idx] == expected


# ----------------------------------------------------------------------
# Seeded end-to-end search equivalence through the batch path
# ----------------------------------------------------------------------
class ScalarEvaluator(DesignPointEvaluator):
    """The scalar reference: populations scored one genome at a time
    through ``evaluate_genome`` / ``evaluate_raw``."""

    def evaluate_population(self, genomes):
        return [self.evaluate_genome(genome) for genome in genomes]

    def evaluate_population_raw(self, genomes):
        return [self.evaluate_raw(raw_assignments(genome))
                for genome in genomes]


class TestSearchEquivalence:
    @pytest.mark.parametrize("name", sorted(BASELINE_OPTIMIZERS))
    def test_baseline_batch_equals_scalar(self, name, cost_model,
                                          model_layers):
        """Every baseline optimizer returns identical best costs, genomes,
        and convergence histories through the batch path."""
        space = ActionSpace.build("dla")
        constraint = _constraints(model_layers, cost_model)[0]

        def run(evaluator_class):
            evaluator = evaluator_class(
                model_layers, "latency", constraint, cost_model, space,
                dataflow="dla")
            optimizer = BASELINE_OPTIMIZERS[name](seed=11)
            return optimizer.search(evaluator, 60)

        batched = run(DesignPointEvaluator)
        scalar = run(ScalarEvaluator)
        assert batched.best_cost == scalar.best_cost
        assert batched.best_genome == scalar.best_genome
        assert batched.history == scalar.history
        assert batched.evaluations == scalar.evaluations

    def test_local_ga_batch_equals_scalar(self, cost_model, model_layers):
        space = ActionSpace.build("dla")
        constraint = _constraints(model_layers, cost_model)[0]

        def run(evaluator_class):
            evaluator = evaluator_class(
                model_layers, "latency", constraint, cost_model, space,
                dataflow="dla")
            seed_assignments = evaluator.decode_genome(
                [2, 2] * len(model_layers))
            ga = LocalGA(population_size=10, seed=9)
            return ga.search(evaluator, seed_assignments, generations=15)

        batched = run(DesignPointEvaluator)
        scalar = run(ScalarEvaluator)
        assert batched.best_cost == scalar.best_cost
        assert batched.best_assignments == scalar.best_assignments
        assert batched.history == scalar.history
        # evaluations keeps sample-count semantics regardless of the memo.
        assert batched.evaluations == scalar.evaluations

    def test_local_ga_memo_skips_duplicate_offspring(self, cost_model,
                                                     model_layers):
        """With the paper's low mutation rate, elitism breeds duplicate
        offspring; the memo must serve them without estimator calls."""
        space = ActionSpace.build("dla")
        constraint = _constraints(model_layers, cost_model)[0]
        evaluator = DesignPointEvaluator(
            model_layers, "latency", constraint, cost_model, space,
            dataflow="dla")
        seed_assignments = evaluator.decode_genome(
            [2, 2] * len(model_layers))
        ga = LocalGA(population_size=10, mutation_rate=0.02,
                     crossover_rate=0.0, seed=1)
        result = ga.search(evaluator, seed_assignments, generations=20)
        assert result.cache_hits > 0
        # ``evaluations`` reports all fitness samples (memo hits
        # included); only the difference reached the estimator.
        total_lookups = 10 + 20 * (10 - ga.elite)
        assert result.evaluations == total_lookups
        assert evaluator.evaluations == total_lookups - result.cache_hits


# ----------------------------------------------------------------------
# Repeated design points: scored like any other, counted on cache_hits
# ----------------------------------------------------------------------
class TestPopulationDedup:
    def _evaluator(self, cost_model, model_layers, deployment="lp"):
        space = ActionSpace.build("dla")
        constraint = _constraints(model_layers, cost_model)[0]
        return DesignPointEvaluator(model_layers, "latency", constraint,
                                    cost_model, space, dataflow="dla",
                                    deployment=deployment)

    @pytest.mark.parametrize("deployment", ["lp", "ls"])
    def test_duplicates_bit_identical_and_counted(self, cost_model,
                                                  model_layers,
                                                  deployment):
        """A population with duplicate rows returns exactly the per-genome
        scalar results while the repeats are counted on ``cache_hits``."""
        evaluator = self._evaluator(cost_model, model_layers, deployment)
        reference = self._evaluator(cost_model, model_layers, deployment)
        rng = np.random.default_rng(0)
        space = evaluator.space
        unique = _random_genomes(rng, space, len(model_layers), 6)
        population = unique + unique[:4] + [unique[2]]
        outcomes = evaluator.evaluate_population(population)
        assert evaluator.cache_hits == 5
        # the budget currency still charges the full population
        assert evaluator.evaluations == len(population)
        for genome, outcome in zip(population, outcomes):
            scalar = reference.evaluate_genome(genome)
            assert outcome.cost == scalar.cost
            assert outcome.feasible == scalar.feasible
            assert outcome.used == scalar.used
            assert outcome.report.latency_cycles \
                == scalar.report.latency_cycles

    def test_ls_repeats_are_first_assignment_repeats(self, cost_model,
                                                     model_layers):
        """Under ``ls`` one shared design point runs every layer, so
        genomes that differ only after their first assignment repeat."""
        evaluator = self._evaluator(cost_model, model_layers, "ls")
        genome = [3, 4] * len(model_layers)
        other = genome[:2] + [0, 0] * (len(model_layers) - 1)
        first, second = evaluator.evaluate_population([genome, other])
        assert evaluator.cache_hits == 1
        assert first == second

    def test_all_unique_population_untouched(self, cost_model,
                                             model_layers):
        evaluator = self._evaluator(cost_model, model_layers)
        rng = np.random.default_rng(1)
        genomes = _random_genomes(rng, evaluator.space,
                                  len(model_layers), 8)
        evaluator.evaluate_population(genomes)
        assert evaluator.cache_hits == 0

    def test_raw_population_dedups_too(self, cost_model, model_layers):
        evaluator = self._evaluator(cost_model, model_layers)
        assignments = evaluator.decode_genome([3, 3] * len(model_layers))
        outcomes = evaluator.evaluate_population_raw(
            [assignments, assignments, assignments])
        assert evaluator.cache_hits == 2
        assert len({o.cost for o in outcomes}) == 1

    def test_genome_optimizer_reports_cache_hits(self, cost_model,
                                                 model_layers):
        """Elitist GA generations re-breed duplicates; the search result
        surfaces how many repeats the evaluator counted."""
        evaluator = self._evaluator(cost_model, model_layers)
        ga = BASELINE_OPTIMIZERS["ga"](seed=0)
        result = ga.search(evaluator, 120)
        assert result.cache_hits == evaluator.cache_hits
        assert result.evaluations == 120
