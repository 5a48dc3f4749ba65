"""Fused tensor programs: parity, caching, edge dims, and plumbing.

The fused kernels (:mod:`repro.costmodel.fused`) precompile one tensor
program per (model, platform) and promise bit-identity with the batched
reference in float64.  These tests lock that promise across all three
dataflow styles, MIX batches, flat shard-shaped batches, and the extreme
layer geometries the analytical formulas must survive; they also cover
the kernel-selection plumbing (``resolve_kernel`` / ``SearchSpec.kernel``
/ ``$REPRO_KERNEL``), program-cache bounds and staleness, the bounded
single-layer table cache, scalar-input promotion, and kernel forwarding
through the execution backends.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.costmodel import (
    BATCH_STYLES,
    DEFAULT_HW,
    DEFAULT_KERNEL,
    KERNEL_ENV,
    KERNELS,
    BatchedCostModel,
    CostModel,
    LayerTable,
    STYLE_INDEX,
    compile_program,
    evaluate_with_kernel,
    resolve_kernel,
)
from repro.costmodel.batched import ordered_row_sum, table_token
from repro.costmodel.fused import LRUCache
from repro.costmodel.report import BatchCostReport
from repro.models import get_model
from repro.models.layers import Layer, LayerType
from repro.parallel.backend import make_backend
from repro.search.spec import SearchSpec

REPORT_FIELDS = [f.name for f in dataclasses.fields(BatchCostReport)]
INT_FIELDS = ("pes_used", "l1_bytes_per_pe", "l2_bytes", "tile_k", "macs")

# Kernels that must be bit-identical to the batched reference.
EXACT_KERNELS = ["fused"]


def assert_bit_identical(reference: BatchCostReport,
                         candidate: BatchCostReport) -> None:
    for name in REPORT_FIELDS:
        a = getattr(reference, name)
        b = getattr(candidate, name)
        assert a.dtype == b.dtype, f"{name}: dtype {a.dtype} != {b.dtype}"
        assert np.array_equal(a, b), f"{name}: values differ"


def random_batch(table: LayerTable, n: int, seed: int, style=None):
    rng = np.random.default_rng(seed)
    layer_idx = rng.integers(0, len(table.layers), size=n)
    if style is None:
        style_idx = rng.integers(0, len(BATCH_STYLES), size=n)
    else:
        style_idx = np.full(n, STYLE_INDEX[style], dtype=np.int64)
    pes = rng.integers(1, 600, size=n)
    l1 = rng.integers(1, 12_000, size=n)
    return layer_idx, style_idx, pes, l1


def tiled_batch(table: LayerTable, pop: int, seed: int, style=None):
    """(pop x layers) lockstep batch -- the shape the searches emit."""
    num_layers = len(table.layers)
    rng = np.random.default_rng(seed)
    layer_idx = np.tile(np.arange(num_layers), pop)
    if style is None:
        style_idx = rng.integers(0, len(BATCH_STYLES),
                                 size=pop * num_layers)
    else:
        style_idx = np.full(pop * num_layers, STYLE_INDEX[style],
                            dtype=np.int64)
    pes = rng.integers(1, 600, size=pop * num_layers)
    l1 = rng.integers(1, 12_000, size=pop * num_layers)
    return layer_idx, style_idx, pes, l1


@pytest.fixture(scope="module")
def table():
    return LayerTable.build(get_model("mobilenet_v2")[:10])


# ----------------------------------------------------------------------
# Kernel selection plumbing
# ----------------------------------------------------------------------
class TestResolveKernel:
    def test_default_is_batched(self, monkeypatch):
        monkeypatch.delenv(KERNEL_ENV, raising=False)
        assert resolve_kernel(None) == DEFAULT_KERNEL == "batched"

    def test_env_overrides_default(self, monkeypatch):
        monkeypatch.setenv(KERNEL_ENV, "fused")
        assert resolve_kernel(None) == "fused"

    def test_explicit_beats_env(self, monkeypatch):
        monkeypatch.setenv(KERNEL_ENV, "fused32")
        assert resolve_kernel("fused") == "fused"

    def test_unknown_kernel_rejected(self, monkeypatch):
        with pytest.raises(ValueError, match="kernel"):
            resolve_kernel("nope")
        monkeypatch.setenv(KERNEL_ENV, "bogus")
        with pytest.raises(ValueError, match="kernel"):
            resolve_kernel(None)

    def test_spec_validates_and_resolves(self, monkeypatch):
        monkeypatch.delenv(KERNEL_ENV, raising=False)
        with pytest.raises(ValueError):
            SearchSpec(model="mnasnet", kernel="warp-speed")
        spec = SearchSpec(model="mnasnet", kernel="fused")
        assert spec.resolved_kernel() == "fused"
        monkeypatch.setenv(KERNEL_ENV, "fused32")
        # Explicit spec value wins over the environment...
        assert spec.resolved_kernel() == "fused"
        # ...but an unset spec falls through to it.
        assert SearchSpec(model="mnasnet").resolved_kernel() == "fused32"

    def test_spec_roundtrips_kernel(self):
        spec = SearchSpec(model="mnasnet", kernel="fused")
        assert SearchSpec.from_dict(spec.to_dict()).kernel == "fused"


class TestLRUCache:
    def test_capacity_bound_evicts_oldest(self):
        cache = LRUCache(3)
        for i in range(5):
            cache.put(i, str(i))
        assert len(cache) == 3
        assert cache.get(0) is None and cache.get(1) is None
        assert cache.get(4) == "4"

    def test_get_refreshes_recency(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1
        cache.put("c", 3)  # evicts "b", the least recently used
        assert cache.get("b") is None
        assert cache.get("a") == 1 and cache.get("c") == 3


# ----------------------------------------------------------------------
# Bit parity: fused vs the batched kernel
# ----------------------------------------------------------------------
class TestFusedParity:
    @pytest.mark.parametrize("kernel", EXACT_KERNELS)
    @pytest.mark.parametrize("style", BATCH_STYLES)
    def test_tiled_single_style(self, kernel, style, table):
        batch = tiled_batch(table, pop=17, seed=3, style=style)
        reference = evaluate_with_kernel("batched", DEFAULT_HW, table,
                                         *batch)
        program = compile_program(DEFAULT_HW, table, kernel)
        assert_bit_identical(reference, program.evaluate(*batch))

    @pytest.mark.parametrize("kernel", EXACT_KERNELS)
    def test_tiled_mix_styles(self, kernel, table):
        batch = tiled_batch(table, pop=17, seed=5)
        reference = evaluate_with_kernel("batched", DEFAULT_HW, table,
                                         *batch)
        program = compile_program(DEFAULT_HW, table, kernel)
        assert_bit_identical(reference, program.evaluate(*batch))

    @pytest.mark.parametrize("kernel", EXACT_KERNELS)
    def test_flat_random_batch(self, kernel, table):
        """Arbitrary layer order breaks the (pop x layers) tiling and
        exercises the gather fallback."""
        batch = random_batch(table, n=1777, seed=7)
        reference = evaluate_with_kernel("batched", DEFAULT_HW, table,
                                         *batch)
        program = compile_program(DEFAULT_HW, table, kernel)
        assert_bit_identical(reference, program.evaluate(*batch))

    def test_shard_invariance(self, table):
        """A worker-sized slice of a tiled batch (what the process
        backend ships) evaluates identically to the same slice of the
        full-batch result."""
        batch = tiled_batch(table, pop=40, seed=11)
        program = compile_program(DEFAULT_HW, table, "fused")
        full = program.evaluate(*batch)
        lo, hi = 17, 391
        shard = program.evaluate(*(a[lo:hi] for a in batch))
        for name in REPORT_FIELDS:
            assert np.array_equal(getattr(full, name)[lo:hi],
                                  getattr(shard, name))

    def test_repeated_calls_reuse_scratch(self, table):
        """Back-to-back calls on one program (scratch-buffer reuse) stay
        bit-identical to fresh evaluations."""
        program = compile_program(DEFAULT_HW, table, "fused")
        batch = tiled_batch(table, pop=9, seed=13)
        first = program.evaluate(*batch)
        program.evaluate(*random_batch(table, n=500, seed=17))
        assert_bit_identical(first, program.evaluate(*batch))


class TestFused32:
    def test_integer_outputs_exact_floats_close(self, table):
        batch = random_batch(table, n=2048, seed=23)
        reference = evaluate_with_kernel("batched", DEFAULT_HW, table,
                                         *batch)
        report = compile_program(DEFAULT_HW, table,
                                 "fused32").evaluate(*batch)
        for name in INT_FIELDS:
            assert np.array_equal(getattr(reference, name),
                                  getattr(report, name)), name
        for name in REPORT_FIELDS:
            if name in INT_FIELDS:
                continue
            a = getattr(reference, name)
            b = np.asarray(getattr(report, name), dtype=np.float64)
            rel = np.abs(b - a) / np.maximum(np.abs(a), 1e-30)
            assert rel.max() < 1e-5, f"{name}: rel err {rel.max():.3g}"


# ----------------------------------------------------------------------
# Extreme layer geometries (satellite: edge-dim sweep)
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
    def test_scalar_batched_fused_agree(self, style, cost_model):
        """Scalar, batched, and fused paths agree exactly on every edge
        geometry x design-point combination, for every style."""
        table = LayerTable.build(EDGE_LAYERS)
        points = np.array(EDGE_POINTS, dtype=np.int64)
        n_layers, n_points = len(EDGE_LAYERS), len(points)
        layer_idx = np.repeat(np.arange(n_layers), n_points)
        style_idx = np.full(n_layers * n_points, STYLE_INDEX[style])
        pes = np.tile(points[:, 0], n_layers)
        l1 = np.tile(points[:, 1], n_layers)

        batched = evaluate_with_kernel("batched", DEFAULT_HW, table,
                                       layer_idx, style_idx, pes, l1)
        fused = compile_program(DEFAULT_HW, table, "fused").evaluate(
            layer_idx, style_idx, pes, l1)
        assert_bit_identical(batched, fused)

        for i in range(len(layer_idx)):
            scalar = cost_model.evaluate_layer(
                EDGE_LAYERS[layer_idx[i]], style,
                int(pes[i]), int(l1[i]))
            for name in REPORT_FIELDS:
                assert getattr(scalar, name) == getattr(batched, name)[i], \
                    f"{name} @ {EDGE_LAYERS[layer_idx[i]].name} " \
                    f"pes={pes[i]} l1={l1[i]}"

    @pytest.mark.parametrize("style", BATCH_STYLES)
    def test_huge_products_stay_positive(self, style):
        """pes * l1_bytes around 2**40 must not wrap int64 anywhere:
        every integer report field stays non-negative and the MAC count
        is the exact analytical value."""
        table = LayerTable.build(EDGE_LAYERS)
        n = len(EDGE_LAYERS)
        report = evaluate_with_kernel(
            "fused", DEFAULT_HW, table, np.arange(n),
            np.full(n, STYLE_INDEX[style]),
            np.full(n, 2 ** 20), np.full(n, 2 ** 20))
        for name in INT_FIELDS:
            values = getattr(report, name)
            assert (values >= 0).all(), f"{name} wrapped negative"
        assert (report.l2_bytes > 0).all()
        assert (report.macs > 0).all()
        assert np.isfinite(report.latency_cycles).all()
        assert np.isfinite(report.energy_nj).all()


# ----------------------------------------------------------------------
# Caches: compiled programs, single-layer tables, scalar promotion
# ----------------------------------------------------------------------
class TestProgramCache:
    def test_program_compiled_once_per_table(self, table):
        model = BatchedCostModel(kernel="fused")
        batch = random_batch(table, n=64, seed=29)
        model.evaluate(table, *batch)
        program = model._programs.get((table_token(table), "fused"))
        assert program is not None
        model.evaluate(table, *batch)
        assert model._programs.get(
            (table_token(table), "fused")) is program

    def test_table_tokens_never_recycled(self):
        """Regression for the ``id(table)`` cache keys: ``id()`` is
        recycled by the allocator the moment a table dies, so a new
        table could inherit a stale compiled program.  Tokens are
        monotonic, stable per table, and unique across tables no matter
        how many die."""
        import gc

        first = LayerTable.build(get_model("ncf"))
        token = table_token(first)
        assert table_token(first) == token  # stable per table
        seen = {token}
        del first
        for _ in range(5):
            gc.collect()
            fresh = LayerTable.build(get_model("ncf"))
            fresh_token = table_token(fresh)
            assert fresh_token not in seen
            seen.add(fresh_token)
            del fresh

    def test_stale_cache_entry_recompiles(self, table):
        """Belt-and-braces: even a hand-built cache entry whose program
        was compiled for a different table is noticed by the identity
        check and recompiled."""
        model = BatchedCostModel(kernel="fused")
        other = LayerTable.build(get_model("mnasnet")[:4])
        stale = compile_program(DEFAULT_HW, other, "fused")
        model._programs.put((table_token(table), "fused"), stale)
        batch = tiled_batch(table, pop=3, seed=31)
        report = model.evaluate(table, *batch)
        reference = evaluate_with_kernel("batched", DEFAULT_HW, table,
                                         *batch)
        assert_bit_identical(reference, report)
        assert model._programs.get(
            (table_token(table), "fused")) is not stale

    def test_batched_kernel_compiles_nothing(self, table):
        model = BatchedCostModel(kernel="batched")
        model.evaluate(table, *random_batch(table, n=32, seed=37))
        assert len(model._programs) == 0


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
        assert len(model._single_tables) <= 16

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
        assert_bit_identical(vector, scalar)


# ----------------------------------------------------------------------
# Kernel forwarding through the execution backends
# ----------------------------------------------------------------------
class TestBackendKernel:
    @pytest.mark.parametrize("executor", ["serial", "process"])
    def test_backend_fused_matches_batched(self, executor, table):
        batch = tiled_batch(table, pop=11, seed=41)
        reference = evaluate_with_kernel("batched", DEFAULT_HW, table,
                                         *batch)
        backend = make_backend(executor, workers=2, kernel="fused")
        try:
            assert backend.kernel == "fused"
            report = backend.evaluate(DEFAULT_HW, table, *batch)
            assert_bit_identical(reference, report)
            # Second batch reuses the shipped table and compiled program.
            again = backend.evaluate(DEFAULT_HW, table, *batch)
            assert_bit_identical(reference, again)
        finally:
            backend.shutdown()

    def test_cost_model_kernel_threads_through(self):
        model = CostModel(kernel="fused")
        assert model.batched.kernel == "fused"
        assert CostModel().batched.kernel == resolve_kernel(None)

    def test_kernels_tuple_is_public_contract(self):
        assert KERNELS == ("batched", "fused", "fused32")


# ----------------------------------------------------------------------
# Folded constraint check: the epilogue's budget comparison
# ----------------------------------------------------------------------
class TestConstraintFold:
    """``evaluate_constrained`` folds the population reductions and the
    platform budget comparison into the fused epilogue; every folded
    number must match the two-step post-pass bit-for-bit."""

    @pytest.mark.parametrize("kernel", ["fused", "fused32"])
    @pytest.mark.parametrize("deployment", ["lp", "ls"])
    @pytest.mark.parametrize("kind", ["area", "power"])
    def test_fold_matches_two_step_post_pass(self, table, kernel,
                                             deployment, kind):
        model = BatchedCostModel(kernel=kernel)
        pop, num_layers = 17, len(table.layers)
        batch = tiled_batch(table, pop=pop, seed=43)
        budget = 5e8 if kind == "area" else 5e3
        report, fold = model.evaluate_constrained(
            table, *batch, deployment=deployment, kind=kind,
            budget=budget)
        assert fold is not None
        assert_bit_identical(model.evaluate(table, *batch), report)

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

    def test_fold_unavailable_off_the_fast_path(self, table):
        """Non-tiled layouts, the batched kernel, and attached
        executors all decline the fold; the report alone still matches
        ``evaluate``."""
        fused = BatchedCostModel(kernel="fused")
        layer_idx, style_idx, pes, l1 = tiled_batch(table, pop=3, seed=47)
        scrambled = layer_idx.copy()
        scrambled[0] = (scrambled[0] + 1) % len(table.layers)
        report, fold = fused.evaluate_constrained(
            table, scrambled, style_idx, pes, l1,
            deployment="lp", kind="area", budget=1e9)
        assert fold is None
        assert_bit_identical(
            fused.evaluate(table, scrambled, style_idx, pes, l1), report)

        batched = BatchedCostModel(kernel="batched")
        _, fold = batched.evaluate_constrained(
            table, layer_idx, style_idx, pes, l1,
            deployment="lp", kind="area", budget=1e9)
        assert fold is None

        backend = make_backend("process", workers=2, kernel="fused")
        sharded = BatchedCostModel(kernel="fused", executor=backend)
        try:
            report, fold = sharded.evaluate_constrained(
                table, layer_idx, style_idx, pes, l1,
                deployment="lp", kind="area", budget=1e9)
            assert fold is None
            assert_bit_identical(
                batched.evaluate(table, layer_idx, style_idx, pes, l1),
                report)
        finally:
            backend.shutdown()

    @pytest.mark.parametrize("kernel", ["batched", "fused", "fused32"])
    def test_session_parity_under_folded_constraints(self, kernel):
        """Whole-session lockdown: the folded path cannot change a
        search trajectory versus the batched reference."""
        def run(k):
            # Pinned serial: the fold only engages with no executor
            # attached, and fused32's float32 reports cannot shard
            # into the float64 shm block an env-forced process
            # executor would use.
            spec = SearchSpec(model="ncf", platform="cloud",
                              method="random", budget=10, seed=3,
                              kernel=k, deployment="lp",
                              constraint_kind="area", executor="serial")
            from repro.search import SearchSession

            return SearchSession(spec).run()

        outcome = run(kernel)
        if kernel == "fused32":
            assert outcome.best_cost == pytest.approx(
                run("batched").best_cost, rel=1e-5)
        else:
            reference = run("batched")
            assert outcome.best_cost == reference.best_cost
            assert outcome.best_assignments == reference.best_assignments
