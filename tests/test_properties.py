"""Property-based tests (hypothesis) on core invariants.

Covers the cost model's monotonicity/positivity contracts, the action-space
encode/decode round trip, the env-vs-evaluator consistency (the same genome
must cost the same through either path), autograd gradient linearity, and
the return-processing pipeline.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.constraints import PlatformConstraint
from repro.core.evaluator import DesignPointEvaluator
from repro.costmodel import CostModel
from repro.env import ActionSpace, HWAssignmentEnv
from repro.models.layers import Layer, LayerType
from repro.nn.autograd import Tensor
from repro.rl.common import discounted_returns, standardize

_COST_MODEL = CostModel()
_SPACE = ActionSpace.build("dla")

layer_strategy = st.builds(
    lambda k, c, y, r, t: Layer(
        "prop",
        t,
        K=c if t is LayerType.DWCONV else k,
        C=c,
        Y=max(y, r),
        X=max(y, r),
        R=1 if t is LayerType.PWCONV else r,
        S=1 if t is LayerType.PWCONV else r,
    ),
    k=st.integers(1, 256),
    c=st.integers(1, 256),
    y=st.integers(3, 64),
    r=st.sampled_from([1, 3, 5]),
    t=st.sampled_from([LayerType.CONV, LayerType.DWCONV, LayerType.PWCONV,
                       LayerType.GEMM]),
)


class TestCostModelProperties:
    @settings(max_examples=60, deadline=None)
    @given(layer=layer_strategy, pe_idx=st.integers(0, 11),
           buf_idx=st.integers(0, 11), style=st.sampled_from(
               ["dla", "eye", "shi"]))
    def test_report_always_positive_and_consistent(self, layer, pe_idx,
                                                   buf_idx, style):
        pes = _SPACE.pe_levels[pe_idx]
        l1 = _SPACE.buf_levels[buf_idx]
        report = _COST_MODEL.evaluate_layer(layer, style, pes, l1)
        assert report.latency_cycles > 0
        assert report.energy_nj > 0
        assert report.area_um2 > 0
        assert 0 < report.pe_utilization <= 1.0 + 1e-12
        assert report.pes_used <= pes
        # Power identity at 1 GHz.
        assert report.power_mw == pytest.approx(
            1000.0 * report.energy_nj / report.latency_cycles)

    @settings(max_examples=40, deadline=None)
    @given(layer=layer_strategy, buf_idx=st.integers(0, 11))
    def test_latency_monotone_in_pes(self, layer, buf_idx):
        l1 = _SPACE.buf_levels[buf_idx]
        latencies = [
            _COST_MODEL.evaluate_layer(layer, "dla", pes, l1).latency_cycles
            for pes in _SPACE.pe_levels
        ]
        assert all(b <= a + 1e-9 for a, b in zip(latencies, latencies[1:]))

    @settings(max_examples=40, deadline=None)
    @given(layer=layer_strategy, pe_idx=st.integers(0, 11))
    def test_area_monotone_in_buffer(self, layer, pe_idx):
        pes = _SPACE.pe_levels[pe_idx]
        areas = [
            _COST_MODEL.evaluate_layer(layer, "dla", pes, l1).area_um2
            for l1 in _SPACE.buf_levels
        ]
        assert all(b > a for a, b in zip(areas, areas[1:]))

    @settings(max_examples=30, deadline=None)
    @given(layer=layer_strategy)
    def test_cache_determinism(self, layer):
        first = _COST_MODEL.evaluate_layer(layer, "eye", 16, 39)
        second = _COST_MODEL.evaluate_layer(layer, "eye", 16, 39)
        assert first == second


class TestActionSpaceProperties:
    @settings(max_examples=30, deadline=None)
    @given(levels=st.integers(2, 20))
    def test_ladders_always_valid(self, levels):
        space = ActionSpace.build("dla", num_levels=levels)
        assert space.num_levels == levels
        assert space.pe_levels[0] >= 1


class TestEnvEvaluatorConsistency:
    @settings(max_examples=20, deadline=None)
    @given(genome_levels=st.lists(st.tuples(st.integers(0, 11),
                                            st.integers(0, 11)),
                                  min_size=4, max_size=4))
    def test_same_genome_same_cost(self, genome_levels):
        layers = [
            Layer("a", LayerType.CONV, K=16, C=8, Y=16, X=16, R=3, S=3),
            Layer("b", LayerType.DWCONV, K=16, C=16, Y=16, X=16, R=3, S=3),
            Layer("c", LayerType.PWCONV, K=32, C=16, Y=16, X=16),
            Layer("d", LayerType.GEMM, K=32, C=32, Y=8, X=1),
        ]
        constraint = PlatformConstraint(kind="area", budget=1e18)
        env = HWAssignmentEnv(layers, _SPACE, "latency", constraint,
                              _COST_MODEL, dataflow="dla")
        env.reset()
        done = False
        step = 0
        while not done:
            _, _, done, info = env.step(genome_levels[step])
            step += 1
        episode = info["episode"]
        evaluator = DesignPointEvaluator(layers, "latency", constraint,
                                         _COST_MODEL, _SPACE,
                                         dataflow="dla")
        outcome = evaluator.evaluate_genome(episode.genome)
        assert episode.cost == pytest.approx(outcome.cost)
        assert episode.used == pytest.approx(outcome.used)


class TestAutogradProperties:
    @settings(max_examples=40, deadline=None)
    @given(values=st.lists(st.floats(-10, 10), min_size=2, max_size=8),
           scale=st.floats(-3, 3))
    def test_gradient_linearity(self, values, scale):
        # d(scale * sum(x)) / dx = scale everywhere.
        x = Tensor(np.array(values), requires_grad=True)
        (x * scale).sum().backward()
        np.testing.assert_allclose(x.grad, np.full(len(values), scale),
                                   atol=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(rows=st.integers(1, 5), cols=st.integers(1, 5))
    def test_matmul_shape_contract(self, rows, cols):
        a = Tensor(np.ones((rows, 3)), requires_grad=True)
        b = Tensor(np.ones((3, cols)), requires_grad=True)
        out = a @ b
        assert out.shape == (rows, cols)
        out.sum().backward()
        assert a.grad.shape == (rows, 3)
        assert b.grad.shape == (3, cols)


class TestReturnProperties:
    @settings(max_examples=50, deadline=None)
    @given(rewards=st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=60),
           discount=st.floats(0.0, 1.0))
    def test_returns_shape_and_terminal(self, rewards, discount):
        returns = discounted_returns(rewards, discount)
        assert returns.shape == (len(rewards),)
        assert returns[-1] == pytest.approx(rewards[-1])

    @settings(max_examples=50, deadline=None)
    @given(rewards=st.lists(st.floats(0.0, 1e6), min_size=2, max_size=60))
    def test_nonnegative_rewards_give_nonnegative_returns(self, rewards):
        returns = discounted_returns(rewards, 0.9)
        assert np.all(returns >= -1e-9)

    @settings(max_examples=50, deadline=None)
    @given(values=st.lists(st.floats(-1e5, 1e5), min_size=2, max_size=40))
    def test_standardize_bounds(self, values):
        out = standardize(np.array(values))
        assert abs(out.mean()) < 1e-6
        assert out.std() <= 1.0 + 1e-6
