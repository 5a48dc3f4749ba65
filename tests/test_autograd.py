"""Gradient-correctness tests for the autograd engine.

Every operator is checked against central finite differences on random
inputs, plus structural tests (broadcasting, graph reuse, no_grad).
"""

import numpy as np
import pytest

from repro.nn.autograd import Tensor, no_grad


def numerical_grad(func, value, eps=1e-6):
    """Central-difference gradient of scalar func at value."""
    grad = np.zeros_like(value)
    flat = value.reshape(-1)
    grad_flat = grad.reshape(-1)
    for i in range(flat.size):
        original = flat[i]
        flat[i] = original + eps
        plus = func(value)
        flat[i] = original - eps
        minus = func(value)
        flat[i] = original
        grad_flat[i] = (plus - minus) / (2 * eps)
    return grad


def check_grad(op, value, seed=0, positive=False):
    """Compare autograd and numerical gradients for scalar-reduced op."""
    rng = np.random.default_rng(seed)
    data = rng.standard_normal(value).astype(np.float64)
    if positive:
        data = np.abs(data) + 0.5
    tensor = Tensor(data.copy(), requires_grad=True)
    out = op(tensor).sum()
    out.backward()
    numeric = numerical_grad(lambda v: float(op(Tensor(v)).sum().data),
                             data.copy())
    np.testing.assert_allclose(tensor.grad, numeric, rtol=1e-4, atol=1e-6)


class TestElementwiseGrads:
    @pytest.mark.parametrize("op,positive", [
        (lambda t: t.exp(), False),
        (lambda t: t.log(), True),
        (lambda t: Tensor(1.0) / t, True),
        (lambda t: t.tanh(), False),
        (lambda t: t.sigmoid(), False),
        (lambda t: t.relu(), False),
        (lambda t: t.abs(), False),
        (lambda t: t * t, False),
        (lambda t: 2.0 - t, False),
        (lambda t: (t + 3.0) / (t * t + 1.0), False),
        (lambda t: t.clip(-0.5, 0.5), False),
        (lambda t: -t, False),
        (lambda t: t - 2.0 * t, False),
    ])
    def test_against_numerical(self, op, positive):
        check_grad(op, (3, 4), positive=positive)


class TestMatmulGrads:
    def test_matmul_both_sides(self):
        rng = np.random.default_rng(1)
        a_data = rng.standard_normal((3, 4))
        b_data = rng.standard_normal((4, 2))
        a = Tensor(a_data.copy(), requires_grad=True)
        b = Tensor(b_data.copy(), requires_grad=True)
        (a @ b).sum().backward()
        np.testing.assert_allclose(a.grad, np.ones((3, 2)) @ b_data.T)
        np.testing.assert_allclose(b.grad, a_data.T @ np.ones((3, 2)))


class TestBroadcasting:
    def test_add_bias_broadcast(self):
        x = Tensor(np.ones((5, 3)), requires_grad=True)
        b = Tensor(np.zeros(3), requires_grad=True)
        (x + b).sum().backward()
        np.testing.assert_allclose(b.grad, np.full(3, 5.0))

    def test_mul_scalar_tensor(self):
        x = Tensor(np.ones((2, 3)), requires_grad=True)
        s = Tensor(2.0, requires_grad=True)
        (x * s).sum().backward()
        np.testing.assert_allclose(s.grad, 6.0)

    def test_keepdims_broadcast(self):
        x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        m = x.sum(axis=1, keepdims=True)
        (x / m).sum().backward()
        assert x.grad.shape == (2, 3)


class TestReductions:
    def test_sum_axis_grad(self):
        check_grad(lambda t: t.sum(axis=0), (3, 4))
        check_grad(lambda t: t.sum(axis=1, keepdims=True), (3, 4))

    def test_mean_grad(self):
        check_grad(lambda t: t.mean(), (3, 4))
        check_grad(lambda t: t.mean(axis=1), (3, 4))


class TestShapeOps:
    def test_reshape_grad(self):
        check_grad(lambda t: (t.reshape(12) * 2.0), (3, 4))

    def test_getitem_grad(self):
        x = Tensor(np.arange(12.0).reshape(3, 4), requires_grad=True)
        x[1].sum().backward()
        expected = np.zeros((3, 4))
        expected[1] = 1.0
        np.testing.assert_allclose(x.grad, expected)

    def test_getitem_fancy_index_accumulates(self):
        x = Tensor(np.arange(4.0), requires_grad=True)
        x[np.array([0, 0, 2])].sum().backward()
        np.testing.assert_allclose(x.grad, [2.0, 0.0, 1.0, 0.0])

    def test_concat_grad(self):
        a = Tensor(np.ones((2, 2)), requires_grad=True)
        b = Tensor(np.ones((2, 3)), requires_grad=True)
        out = Tensor.concat([a, b], axis=1)
        (out * 2.0).sum().backward()
        np.testing.assert_allclose(a.grad, np.full((2, 2), 2.0))
        np.testing.assert_allclose(b.grad, np.full((2, 3), 2.0))


class TestGraphMechanics:
    def test_diamond_graph_accumulates(self):
        x = Tensor(2.0, requires_grad=True)
        y = x * 3.0
        z = x * 4.0
        (y + z).backward()
        np.testing.assert_allclose(x.grad, 7.0)

    def test_reused_node_accumulates(self):
        x = Tensor(np.ones(3), requires_grad=True)
        y = x * 2.0
        (y + y).sum().backward()
        np.testing.assert_allclose(x.grad, np.full(3, 4.0))

    def test_backward_requires_scalar_without_seed(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(RuntimeError, match="scalar"):
            (x * 2.0).backward()

    def test_backward_with_seed(self):
        x = Tensor(np.ones(3), requires_grad=True)
        (x * 2.0).backward(np.array([1.0, 2.0, 3.0]))
        np.testing.assert_allclose(x.grad, [2.0, 4.0, 6.0])

    def test_backward_on_non_grad_raises(self):
        with pytest.raises(RuntimeError):
            Tensor(1.0).backward()

    def test_no_grad_blocks_graph(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with no_grad():
            y = x * 2.0
        assert not y.requires_grad

    def test_no_grad_restores_on_exception(self):
        x = Tensor(1.0, requires_grad=True)
        try:
            with no_grad():
                raise RuntimeError("boom")
        except RuntimeError:
            pass
        assert (x * 2.0).requires_grad

    def test_zero_grad(self):
        x = Tensor(1.0, requires_grad=True)
        (x * 2.0).backward()
        x.zero_grad()
        assert x.grad is None

    def test_numpy_returns_copy(self):
        x = Tensor(np.ones(3))
        arr = x.numpy()
        arr[0] = 99.0
        assert x.data[0] == 1.0

    def test_item_and_shape(self):
        x = Tensor(3.5)
        assert x.item() == 3.5
        assert Tensor(np.ones((2, 3))).shape == (2, 3)
        assert Tensor(np.ones((2, 3))).ndim == 2
        assert Tensor(np.ones((2, 3))).size == 6
