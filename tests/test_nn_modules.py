"""Tests for NN modules, optimizers, functional ops, and distributions."""

import numpy as np
import pytest

from repro.nn import (
    Adam,
    Categorical,
    Linear,
    LSTMCell,
    MLP,
    Tensor,
    clip_grad_norm,
)
from repro.nn.functional import (
    huber_loss,
    log_softmax,
    mse_loss,
    softmax,
)
from repro.nn.modules import Module, Parameter


class TestLinear:
    def test_output_shape(self):
        layer = Linear(4, 3, rng=np.random.default_rng(0))
        out = layer(Tensor(np.ones((5, 4))))
        assert out.shape == (5, 3)

    def test_rejects_bad_sizes(self):
        with pytest.raises(ValueError):
            Linear(0, 3)

    def test_parameters_discovered(self):
        layer = Linear(4, 3)
        params = layer.parameters()
        assert len(params) == 2
        assert layer.num_parameters() == 4 * 3 + 3

    def test_trains_linear_regression(self):
        rng = np.random.default_rng(0)
        true_w = np.array([[2.0], [-1.0]])
        x = rng.standard_normal((64, 2))
        y = x @ true_w
        layer = Linear(2, 1, rng=rng)
        optimizer = Adam(layer.parameters(), lr=0.05)
        for _ in range(300):
            loss = mse_loss(layer(Tensor(x)), Tensor(y))
            optimizer.zero_grad()
            loss.backward()
            optimizer.step()
        np.testing.assert_allclose(layer.weight.data, true_w, atol=0.05)


class TestMLP:
    def test_shapes_and_activations(self):
        mlp = MLP([4, 8, 2], activation="relu", rng=np.random.default_rng(0))
        assert mlp(Tensor(np.ones((3, 4)))).shape == (3, 2)

    def test_rejects_short_sizes(self):
        with pytest.raises(ValueError):
            MLP([4])

    def test_rejects_unknown_activation(self):
        with pytest.raises(ValueError, match="unknown activation"):
            MLP([4, 2], activation="swish")

    def test_output_activation(self):
        mlp = MLP([4, 8, 2], output_activation="tanh",
                  rng=np.random.default_rng(0))
        out = mlp(Tensor(np.random.default_rng(1).standard_normal((5, 4))))
        assert np.all(np.abs(out.numpy()) <= 1.0)

    def test_learns_xor(self):
        x = np.array([[0., 0.], [0., 1.], [1., 0.], [1., 1.]])
        y = np.array([[0.], [1.], [1.], [0.]])
        rng = np.random.default_rng(3)
        mlp = MLP([2, 16, 1], activation="tanh", rng=rng)
        optimizer = Adam(mlp.parameters(), lr=0.05)
        for _ in range(500):
            loss = mse_loss(mlp(Tensor(x)), Tensor(y))
            optimizer.zero_grad()
            loss.backward()
            optimizer.step()
        prediction = mlp(Tensor(x)).numpy()
        assert np.all(np.abs(prediction - y) < 0.2)


class TestLSTM:
    def test_cell_shapes(self):
        cell = LSTMCell(4, 8, rng=np.random.default_rng(0))
        h, c = cell.initial_state()
        assert h.shape == c.shape == (1, 8)
        h2, c2 = cell(Tensor(np.ones((1, 4))), (h, c))
        assert h2.shape == (1, 8)
        assert c2.shape == (1, 8)

    def test_forget_bias_initialized_to_one(self):
        cell = LSTMCell(4, 8)
        assert np.all(cell.bias.data[8:16] == 1.0)
        assert np.all(cell.bias.data[:8] == 0.0)

    def test_state_propagates_information(self):
        # With different inputs at t=0, the t=2 hidden states must differ:
        # memory across steps.
        rng = np.random.default_rng(0)
        cell = LSTMCell(2, 4, rng=rng)
        zero = Tensor(np.zeros((1, 2)))
        spike = Tensor(np.ones((1, 2)) * 3.0)

        def rollout(first):
            state = cell.initial_state()
            state = cell(first, state)
            state = cell(zero, state)
            h, _ = cell(zero, state)
            return h.numpy()

        assert not np.allclose(rollout(zero), rollout(spike))

    def test_bptt_gradients_flow_to_first_step(self):
        cell = LSTMCell(2, 4, rng=np.random.default_rng(0))
        x0 = Tensor(np.ones((1, 2)), requires_grad=True)
        state = cell(x0, cell.initial_state())
        for _ in range(3):
            state = cell(Tensor(np.zeros((1, 2))), state)
        state[0].sum().backward()
        assert x0.grad is not None
        assert np.any(x0.grad != 0.0)


class TestModuleInfrastructure:
    def test_state_dict_roundtrip(self):
        mlp = MLP([3, 4, 2], rng=np.random.default_rng(0))
        state = mlp.state_dict()
        clone = MLP([3, 4, 2], rng=np.random.default_rng(99))
        clone.load_state_dict(state)
        x = Tensor(np.ones((1, 3)))
        np.testing.assert_allclose(mlp(x).numpy(), clone(x).numpy())

    def test_load_state_dict_shape_mismatch(self):
        mlp = MLP([3, 4, 2])
        other = MLP([3, 5, 2])
        with pytest.raises(ValueError):
            mlp.load_state_dict(other.state_dict())

    def test_load_state_dict_length_mismatch(self):
        mlp = MLP([3, 4, 2])
        with pytest.raises(ValueError):
            mlp.load_state_dict(mlp.state_dict()[:-1])

    def test_soft_update_interpolates(self):
        a = MLP([2, 2], rng=np.random.default_rng(0))
        b = MLP([2, 2], rng=np.random.default_rng(1))
        before = b.parameters()[0].data.copy()
        target = a.parameters()[0].data.copy()
        b.soft_update(a, tau=0.5)
        np.testing.assert_allclose(
            b.parameters()[0].data, 0.5 * before + 0.5 * target)

    def test_zero_grad_clears_all(self):
        mlp = MLP([2, 2])
        mse_loss(mlp(Tensor(np.ones((1, 2)))), Tensor([[0.0]])).backward()
        assert any(p.grad is not None for p in mlp.parameters())
        mlp.zero_grad()
        assert all(p.grad is None for p in mlp.parameters())

    def test_nested_discovery_through_containers(self):
        class Nested(Module):
            def __init__(self):
                self.items = [Linear(2, 2), {"inner": Linear(2, 2)}]
                self.single = Parameter(np.zeros(3))

        nested = Nested()
        assert len(nested.parameters()) == 5  # 2x(W,b) + single


class TestOptimizers:
    def _quadratic_descends(self, optimizer_cls, **kwargs):
        x = Parameter(np.array([5.0, -3.0]))
        optimizer = optimizer_cls([x], **kwargs)
        for _ in range(200):
            loss = (x * x).sum()
            optimizer.zero_grad()
            loss.backward()
            optimizer.step()
        assert np.all(np.abs(x.data) < 0.1)

    def test_adam_descends(self):
        self._quadratic_descends(Adam, lr=0.1)

    def test_rejects_empty_parameters(self):
        with pytest.raises(ValueError):
            Adam([], lr=0.1)

    def test_rejects_bad_lr(self):
        with pytest.raises(ValueError):
            Adam([Parameter(np.zeros(1))], lr=-1.0)

    def test_skips_parameters_without_grad(self):
        x = Parameter(np.ones(2))
        optimizer = Adam([x], lr=0.1)
        optimizer.step()  # no grad: should not move or crash
        np.testing.assert_allclose(x.data, np.ones(2))

    def test_clip_grad_norm_scales(self):
        x = Parameter(np.zeros(4))
        x.grad = np.full(4, 10.0)
        norm = clip_grad_norm([x], max_norm=1.0)
        assert norm == pytest.approx(20.0)
        assert np.linalg.norm(x.grad) == pytest.approx(1.0, rel=1e-6)

    def test_clip_grad_norm_noop_below_max(self):
        x = Parameter(np.zeros(4))
        x.grad = np.full(4, 0.1)
        clip_grad_norm([x], max_norm=10.0)
        np.testing.assert_allclose(x.grad, np.full(4, 0.1))

    def test_clip_rejects_bad_norm(self):
        with pytest.raises(ValueError):
            clip_grad_norm([Parameter(np.zeros(1))], max_norm=0.0)


class TestClipGradNormWork:
    """``clip_grad_norm`` squaring into lent work arrays (``Adam.work``)
    against its default path, as bytes."""

    @staticmethod
    def _parameters():
        data = np.random.default_rng(3)
        grads = [data.standard_normal((4, 6)), None, data.standard_normal(6),
                 np.array([-0.0, 0.0, -0.0, 1.5])]
        grads[0][2, 3] = -0.0
        parameters = []
        for grad in grads:
            parameter = Parameter(np.zeros((2, 3) if grad is None
                                           else grad.shape))
            parameter.grad = None if grad is None else grad.copy()
            parameters.append(parameter)
        return parameters

    @pytest.mark.parametrize("max_norm", [0.5, 1e6])
    def test_lent_work_matches_the_default_path(self, max_norm):
        default, lent = self._parameters(), self._parameters()
        want = clip_grad_norm(default, max_norm)
        got = clip_grad_norm(lent, max_norm, Adam(lent).work)
        assert np.float64(got).tobytes() == np.float64(want).tobytes()
        assert (got > max_norm) == (max_norm == 0.5)
        for ours, theirs in zip(lent, default):
            if theirs.grad is None:
                assert ours.grad is None
            else:
                assert ours.grad.tobytes() == theirs.grad.tobytes()
        assert np.signbit(lent[3].grad[[0, 2]]).all()
        assert np.signbit(lent[0].grad[2, 3])


class TestKeptGradients:
    """A parameter keeps the gradient array its backward made, across
    ``zero_grad``, and never one assigned from outside."""

    def test_backward_after_zero_grad_reuses_the_array(self):
        x = Parameter(np.array([1.0, -2.0]))
        (x * x).sum().backward()
        first = x.grad
        x.zero_grad()
        assert x.grad is None
        (x * 3.0).sum().backward()
        assert x.grad is first
        assert x.grad.tobytes() == np.array([3.0, 3.0]).tobytes()
        (x * x).sum().backward()
        assert x.grad.tobytes() == np.array([5.0, -1.0]).tobytes()

    def test_assigned_gradient_is_never_written(self):
        x = Parameter(np.ones(3))
        (x * 2.0).sum().backward()
        outside = np.full(3, 7.0)
        x.grad = outside
        x.zero_grad()
        (x * 5.0).sum().backward()
        assert x.grad is not outside
        assert outside.tobytes() == np.full(3, 7.0).tobytes()
        assert x.grad.tobytes() == np.full(3, 5.0).tobytes()


class TestFunctional:
    def test_softmax_rows_sum_to_one(self):
        logits = Tensor(np.random.default_rng(0).standard_normal((4, 6)))
        probs = softmax(logits).numpy()
        np.testing.assert_allclose(probs.sum(axis=1), np.ones(4))
        assert np.all(probs >= 0)

    def test_softmax_stability_large_logits(self):
        probs = softmax(Tensor([[1000.0, 1000.0]])).numpy()
        np.testing.assert_allclose(probs, [[0.5, 0.5]])

    def test_log_softmax_matches_log_of_softmax(self):
        logits = Tensor(np.random.default_rng(1).standard_normal((3, 5)))
        np.testing.assert_allclose(
            log_softmax(logits).numpy(), np.log(softmax(logits).numpy()),
            rtol=1e-10)

    def test_mse_loss_value(self):
        loss = mse_loss(Tensor([[1.0, 2.0]]), Tensor([[0.0, 0.0]]))
        assert loss.item() == pytest.approx(2.5)

    def test_huber_matches_mse_in_quadratic_zone(self):
        prediction = Tensor([[0.5]])
        target = Tensor([[0.0]])
        huber = huber_loss(prediction, target, delta=1.0).item()
        assert huber == pytest.approx(0.5 * 0.25)

    def test_huber_linear_zone(self):
        huber = huber_loss(Tensor([[3.0]]), Tensor([[0.0]]),
                           delta=1.0).item()
        assert huber == pytest.approx(0.5 + (3.0 - 1.0))


class TestCategorical:
    def test_requires_2d_logits(self):
        with pytest.raises(ValueError):
            Categorical(Tensor(np.zeros(3)))

    def test_sampling_matches_probabilities(self):
        logits = Tensor(np.log(np.array([[0.7, 0.2, 0.1]])))
        dist = Categorical(logits)
        rng = np.random.default_rng(0)
        draws = np.array([dist.sample(rng)[0] for _ in range(4000)])
        freq = np.bincount(draws, minlength=3) / 4000
        np.testing.assert_allclose(freq, [0.7, 0.2, 0.1], atol=0.03)

    def test_log_prob_gradients_flow(self):
        logits = Tensor(np.zeros((1, 4)), requires_grad=True)
        Categorical(logits).log_prob([2]).sum().backward()
        assert logits.grad is not None
        # d log p_2 / d logit_2 = 1 - p_2 = 0.75 at uniform.
        assert logits.grad[0, 2] == pytest.approx(0.75)

    def test_entropy_maximal_at_uniform(self):
        uniform = Categorical(Tensor(np.zeros((1, 4))))
        peaked = Categorical(Tensor([[10.0, 0.0, 0.0, 0.0]]))
        assert uniform.entropy().item() > peaked.entropy().item()
        assert uniform.entropy().item() == pytest.approx(np.log(4))
