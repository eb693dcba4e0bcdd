"""Tests for functional ops, layers, LSTM, optimizers, loss, serialization."""

import numpy as np
import pytest

from repro.nn import (
    LSTM,
    MLP,
    Adam,
    Embedding,
    Linear,
    LSTMCell,
    Parameter,
    SGD,
    Tensor,
    attention_norm_regularizer,
    class_weights_from_labels,
    concat,
    embedding,
    gather_rows,
    load_state,
    log_softmax,
    save_state,
    segment_softmax,
    segment_sum,
    veribug_loss,
    weighted_cross_entropy,
)

RNG = np.random.default_rng(7)


class TestFunctional:
    def test_concat_forward_backward(self):
        a = Tensor(RNG.normal(size=(2, 3)), requires_grad=True)
        b = Tensor(RNG.normal(size=(2, 2)), requires_grad=True)
        out = concat([a, b], axis=1)
        assert out.shape == (2, 5)
        out.sum().backward()
        assert a.grad.shape == (2, 3) and b.grad.shape == (2, 2)
        assert np.allclose(a.grad, 1.0)

    def test_embedding_scatter_backward(self):
        table = Tensor(RNG.normal(size=(5, 2)), requires_grad=True)
        out = embedding(table, np.array([1, 1, 3]))
        out.sum().backward()
        assert np.allclose(table.grad[1], 2.0)
        assert np.allclose(table.grad[3], 1.0)
        assert np.allclose(table.grad[0], 0.0)

    def test_segment_sum_values(self):
        x = Tensor(np.array([[1.0], [2.0], [3.0]]))
        out = segment_sum(x, np.array([0, 0, 1]), 2)
        assert out.data.tolist() == [[3.0], [3.0]]

    def test_segment_sum_empty_segment(self):
        x = Tensor(np.ones((2, 1)))
        out = segment_sum(x, np.array([0, 0]), 3)
        assert out.data[2, 0] == 0.0

    def test_segment_softmax_sums_to_one_per_segment(self):
        scores = Tensor(RNG.normal(size=7), requires_grad=True)
        seg = np.array([0, 0, 0, 1, 1, 2, 2])
        weights = segment_softmax(scores, seg, 3)
        sums = np.zeros(3)
        np.add.at(sums, seg, weights.data)
        assert np.allclose(sums, 1.0)

    def test_segment_softmax_single_element_segment(self):
        scores = Tensor(np.array([5.0]))
        weights = segment_softmax(scores, np.array([0]), 1)
        assert np.allclose(weights.data, [1.0])

    def test_segment_softmax_stability_large_scores(self):
        scores = Tensor(np.array([1000.0, 1000.0]))
        weights = segment_softmax(scores, np.array([0, 0]), 1)
        assert np.allclose(weights.data, [0.5, 0.5])

    def test_log_softmax_consistency(self):
        x = Tensor(RNG.normal(size=(2, 3)))
        probs = np.exp(x.data) / np.exp(x.data).sum(axis=1, keepdims=True)
        assert np.allclose(log_softmax(x).data, np.log(probs))

    def test_gather_rows(self):
        x = Tensor(np.arange(6.0).reshape(3, 2), requires_grad=True)
        out = gather_rows(x, np.array([2, 0]))
        assert out.data.tolist() == [[4.0, 5.0], [0.0, 1.0]]


class TestLayers:
    def test_linear_shapes(self):
        layer = Linear(4, 3, RNG)
        out = layer(Tensor(RNG.normal(size=(5, 4))))
        assert out.shape == (5, 3)

    def test_linear_no_bias(self):
        layer = Linear(4, 3, RNG, bias=False)
        assert layer.bias is None
        assert len(layer.parameters()) == 1

    def test_mlp_forward_and_params(self):
        mlp = MLP([4, 8, 2], RNG)
        out = mlp(Tensor(RNG.normal(size=(5, 4))))
        assert out.shape == (5, 2)
        assert len(mlp.parameters()) == 4  # two layers x (W, b)

    def test_mlp_requires_two_sizes(self):
        with pytest.raises(ValueError):
            MLP([4], RNG)

    def test_mlp_unknown_activation(self):
        mlp = MLP([2, 2, 2], RNG, activation="nope")
        with pytest.raises(ValueError):
            mlp(Tensor(np.ones((1, 2))))

    def test_embedding_module(self):
        emb = Embedding(10, 4, RNG)
        out = emb(np.array([[1, 2], [3, 4]]))
        assert out.shape == (2, 2, 4)

    def test_named_parameters_paths(self):
        mlp = MLP([2, 3, 1], RNG)
        names = [name for name, _p in mlp.named_parameters()]
        assert "layers.0.weight" in names
        assert "layers.1.bias" in names

    def test_state_dict_roundtrip(self):
        mlp = MLP([2, 3, 1], RNG)
        state = mlp.state_dict()
        mlp2 = MLP([2, 3, 1], np.random.default_rng(99))
        mlp2.load_state_dict(state)
        x = Tensor(RNG.normal(size=(4, 2)))
        assert np.allclose(mlp(x).data, mlp2(x).data)

    def test_load_state_dict_missing_key(self):
        mlp = MLP([2, 3, 1], RNG)
        with pytest.raises(KeyError):
            mlp.load_state_dict({})

    def test_load_state_dict_shape_mismatch(self):
        mlp = MLP([2, 3, 1], RNG)
        state = mlp.state_dict()
        state["layers.0.weight"] = np.zeros((1, 1))
        with pytest.raises(ValueError):
            mlp.load_state_dict(state)

    def test_zero_grad_clears(self):
        mlp = MLP([2, 2], RNG)
        out = mlp(Tensor(np.ones((1, 2))))
        out.sum().backward()
        assert any(p.grad is not None for p in mlp.parameters())
        mlp.zero_grad()
        assert all(p.grad is None for p in mlp.parameters())


class TestLSTM:
    def test_cell_shapes(self):
        cell = LSTMCell(3, 5, RNG)
        h, c = cell(
            Tensor(RNG.normal(size=(2, 3))),
            Tensor(np.zeros((2, 5))),
            Tensor(np.zeros((2, 5))),
        )
        assert h.shape == (2, 5) and c.shape == (2, 5)

    def test_forget_bias_initialized_to_one(self):
        cell = LSTMCell(3, 5, RNG)
        assert np.allclose(cell.bias.data[5:10], 1.0)

    def test_mask_freezes_state(self):
        lstm = LSTM(2, 3, RNG)
        xs = RNG.normal(size=(1, 4, 2))
        mask_short = np.array([[1.0, 1.0, 0.0, 0.0]])
        h_short = lstm(Tensor(xs), mask_short)
        h_prefix = lstm(Tensor(xs[:, :2, :]), np.array([[1.0, 1.0]]))
        assert np.allclose(h_short.data, h_prefix.data)

    def test_ragged_batch_matches_individual(self):
        lstm = LSTM(2, 3, RNG)
        a = RNG.normal(size=(3, 2))
        b = RNG.normal(size=(1, 2))
        batch = np.zeros((2, 3, 2))
        batch[0] = a
        batch[1, :1] = b
        mask = np.array([[1.0, 1.0, 1.0], [1.0, 0.0, 0.0]])
        h = lstm(Tensor(batch), mask)
        h_a = lstm(Tensor(a[None]), np.ones((1, 3)))
        h_b = lstm(Tensor(b[None]), np.ones((1, 1)))
        assert np.allclose(h.data[0], h_a.data[0])
        assert np.allclose(h.data[1], h_b.data[0])

    def test_gradients_flow_to_all_params(self):
        lstm = LSTM(2, 3, RNG)
        h = lstm(Tensor(RNG.normal(size=(2, 3, 2))), np.ones((2, 3)))
        (h * h).sum().backward()
        for p in lstm.parameters():
            assert p.grad is not None and np.abs(p.grad).sum() > 0


class TestOptim:
    def _quadratic_setup(self):
        target = np.array([1.0, -2.0, 3.0])
        param = Parameter(np.zeros(3))
        return target, param

    def test_sgd_converges(self):
        target, param = self._quadratic_setup()
        opt = SGD([param], lr=0.1)
        for _ in range(200):
            opt.zero_grad()
            loss = ((param - Tensor(target)) ** 2).sum()
            loss.backward()
            opt.step()
        assert np.allclose(param.data, target, atol=1e-3)

    def test_sgd_momentum_converges(self):
        target, param = self._quadratic_setup()
        opt = SGD([param], lr=0.05, momentum=0.9)
        for _ in range(200):
            opt.zero_grad()
            ((param - Tensor(target)) ** 2).sum().backward()
            opt.step()
        assert np.allclose(param.data, target, atol=1e-3)

    def test_adam_converges(self):
        target, param = self._quadratic_setup()
        opt = Adam([param], lr=0.1)
        for _ in range(300):
            opt.zero_grad()
            ((param - Tensor(target)) ** 2).sum().backward()
            opt.step()
        assert np.allclose(param.data, target, atol=1e-2)

    def test_weight_decay_shrinks_params(self):
        param = Parameter(np.array([10.0]))
        opt = Adam([param], lr=0.1, weight_decay=1.0)
        for _ in range(50):
            opt.zero_grad()
            (param * 0.0).sum().backward()  # zero data gradient
            opt.step()
        assert abs(param.data[0]) < 10.0

    def test_step_skips_gradless_params(self):
        param = Parameter(np.ones(2))
        opt = Adam([param], lr=0.1)
        opt.step()  # no grads accumulated; must not raise
        assert np.allclose(param.data, 1.0)

    @pytest.mark.parametrize("weight_decay", [0.0, 1e-2])
    def test_adam_flat_update_matches_per_parameter_loop(self, weight_decay):
        """The flat update leaves every weight bit-identical to the
        per-parameter reference loop below, and parameters without a
        gradient keep their data and moments."""
        rng = np.random.default_rng(3)
        shapes = [(3, 4), (4,), (), (2, 5)]
        params = [Parameter(rng.normal(size=shape)) for shape in shapes]
        twins = [Parameter(param.data.copy()) for param in params]
        opt = Adam(params, lr=0.05, weight_decay=weight_decay)
        ref = PerParameterAdam(twins, lr=0.05, weight_decay=weight_decay)
        for step in range(6):
            skipped = step % len(shapes) if step >= 2 else None
            for index, (param, twin) in enumerate(zip(params, twins)):
                grad = rng.normal(size=shapes[index])
                param.grad = None if index == skipped else grad.copy()
                twin.grad = None if index == skipped else grad.copy()
            frozen = None if skipped is None else params[skipped].data.copy()
            opt.step()
            ref.step()
            if skipped is not None:
                assert np.array_equal(params[skipped].data, frozen)
            for index, (param, twin) in enumerate(zip(params, twins)):
                assert param.data.shape == twin.data.shape
                assert param.data.tobytes() == twin.data.tobytes(), (step, index)
                span = slice(opt._offsets[index], opt._offsets[index + 1])
                assert opt._m[span].tobytes() == ref.m[index].tobytes()
                assert opt._v[span].tobytes() == ref.v[index].tobytes()


class PerParameterAdam:
    """The Adam oracle: one update per parameter, each in its own arrays."""

    def __init__(self, params, lr, weight_decay, betas=(0.9, 0.999), eps=1e-8):
        self.params = params
        self.lr, self.weight_decay, self.eps = lr, weight_decay, eps
        self.beta1, self.beta2 = betas
        self.t = 0
        self.m = [np.zeros_like(p.data) for p in params]
        self.v = [np.zeros_like(p.data) for p in params]

    def step(self):
        self.t += 1
        bias1 = 1.0 - self.beta1**self.t
        bias2 = 1.0 - self.beta2**self.t
        for param, m, v in zip(self.params, self.m, self.v):
            if param.grad is None:
                continue
            grad = param.grad
            if self.weight_decay:
                grad = grad + self.weight_decay * param.data
            m *= self.beta1
            m += (1.0 - self.beta1) * grad
            v *= self.beta2
            v += (1.0 - self.beta2) * grad * grad
            m_hat = m / bias1
            v_hat = v / bias2
            param.data = param.data - self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


class TestLoss:
    def test_class_weights_inverse_frequency(self):
        weights = class_weights_from_labels(np.array([0, 0, 0, 1]))
        assert weights[1] > weights[0]

    def test_class_weights_missing_class(self):
        weights = class_weights_from_labels(np.array([1, 1]))
        assert weights.shape == (2,)
        assert np.isfinite(weights).all()

    def test_weighted_ce_matches_manual(self):
        logits = Tensor(np.array([[2.0, 0.0], [0.0, 1.0]]))
        labels = np.array([0, 1])
        weights = np.array([1.0, 3.0])
        loss = weighted_cross_entropy(logits, labels, weights)
        probs = np.exp(logits.data) / np.exp(logits.data).sum(1, keepdims=True)
        manual = -(1.0 * np.log(probs[0, 0]) + 3.0 * np.log(probs[1, 1])) / 4.0
        assert np.isclose(loss.item(), manual, atol=1e-8)

    def test_ce_gradient_direction(self):
        logits = Tensor(np.zeros((1, 2)), requires_grad=True)
        weighted_cross_entropy(logits, np.array([1])).backward()
        assert logits.grad[0, 1] < 0  # push class-1 logit up

    def test_regularizer_decreases_with_norm(self):
        small = Tensor(np.ones((2, 4)) * 0.1)
        large = Tensor(np.ones((2, 4)) * 10.0)
        seg = np.array([0, 1])
        r_small = attention_norm_regularizer(small, seg, 2).item()
        r_large = attention_norm_regularizer(large, seg, 2).item()
        assert r_small > r_large

    def test_veribug_loss_parts(self):
        logits = Tensor(RNG.normal(size=(3, 2)), requires_grad=True)
        updated = Tensor(RNG.normal(size=(6, 4)), requires_grad=True)
        seg = np.array([0, 0, 1, 1, 2, 2])
        loss, parts = veribug_loss(
            logits, np.array([0, 1, 0]), updated, seg, alpha=0.5
        )
        assert np.isclose(loss.item(), parts["ce"] + 0.5 * parts["reg"], atol=1e-9)
        loss.backward()
        assert logits.grad is not None and updated.grad is not None


class TestSerialization:
    def test_save_load_roundtrip(self, tmp_path):
        mlp = MLP([3, 4, 2], RNG)
        path = tmp_path / "model.npz"
        save_state(mlp, path)
        other = MLP([3, 4, 2], np.random.default_rng(5))
        load_state(other, path)
        x = Tensor(RNG.normal(size=(2, 3)))
        assert np.allclose(mlp(x).data, other(x).data)
