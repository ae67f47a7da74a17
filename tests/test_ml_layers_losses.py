"""Tests for layers and losses, including numerical gradient checks."""

from __future__ import annotations

import numpy as np
import pytest

from repro.ml.layers import Linear, ReLU, Sequential
from repro.ml.losses import CrossEntropyLoss, softmax

from _support import SquaredError


def numerical_gradient(f, x, eps=1e-6):
    """Central-difference gradient of a scalar function f at x."""
    grad = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"], op_flags=["readwrite"])
    while not it.finished:
        index = it.multi_index
        original = x[index]
        x[index] = original + eps
        plus = f()
        x[index] = original - eps
        minus = f()
        x[index] = original
        grad[index] = (plus - minus) / (2 * eps)
        it.iternext()
    return grad


class TestLinear:
    def test_forward_shape(self):
        layer = Linear(8, 4, rng=np.random.default_rng(0))
        out = layer.forward(np.random.default_rng(1).normal(size=(10, 8)))
        assert out.shape == (10, 4)

    def test_forward_wrong_shape_rejected(self):
        layer = Linear(8, 4)
        with pytest.raises(ValueError):
            layer.forward(np.zeros((10, 7)))

    def test_backward_before_forward_rejected(self):
        layer = Linear(4, 2)
        with pytest.raises(RuntimeError):
            layer.backward(np.zeros((1, 2)))

    def test_weight_gradient_matches_numerical(self):
        rng = np.random.default_rng(0)
        layer = Linear(5, 3, rng=rng)
        x = rng.normal(size=(7, 5))
        target = rng.normal(size=(7, 3))
        loss_fn = SquaredError()

        def loss_value():
            return loss_fn.forward(layer.forward(x, training=True), target)

        loss_value()
        layer.zero_grad()
        grad_out = loss_fn.backward()
        layer.backward(grad_out)
        numeric = numerical_gradient(loss_value, layer.params["weight"])
        np.testing.assert_allclose(layer.grads["weight"], numeric, rtol=1e-4, atol=1e-6)

    def test_bias_gradient_matches_numerical(self):
        rng = np.random.default_rng(3)
        layer = Linear(4, 2, rng=rng)
        x = rng.normal(size=(6, 4))
        target = rng.normal(size=(6, 2))
        loss_fn = SquaredError()

        def loss_value():
            return loss_fn.forward(layer.forward(x, training=True), target)

        loss_value()
        layer.zero_grad()
        layer.backward(loss_fn.backward())
        numeric = numerical_gradient(loss_value, layer.params["bias"])
        np.testing.assert_allclose(layer.grads["bias"], numeric, rtol=1e-4, atol=1e-6)

    def test_input_gradient_matches_numerical(self):
        rng = np.random.default_rng(5)
        layer = Linear(4, 3, rng=rng)
        x = rng.normal(size=(2, 4))
        target = rng.normal(size=(2, 3))
        loss_fn = SquaredError()

        def loss_value():
            return loss_fn.forward(layer.forward(x, training=True), target)

        loss_value()
        layer.zero_grad()
        input_grad = layer.backward(loss_fn.backward())
        numeric = numerical_gradient(loss_value, x)
        np.testing.assert_allclose(input_grad, numeric, rtol=1e-4, atol=1e-6)

    def test_no_bias_option(self):
        layer = Linear(3, 2, bias=False)
        assert "bias" not in layer.params
        assert layer.num_parameters == 6

    def test_unknown_init_rejected(self):
        with pytest.raises(ValueError):
            Linear(3, 2, init="bogus")

    def test_he_and_xavier_initializations_differ(self):
        a = Linear(100, 100, rng=np.random.default_rng(0), init="he").params["weight"].std()
        b = Linear(100, 100, rng=np.random.default_rng(0), init="xavier").params["weight"].std()
        assert abs(a - b) > 1e-3


class TestActivations:
    @pytest.mark.parametrize("layer_cls", [ReLU])
    def test_activation_gradients_match_numerical(self, layer_cls):
        rng = np.random.default_rng(7)
        layer = layer_cls()
        x = rng.normal(size=(4, 6)) + 0.1  # avoid the ReLU kink at exactly 0
        target = rng.normal(size=(4, 6))
        loss_fn = SquaredError()

        def loss_value():
            return loss_fn.forward(layer.forward(x, training=True), target)

        loss_value()
        input_grad = layer.backward(loss_fn.backward())
        numeric = numerical_gradient(loss_value, x)
        np.testing.assert_allclose(input_grad, numeric, rtol=1e-4, atol=1e-6)

    def test_relu_clips_negative(self):
        out = ReLU().forward(np.array([[-1.0, 0.0, 2.0]]))
        np.testing.assert_array_equal(out, [[0.0, 0.0, 2.0]])

    def test_backward_before_forward_rejected(self):
        for layer in (ReLU(),):
            with pytest.raises(RuntimeError):
                layer.backward(np.zeros((1, 1)))


class TestFlattenAndSequential:
    def test_sequential_state_dict_roundtrip(self):
        rng = np.random.default_rng(0)
        model = Sequential([Linear(6, 4, rng=rng), ReLU(), Linear(4, 3, rng=rng)])
        state = model.state_dict()
        assert set(state) == {"0.weight", "0.bias", "2.weight", "2.bias"}
        other = Sequential([Linear(6, 4, rng=np.random.default_rng(9)), ReLU(), Linear(4, 3, rng=np.random.default_rng(8))])
        other.load_state_dict(state)
        x = rng.normal(size=(5, 6))
        np.testing.assert_allclose(model.forward(x), other.forward(x))

    def test_state_dict_copy_isolated(self):
        model = Sequential([Linear(3, 2)])
        state = model.state_dict(copy=True)
        state["0.weight"][:] = 99
        assert not np.any(model.params_view()["0.weight"] == 99) if hasattr(model, "params_view") else True
        assert not np.any(model.state_dict()["0.weight"] == 99)

    def test_load_state_dict_strict_mismatch(self):
        model = Sequential([Linear(3, 2)])
        with pytest.raises(KeyError):
            model.load_state_dict({"0.weight": np.zeros((3, 2))})  # missing bias
        with pytest.raises(KeyError):
            model.load_state_dict({**model.state_dict(), "extra": np.zeros(1)})

    def test_load_state_dict_shape_mismatch(self):
        model = Sequential([Linear(3, 2)])
        bad = model.state_dict()
        bad["0.weight"] = np.zeros((2, 3))
        with pytest.raises(ValueError):
            model.load_state_dict(bad)

    def test_load_state_dict_non_strict_ignores_unknown(self):
        model = Sequential([Linear(3, 2)])
        state = model.state_dict()
        model.load_state_dict({**state, "phantom": np.zeros(3)}, strict=False)

    def test_num_parameters(self):
        model = Sequential([Linear(10, 5), ReLU(), Linear(5, 2)])
        assert model.num_parameters == 10 * 5 + 5 + 5 * 2 + 2

    def test_full_network_gradient_check(self):
        rng = np.random.default_rng(11)
        model = Sequential([Linear(4, 6, rng=rng), ReLU(), Linear(6, 3, rng=rng)])
        x = rng.normal(size=(5, 4))
        labels = rng.integers(0, 3, size=5)
        loss_fn = CrossEntropyLoss()

        def loss_value():
            return loss_fn.forward(model.forward(x, training=True), labels)

        loss_value()
        model.zero_grad()
        model.backward(loss_fn.backward())
        analytic = model.parameter_grads()
        for name, param in model.parameters().items():
            numeric = numerical_gradient(loss_value, param)
            np.testing.assert_allclose(analytic[name], numeric, rtol=1e-3, atol=1e-6)

    def test_zero_grad_resets(self):
        model = Sequential([Linear(3, 2)])
        x = np.ones((2, 3))
        loss_fn = SquaredError()
        loss_fn.forward(model.forward(x, training=True), np.zeros((2, 2)))
        model.backward(loss_fn.backward())
        model.zero_grad()
        assert all(np.all(g == 0) for g in model.parameter_grads().values())


class TestLosses:
    def test_softmax_rows_sum_to_one(self):
        probs = softmax(np.random.default_rng(0).normal(size=(8, 5)) * 10)
        np.testing.assert_allclose(probs.sum(axis=1), np.ones(8))

    def test_softmax_numerically_stable(self):
        probs = softmax(np.array([[1e4, 0.0, -1e4]]))
        assert np.isfinite(probs).all()

    def test_cross_entropy_perfect_prediction_near_zero(self):
        logits = np.array([[100.0, 0.0], [0.0, 100.0]])
        assert CrossEntropyLoss().forward(logits, np.array([0, 1])) < 1e-6

    def test_cross_entropy_uniform_equals_log_k(self):
        logits = np.zeros((4, 10))
        assert CrossEntropyLoss().forward(logits, np.zeros(4, dtype=int)) == pytest.approx(np.log(10))

    def test_cross_entropy_gradient_matches_numerical(self):
        rng = np.random.default_rng(2)
        logits = rng.normal(size=(6, 4))
        labels = rng.integers(0, 4, size=6)
        loss_fn = CrossEntropyLoss()

        def loss_value():
            return loss_fn.forward(logits, labels)

        loss_value()
        analytic = loss_fn.backward()
        numeric = numerical_gradient(loss_value, logits)
        np.testing.assert_allclose(analytic, numeric, rtol=1e-4, atol=1e-7)

    def test_cross_entropy_invalid_labels(self):
        with pytest.raises(ValueError):
            CrossEntropyLoss().forward(np.zeros((2, 3)), np.array([0, 5]))
        with pytest.raises(ValueError):
            CrossEntropyLoss().forward(np.zeros((2, 3)), np.array([0]))
        with pytest.raises(ValueError):
            CrossEntropyLoss().forward(np.zeros(3), np.array([0]))

    def test_cross_entropy_backward_before_forward(self):
        with pytest.raises(RuntimeError):
            CrossEntropyLoss().backward()
