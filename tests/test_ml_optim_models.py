"""Tests for optimizers, model factories and the ClassifierModel wrapper."""

from __future__ import annotations

import numpy as np
import pytest

from repro.ml.data import ArrayDataset, DataLoader
from repro.ml.layers import Linear, Sequential
from repro.ml.models import ClassifierModel, make_mlp, make_paper_mlp
from repro.ml.optim import Adam

from _support import SquaredError, make_blobs


def _quadratic_model(start=5.0):
    """A 1-parameter 'network' whose loss is (w - 0)^2 — easy convergence target."""
    layer = Linear(1, 1, bias=False, rng=np.random.default_rng(0))
    layer.params["weight"][:] = start
    return Sequential([layer])


def _step_quadratic(model, optimizer, steps=200):
    x = np.ones((1, 1))
    target = np.zeros((1, 1))
    loss_fn = SquaredError()
    for _ in range(steps):
        optimizer.zero_grad()
        loss_fn.forward(model.forward(x, training=True), target)
        model.backward(loss_fn.backward())
        optimizer.step()
    return abs(float(model.parameters()["0.weight"].ravel()[0]))


class TestOptimizers:
    def test_adam_converges_on_quadratic(self):
        model = _quadratic_model()
        assert _step_quadratic(model, Adam(model, lr=0.1), steps=400) < 1e-2

    def test_invalid_hyperparameters(self):
        model = _quadratic_model()
        with pytest.raises(ValueError):
            Adam(model, lr=-1)
        with pytest.raises(ValueError):
            Adam(model, lr=0.0)
        with pytest.raises(ValueError):
            Adam(model, lr=0.1, betas=(1.0, 0.999))

    def test_adam_state_survives_parameter_overwrite(self):
        """FedAvg overwrites parameter values in place; moments must still apply."""
        model = _quadratic_model()
        optimizer = Adam(model, lr=0.1)
        _step_quadratic(model, optimizer, steps=3)
        state = model.state_dict()
        state["0.weight"][:] = 3.0
        model.load_state_dict(state)
        final = _step_quadratic(model, optimizer, steps=300)
        assert final < 0.1


def _allocating_adam_step(optimizer, moments):
    """``Adam.step`` as a chain of fresh arrays: the reference for the in-place form."""
    optimizer._t += 1
    bias1 = 1.0 - optimizer.beta1**optimizer._t
    bias2 = 1.0 - optimizer.beta2**optimizer._t
    grads = optimizer.model.parameter_grads()
    for name, param in optimizer.model.parameters().items():
        grad = grads[name]
        m, v = moments.setdefault(name, (np.zeros_like(param), np.zeros_like(param)))
        m *= optimizer.beta1
        m += (1.0 - optimizer.beta1) * grad
        v *= optimizer.beta2
        v += (1.0 - optimizer.beta2) * np.square(grad)
        param -= optimizer.lr * (m / bias1) / (np.sqrt(v / bias2) + optimizer.eps)


class TestAdamInPlace:
    def _twins(self):
        """Two same-architecture models per side, stepped interleaved, so the
        in-place side's optimizers contend for one scratch pair per shape."""
        return [ClassifierModel(make_mlp(6, [5], 3, seed=seed)) for seed in (1, 2)]

    def test_bit_identical_to_the_allocating_form(self):
        dataset = make_blobs(num_samples=96, num_features=6, num_classes=3, seed=0)
        in_place, reference = self._twins(), self._twins()
        optimizers = [Adam(model.network, lr=0.01) for model in in_place]
        shadows = [Adam(model.network, lr=0.01) for model in reference]
        moments = [{}, {}]
        for _ in range(3):
            for features, labels in DataLoader(dataset, 16, rng=np.random.default_rng(5)):
                for index in range(2):
                    for model, step in (
                        (in_place[index], optimizers[index].step),
                        (reference[index], lambda: _allocating_adam_step(shadows[index], moments[index])),
                    ):
                        model.network.zero_grad()
                        model.loss_fn.forward(model.network.forward(features, training=True), labels)
                        model.network.backward(model.loss_fn.backward())
                        step()
        for ours, theirs in zip(in_place, reference):
            for name, value in ours.network.parameters().items():
                assert np.array_equal(value, theirs.network.parameters()[name]), name

    def test_moments_are_created_once_and_scratch_is_shared_per_shape(self):
        first, second = (_quadratic_model() for _ in range(2))
        a, b = Adam(first, lr=0.1), Adam(second, lr=0.1)
        _step_quadratic(first, a, steps=1)
        m, v = a._m["0.weight"], a._v["0.weight"]
        _step_quadratic(first, a, steps=3)
        _step_quadratic(second, b, steps=1)
        assert a._m["0.weight"] is m and a._v["0.weight"] is v
        assert b._m["0.weight"] is not m
        from repro.ml.optim import _scratch_pair

        assert _scratch_pair(first.parameters()["0.weight"])[0] is _scratch_pair(
            second.parameters()["0.weight"]
        )[0]


class TestModelFactories:
    def test_make_mlp_shapes(self):
        model = make_mlp(input_dim=20, hidden_dims=(16, 8), num_classes=4, seed=0)
        out = model.forward(np.zeros((3, 20)))
        assert out.shape == (3, 4)

    def test_same_seed_same_weights(self):
        a = make_mlp(10, (8,), 3, seed=5).state_dict()
        b = make_mlp(10, (8,), 3, seed=5).state_dict()
        for key in a:
            np.testing.assert_array_equal(a[key], b[key])

    def test_different_seed_different_weights(self):
        a = make_mlp(10, (8,), 3, seed=5).state_dict()
        b = make_mlp(10, (8,), 3, seed=6).state_dict()
        assert any(not np.array_equal(a[k], b[k]) for k in a)

    def test_paper_mlp_dimensions(self):
        model = make_paper_mlp(input_dim=256, num_classes=10)
        assert model.forward(np.zeros((2, 256))).shape == (2, 10)
        assert model.num_parameters == 256 * 64 + 64 + 64 * 10 + 10


class TestClassifierModel:
    def test_training_improves_accuracy(self, blobs_dataset):
        model = ClassifierModel(make_mlp(blobs_dataset.num_features, (16,), blobs_dataset.num_classes, seed=0))
        before = model.accuracy(blobs_dataset)
        model.fit(blobs_dataset, epochs=10, batch_size=32, lr=1e-2, rng=np.random.default_rng(0))
        after = model.accuracy(blobs_dataset)
        assert after > before
        assert after > 0.85

    def test_evaluate_returns_loss_and_accuracy(self, blobs_dataset):
        model = ClassifierModel(make_mlp(blobs_dataset.num_features, (8,), blobs_dataset.num_classes, seed=0))
        metrics = model.evaluate(blobs_dataset)
        assert set(metrics) == {"loss", "accuracy"}
        assert 0.0 <= metrics["accuracy"] <= 1.0
        assert metrics["loss"] > 0

    def test_evaluate_empty_dataset_rejected(self):
        model = ClassifierModel(make_mlp(4, (4,), 2, seed=0))
        empty = ArrayDataset(np.zeros((0, 4)), np.zeros(0, dtype=int))
        with pytest.raises(ValueError):
            model.evaluate(empty)

    def test_state_dict_roundtrip_preserves_predictions(self, blobs_dataset):
        model = ClassifierModel(make_mlp(blobs_dataset.num_features, (8,), blobs_dataset.num_classes, seed=1))
        model.fit(blobs_dataset, epochs=2, rng=np.random.default_rng(0))
        predictions = model.predict(blobs_dataset.features)
        clone = ClassifierModel(make_mlp(blobs_dataset.num_features, (8,), blobs_dataset.num_classes, seed=99))
        clone.load_state_dict(model.state_dict())
        np.testing.assert_array_equal(clone.predict(blobs_dataset.features), predictions)

    def test_train_epoch_rejects_foreign_optimizer(self, blobs_dataset):
        model = ClassifierModel(make_mlp(blobs_dataset.num_features, (8,), blobs_dataset.num_classes))
        other = make_mlp(blobs_dataset.num_features, (8,), blobs_dataset.num_classes)
        loader = DataLoader(blobs_dataset, batch_size=16)
        with pytest.raises(ValueError):
            model.train_epoch(loader, Adam(other, lr=1e-3))

    def test_fit_requires_positive_epochs(self, blobs_dataset):
        model = ClassifierModel(make_mlp(blobs_dataset.num_features, (8,), blobs_dataset.num_classes))
        with pytest.raises(ValueError):
            model.fit(blobs_dataset, epochs=0)

    def test_deterministic_training_given_seeds(self, blobs_dataset):
        def train():
            model = ClassifierModel(make_mlp(blobs_dataset.num_features, (8,), blobs_dataset.num_classes, seed=3))
            model.fit(blobs_dataset, epochs=2, rng=np.random.default_rng(7))
            return model.state_dict()

        a, b = train(), train()
        for key in a:
            np.testing.assert_array_equal(a[key], b[key])
