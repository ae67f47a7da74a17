"""Gradients are fleet-wide scratch; a trained model keeps no activations.

Every network of one architecture trains through one gradient set (one array
per state-dict key, shape and dtype in the process), and ``train_epoch`` drops
the last batch's activations when it returns, so between rounds a client holds
only its parameters and its optimizer's moments.
"""

from __future__ import annotations

import gc
import tracemalloc

import numpy as np
import pytest

from repro.ml.data import DataLoader
from repro.ml.layers import Linear, ReLU, Sequential
from repro.ml.losses import CrossEntropyLoss
from repro.ml.models import ClassifierModel, make_mlp
from repro.ml.optim import Adam
from repro.runtime.experiment import ExperimentConfig, FLExperiment

from _support import make_blobs
from test_ml_layers_losses import numerical_gradient


def test_same_shape_layers_keep_distinct_slots_and_true_gradients():
    rng = np.random.default_rng(4)
    model = Sequential([Linear(5, 5, rng=rng), ReLU(), Linear(5, 5, rng=rng)])
    x = rng.normal(size=(6, 5))
    labels = rng.integers(0, 5, size=6)
    loss_fn = CrossEntropyLoss()

    def loss_value():
        return loss_fn.forward(model.forward(x, training=True), labels)

    loss_value()
    model.zero_grad()
    model.backward(loss_fn.backward())
    analytic = model.parameter_grads()
    assert analytic["0.weight"] is not analytic["2.weight"]
    assert analytic["0.bias"] is not analytic["2.bias"]
    for name, param in model.parameters().items():
        numeric = numerical_gradient(loss_value, param)
        np.testing.assert_allclose(analytic[name], numeric, rtol=1e-3, atol=1e-6)


def _pair(private: bool):
    models = [ClassifierModel(make_mlp(6, (5,), 3, seed=seed)) for seed in (1, 2)]
    if private:  # the reference: one gradient set per layer, owned by that layer
        for model in models:
            for layer in model.network.layers:
                layer.grads = {name: np.zeros_like(p) for name, p in layer.params.items()}
    return models, [Adam(model.network, lr=0.01) for model in models]


def test_alternating_training_is_bit_identical_to_private_gradients():
    dataset = make_blobs(num_samples=80, num_features=6, num_classes=3, seed=1)
    shared, shared_opts = _pair(private=False)
    private, private_opts = _pair(private=True)
    for _ in range(2):
        for batch in DataLoader(dataset, 16, rng=np.random.default_rng(7)):
            for models, optimizers in ((shared, shared_opts), (private, private_opts)):
                for model, optimizer in zip(models, optimizers):
                    model.train_epoch([batch], optimizer)
    first, second = (model.network.parameter_grads() for model in shared)
    assert all(first[name] is second[name] for name in first)
    assert not any(
        first[name] is model.network.parameter_grads()[name] for model in private for name in first
    )
    for ours, theirs in zip(shared, private):
        for name, value in ours.state_dict().items():
            assert np.array_equal(value, theirs.state_dict()[name]), name


def test_train_epoch_keeps_no_activations():
    model = ClassifierModel(make_mlp(6, (5, 4), 3, seed=0))
    dataset = make_blobs(num_samples=40, num_features=6, num_classes=3, seed=2)
    model.train_epoch(DataLoader(dataset, 16, rng=np.random.default_rng(0)), Adam(model.network))
    for layer in model.network.layers:
        assert getattr(layer, "_input", None) is None and getattr(layer, "_mask", None) is None
    assert model.loss_fn._probs is None and model.loss_fn._labels is None


def _held_bytes(num_clients: int, trained: bool) -> tuple[int, int]:
    """Bytes a set-up experiment holds after one round, and its parameter bytes."""
    config = ExperimentConfig(
        num_clients=num_clients, fl_rounds=1, local_epochs=1, dataset_samples=2000,
        role_policy="static", num_regions=1, train_for_real=trained, seed=3,
    )
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        experiment = FLExperiment(config).setup()
        experiment.run_round(0)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    return held, experiment.client_models["client_000"].num_parameters * 8


@pytest.mark.parametrize("trained, budget", [(False, 1.5), (True, 4.0)], ids=["timing", "trained"])
def test_memory_per_extra_client(trained, budget):
    """Per extra client: parameters (1 ×), plus Adam's two moments when
    trained, plus bookkeeping; no gradient set and no cached batch."""
    _held_bytes(8, trained)  # warm-up: imports, interned names, the shared scratch
    small, param_bytes = _held_bytes(8, trained)
    large, _ = _held_bytes(16, trained)
    per_client = (large - small) / 8 / param_bytes
    assert per_client <= budget, f"{per_client:.2f} × the parameter bytes per extra client"
