"""Helpers shared by the test modules (imported as ``_support``)."""

from __future__ import annotations

import numpy as np

from repro.ml.data import ArrayDataset
from repro.mqtt.client import MQTTClient
from repro.utils.rng import rng_from_seed


def make_blobs(
    num_samples: int = 1000,
    num_classes: int = 4,
    num_features: int = 32,
    separation: float = 3.0,
    noise: float = 1.0,
    seed: int = 0,
) -> ArrayDataset:
    """A Gaussian-blob classification task, easier than the digits, for fast ML tests."""
    rng = rng_from_seed(seed, "gaussian_blobs")
    centers = rng.normal(0.0, separation, size=(num_classes, num_features))
    labels = rng.integers(0, num_classes, size=num_samples)
    features = centers[labels] + rng.normal(0.0, noise, size=(num_samples, num_features))
    return ArrayDataset(features, labels.astype(np.int64))


def states_allclose(a, b, rtol: float = 1e-6, atol: float = 1e-8) -> bool:
    """Whether two state dicts have the same keys and shapes and element-wise close values."""
    return set(a) == set(b) and all(
        np.shape(a[name]) == np.shape(b[name])
        and np.allclose(a[name], b[name], rtol=rtol, atol=atol)
        for name in a
    )


class SquaredError:
    """Mean squared error with its gradient: the regression loss the gradient checks use."""

    def forward(self, predictions: np.ndarray, targets: np.ndarray) -> float:
        self._diff = predictions - targets
        return float(np.mean(self._diff**2))

    def backward(self) -> np.ndarray:
        return 2.0 * self._diff / self._diff.size


def drain(client: MQTTClient) -> int:
    """Dispatch everything in a scheduler-less client's inbox; returns the count handled.

    Without an event scheduler the broker hands deliveries straight to the
    subscriber's inbox; this plays them through the client's callbacks in
    arrival order (a QoS 2 duplicate is consumed but not counted).
    """
    return sum(
        client._dispatch_message(record.message, record.effective_qos)
        for record in client.take_pending()
    )
