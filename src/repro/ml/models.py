"""Model factories and the training wrapper used by FL clients.

:class:`ClassifierModel` bundles a :class:`~repro.ml.layers.Sequential`
network with a loss and exposes the operations the SDFLMQ training pipeline
needs: ``train_epoch``, ``evaluate``, ``state_dict`` / ``load_state_dict`` and
parameter metadata.  The factories build the specific architectures used by
the examples and benchmarks, including :func:`make_paper_mlp`, the fully
connected MLP from the paper's Listing 1 / Section VI evaluation.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from repro.ml.data import ArrayDataset, DataLoader
from repro.ml.layers import Linear, ReLU, Sequential
from repro.ml.losses import CrossEntropyLoss
from repro.ml.metrics import accuracy
from repro.ml.optim import Adam, Optimizer
from repro.utils.rng import rng_from_seed
from repro.utils.validation import require_positive

__all__ = ["ClassifierModel", "make_mlp", "make_paper_mlp"]


def make_mlp(
    input_dim: int,
    hidden_dims: tuple[int, ...] = (64,),
    num_classes: int = 10,
    seed: int = 0,
) -> Sequential:
    """Build a fully connected ReLU MLP classifier network.

    Parameters
    ----------
    input_dim:
        Number of input features.
    hidden_dims:
        Width of each hidden layer.
    num_classes:
        Number of output logits.
    seed:
        Seed for weight initialization; identical seeds produce identical
        initial weights, which FL experiments rely on to start every client
        from the same global model.
    """
    require_positive(input_dim, "input_dim")
    require_positive(num_classes, "num_classes")
    layers = []
    rng = rng_from_seed(seed, "mlp-init")
    previous = input_dim
    for layer_index, width in enumerate(hidden_dims):
        require_positive(width, f"hidden_dims[{layer_index}]")
        layers.append(Linear(previous, width, rng=rng, init="he"))
        layers.append(ReLU())
        previous = width
    layers.append(Linear(previous, num_classes, rng=rng, init="xavier"))
    return Sequential(layers)


def make_paper_mlp(input_dim: int = 256, num_classes: int = 10, seed: int = 0) -> Sequential:
    """The MLP used throughout the paper's evaluation (Listing 1, §VI).

    The paper does not give the exact layer widths; a single 64-unit hidden
    layer over a 16×16 input reproduces the reported behaviour (≈90 % accuracy
    after a couple of rounds on a digit task) while keeping payloads small
    enough for 20-client simulations to run quickly.
    """
    return make_mlp(input_dim=input_dim, hidden_dims=(64,), num_classes=num_classes, seed=seed)


class ClassifierModel:
    """A trainable classifier: network + cross-entropy loss + metadata.

    This is what the SDFLMQ client's *training pipeline* manipulates and what
    the *model controller* snapshots into state dicts for transmission.
    """

    def __init__(self, network: Sequential, name: str = "model") -> None:
        self.network = network
        self.name = name
        self.loss_fn = CrossEntropyLoss()

    # ----------------------------------------------------------------- sizes

    @property
    def num_parameters(self) -> int:
        """Total scalar parameter count."""
        return self.network.num_parameters

    # ------------------------------------------------------------- train/eval

    def train_epoch(self, loader: DataLoader, optimizer: Optimizer) -> float:
        """Run one epoch of mini-batch SGD; returns the mean training loss."""
        if optimizer.model is not self.network:
            raise ValueError("optimizer is bound to a different network")
        total_loss = 0.0
        batches = 0
        for features, labels in loader:
            optimizer.zero_grad()
            logits = self.network.forward(features, training=True)
            loss = self.loss_fn.forward(logits, labels)
            grad = self.loss_fn.backward()
            self.network.backward(grad)
            optimizer.step()
            total_loss += loss
            batches += 1
        if batches == 0:
            raise ValueError("training loader produced no batches")
        return total_loss / batches

    def fit(
        self,
        dataset: ArrayDataset,
        epochs: int = 1,
        batch_size: int = 32,
        lr: float = 1e-3,
        optimizer: Optional[Optimizer] = None,
        rng: Optional[np.random.Generator] = None,
    ) -> list[float]:
        """Convenience loop: train for ``epochs`` epochs, returning per-epoch losses."""
        require_positive(epochs, "epochs")
        optimizer = optimizer or Adam(self.network, lr=lr)
        loader = DataLoader(dataset, batch_size=batch_size, shuffle=True, rng=rng or np.random.default_rng(0))
        return [self.train_epoch(loader, optimizer) for _ in range(epochs)]

    def predict(self, features: np.ndarray) -> np.ndarray:
        """Predicted class indices for a feature matrix."""
        logits = self.network.forward(np.asarray(features, dtype=np.float64), training=False)
        return logits.argmax(axis=1)

    def evaluate(self, dataset: ArrayDataset, batch_size: int = 256) -> Dict[str, float]:
        """Return ``{"loss": ..., "accuracy": ...}`` over the whole dataset."""
        total_loss = 0.0
        correct = 0
        count = 0
        for start in range(0, len(dataset), batch_size):
            features = dataset.features[start : start + batch_size]
            labels = dataset.labels[start : start + batch_size]
            logits = self.network.forward(features, training=False)
            total_loss += self.loss_fn.forward(logits, labels) * len(labels)
            correct += int((logits.argmax(axis=1) == labels).sum())
            count += len(labels)
        if count == 0:
            raise ValueError("cannot evaluate on an empty dataset")
        return {"loss": total_loss / count, "accuracy": correct / count}

    def accuracy(self, dataset: ArrayDataset) -> float:
        """Test accuracy over ``dataset``."""
        return accuracy(self.predict(dataset.features), dataset.labels)

    # ------------------------------------------------------------- state dict

    def state_dict(self, copy: bool = True) -> Dict[str, np.ndarray]:
        """Snapshot the network parameters."""
        return self.network.state_dict(copy=copy)

    def load_state_dict(self, state: Dict[str, np.ndarray]) -> None:
        """Overwrite the network parameters from ``state``."""
        self.network.load_state_dict(state)
