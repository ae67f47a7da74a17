"""Offline (local, non-federated) training baseline.

This is the "Offline Training" curve of the paper's Fig. 7: a single pipeline
trains the same MLP on a centrally held fraction of the dataset (5 % in the
paper, versus 1 % per client for the 5 FL clients), and test accuracy is
recorded after every block of ``local_epochs`` epochs so the curve is directly
comparable to the per-round FL accuracies.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from repro.ml.data import ArrayDataset, DataLoader
from repro.ml.models import ClassifierModel, make_paper_mlp
from repro.ml.optim import Adam
from repro.utils.rng import SeedSequenceFactory
from repro.utils.validation import require_in_range, require_positive

__all__ = ["OfflineTrainingBaseline", "OfflineResult"]


@dataclass
class OfflineResult:
    """Per-round accuracies of the offline training baseline."""

    accuracies: List[float] = field(default_factory=list)
    losses: List[float] = field(default_factory=list)
    num_train_samples: int = 0


class OfflineTrainingBaseline:
    """Train one model locally on a data fraction and track round-wise accuracy.

    Parameters
    ----------
    train_set, test_set:
        The full training pool and the held-out evaluation set.
    data_fraction:
        Fraction of ``train_set`` given to the local pipeline (the paper uses
        5 % to match 5 clients × 1 %).
    rounds:
        Number of "rounds"; each round trains ``local_epochs`` epochs and then
        evaluates, mirroring the FL round structure.
    local_epochs, batch_size, learning_rate:
        Optimization hyper-parameters, kept identical to the FL clients.
    seed:
        Controls the subsample selection, weight init and batch shuffling.
    """

    def __init__(
        self,
        train_set: ArrayDataset,
        test_set: ArrayDataset,
        data_fraction: float = 0.05,
        rounds: int = 10,
        local_epochs: int = 5,
        batch_size: int = 32,
        learning_rate: float = 1e-3,
        seed: int = 42,
        model: Optional[ClassifierModel] = None,
    ) -> None:
        require_in_range(data_fraction, "data_fraction", 0.0, 1.0, inclusive=False)
        require_positive(rounds, "rounds")
        require_positive(local_epochs, "local_epochs")
        self.seeds = SeedSequenceFactory(seed)
        self.rounds = int(rounds)
        self.local_epochs = int(local_epochs)
        self.batch_size = int(batch_size)
        self.learning_rate = float(learning_rate)
        self.test_set = test_set

        count = max(1, int(round(len(train_set) * data_fraction)))
        indices = self.seeds.generator("subsample").choice(len(train_set), size=count, replace=False)
        self.train_subset = train_set.subset(indices)

        if model is None:
            network = make_paper_mlp(input_dim=train_set.num_features, num_classes=test_set.num_classes, seed=seed)
            model = ClassifierModel(network, name="offline_mlp")
        self.model = model
        self.optimizer = Adam(self.model.network, lr=self.learning_rate)

    def run(self) -> OfflineResult:
        """Train for all rounds; returns the accuracy/loss trajectory."""
        result = OfflineResult(num_train_samples=len(self.train_subset))
        loader = DataLoader(
            self.train_subset,
            batch_size=self.batch_size,
            shuffle=True,
            rng=self.seeds.generator("loader"),
        )
        for _round_index in range(self.rounds):
            epoch_losses = [
                self.model.train_epoch(loader, self.optimizer) for _ in range(self.local_epochs)
            ]
            evaluation = self.model.evaluate(self.test_set)
            result.accuracies.append(float(evaluation["accuracy"]))
            result.losses.append(float(np.mean(epoch_losses)))
        return result
