"""Datasets and mini-batch loaders."""

from __future__ import annotations

from typing import Iterator, Optional, Tuple

import numpy as np

from repro.utils.validation import require_positive

__all__ = ["ArrayDataset", "DataLoader", "train_test_split"]


class ArrayDataset:
    """A dataset backed by in-memory feature and label arrays.

    Features are stored as a contiguous 2-D ``float64`` array (samples ×
    features) and labels as a 1-D integer array; slicing returns views, so
    client partitions share the underlying memory with the full dataset.
    """

    def __init__(self, features: np.ndarray, labels: np.ndarray) -> None:
        features = np.ascontiguousarray(features, dtype=np.float64)
        labels = np.ascontiguousarray(labels)
        if features.ndim == 1:
            features = features.reshape(-1, 1)
        if features.ndim != 2:
            raise ValueError(f"features must be 2-D, got shape {features.shape}")
        if labels.ndim != 1:
            raise ValueError(f"labels must be 1-D, got shape {labels.shape}")
        if len(features) != len(labels):
            raise ValueError(
                f"features ({len(features)}) and labels ({len(labels)}) lengths differ"
            )
        self.features = features
        self.labels = labels

    def __len__(self) -> int:
        return len(self.labels)

    @property
    def num_features(self) -> int:
        """Width of the feature matrix."""
        return int(self.features.shape[1])

    @property
    def num_classes(self) -> int:
        """Number of distinct labels present (assumes labels are 0..K-1)."""
        if len(self.labels) == 0:
            return 0
        return int(self.labels.max()) + 1

    def subset(self, indices: np.ndarray) -> "ArrayDataset":
        """Return a new dataset containing only the rows in ``indices``."""
        indices = np.asarray(indices, dtype=np.intp)
        return ArrayDataset(self.features[indices], self.labels[indices])


class DataLoader:
    """Iterates a dataset in shuffled mini-batches.

    Shuffling uses the provided generator so that identical seeds reproduce
    identical batch orderings, which keeps FL experiments bit-for-bit
    repeatable.
    """

    def __init__(
        self,
        dataset: ArrayDataset,
        batch_size: int = 32,
        shuffle: bool = True,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        require_positive(batch_size, "batch_size")
        self.dataset = dataset
        self.batch_size = int(batch_size)
        self.shuffle = bool(shuffle)
        self.rng = rng or np.random.default_rng(0)

    def draw_order(self) -> np.ndarray:
        """One epoch's sample order, advancing the generator when shuffling."""
        order = np.arange(len(self.dataset))
        if self.shuffle:
            self.rng.shuffle(order)
        return order

    def batches(self, order: np.ndarray) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
        """The mini-batches of one epoch that visits the samples in ``order``."""
        for start in range(0, len(order), self.batch_size):
            batch = order[start : start + self.batch_size]
            yield self.dataset.features[batch], self.dataset.labels[batch]

    def __iter__(self) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
        return self.batches(self.draw_order())


def train_test_split(
    dataset: ArrayDataset,
    test_fraction: float = 0.2,
    rng: Optional[np.random.Generator] = None,
) -> Tuple[ArrayDataset, ArrayDataset]:
    """Split a dataset into train/test subsets with a shuffled boundary."""
    if not 0.0 < test_fraction < 1.0:
        raise ValueError(f"test_fraction must be in (0, 1), got {test_fraction}")
    rng = rng or np.random.default_rng(0)
    n = len(dataset)
    order = rng.permutation(n)
    n_test = max(1, int(round(n * test_fraction)))
    test_idx, train_idx = order[:n_test], order[n_test:]
    return dataset.subset(train_idx), dataset.subset(test_idx)
