"""Classification metrics."""

from __future__ import annotations

import numpy as np

__all__ = ["accuracy"]


def accuracy(predictions: np.ndarray, labels: np.ndarray) -> float:
    """Fraction of correct predictions.

    ``predictions`` may be class indices (1-D) or logits/probabilities (2-D,
    in which case the argmax is taken).
    """
    predictions = np.asarray(predictions)
    labels = np.asarray(labels)
    if predictions.ndim == 2:
        predictions = predictions.argmax(axis=1)
    if predictions.shape != labels.shape:
        raise ValueError(
            f"shape mismatch: predictions {predictions.shape} vs labels {labels.shape}"
        )
    if predictions.size == 0:
        raise ValueError("cannot compute accuracy of zero samples")
    return float(np.mean(predictions == labels))
