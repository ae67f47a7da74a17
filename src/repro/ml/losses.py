"""Loss functions with analytically fused gradients."""

from __future__ import annotations

from typing import Tuple

import numpy as np

__all__ = ["softmax", "CrossEntropyLoss"]


def softmax(logits: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable softmax."""
    shifted = logits - logits.max(axis=axis, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=axis, keepdims=True)


class CrossEntropyLoss:
    """Softmax + categorical cross-entropy over integer class labels.

    ``forward`` returns the mean loss; ``backward`` returns the gradient with
    respect to the *logits* (the softmax Jacobian is folded in analytically,
    which is both faster and numerically safer than chaining a separate
    softmax layer).
    """

    def __init__(self) -> None:
        self._probs: np.ndarray | None = None
        self._labels: np.ndarray | None = None

    def forward(self, logits: np.ndarray, labels: np.ndarray) -> float:
        """Mean cross-entropy of ``logits`` (batch, classes) vs integer ``labels``."""
        if logits.ndim != 2:
            raise ValueError(f"logits must be 2-D (batch, classes), got shape {logits.shape}")
        labels = np.asarray(labels)
        if labels.ndim != 1 or labels.shape[0] != logits.shape[0]:
            raise ValueError(
                f"labels must be 1-D with length {logits.shape[0]}, got shape {labels.shape}"
            )
        if labels.min(initial=0) < 0 or labels.max(initial=0) >= logits.shape[1]:
            raise ValueError("labels out of range for the given number of classes")
        probs = softmax(logits)
        self._probs = probs
        self._labels = labels
        batch = np.arange(logits.shape[0])
        picked = np.clip(probs[batch, labels], 1e-12, None)
        return float(-np.mean(np.log(picked)))

    def backward(self) -> np.ndarray:
        """Gradient of the mean loss with respect to the logits."""
        if self._probs is None or self._labels is None:
            raise RuntimeError("backward called before forward")
        grad = self._probs.copy()
        batch = np.arange(grad.shape[0])
        grad[batch, self._labels] -= 1.0
        grad /= grad.shape[0]
        return grad
