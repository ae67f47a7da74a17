"""Weight initialization schemes for the numpy layers."""

from __future__ import annotations

from typing import Tuple

import numpy as np

__all__ = ["xavier_uniform", "he_normal", "zeros"]


def xavier_uniform(shape: Tuple[int, int], rng: np.random.Generator) -> np.ndarray:
    """Glorot/Xavier uniform initialization, suited to tanh/sigmoid layers."""
    fan_in, fan_out = shape[0], shape[1]
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


def he_normal(shape: Tuple[int, int], rng: np.random.Generator) -> np.ndarray:
    """He/Kaiming normal initialization, suited to ReLU layers."""
    fan_in = shape[0]
    std = np.sqrt(2.0 / fan_in)
    return rng.normal(0.0, std, size=shape)


def zeros(shape: Tuple[int, ...]) -> np.ndarray:
    """All-zero initialization (biases)."""
    return np.zeros(shape, dtype=np.float64)
