"""Synthetic datasets standing in for MNIST.

The paper evaluates on MNIST handwritten digits.  This environment has no
network access, so :func:`synthetic_digits` generates a deterministic
MNIST-like 10-class task: each class is a smooth random prototype "glyph" on a
``side × side`` grid; samples are produced by translating the prototype by a
couple of pixels, scaling its intensity, and adding pixel noise.  The task has
the properties the evaluation relies on: it is easy enough for a small MLP to
reach ~90 % test accuracy within a few epochs, hard enough that accuracy
climbs over multiple FL rounds, and class-structured so that non-IID
partitions meaningfully hurt convergence.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.ml.data import ArrayDataset
from repro.utils.rng import rng_from_seed
from repro.utils.validation import require_in_range, require_positive

__all__ = ["SyntheticDigitsConfig", "synthetic_digits"]


@dataclass(frozen=True)
class SyntheticDigitsConfig:
    """Configuration for the synthetic digits generator.

    Attributes
    ----------
    num_samples:
        Total number of samples to generate.
    num_classes:
        Number of digit classes (10 to mirror MNIST).
    side:
        Image side length; feature dimension is ``side * side`` (16 → 256,
        close to a down-scaled MNIST).
    noise:
        Standard deviation of the additive pixel noise.
    max_shift:
        Maximum per-sample translation (pixels) in each direction.
    seed:
        Seed controlling prototypes, shifts and noise.
    """

    num_samples: int = 2000
    num_classes: int = 10
    side: int = 16
    noise: float = 0.25
    max_shift: int = 2
    seed: int = 7

    def __post_init__(self) -> None:
        require_positive(self.num_samples, "num_samples")
        require_positive(self.num_classes, "num_classes")
        require_positive(self.side, "side")
        require_in_range(self.noise, "noise", 0.0, 10.0)
        require_in_range(self.max_shift, "max_shift", 0, self.side - 1)


def _smooth_prototype(rng: np.random.Generator, side: int) -> np.ndarray:
    """Generate a smooth, glyph-like prototype image in [0, 1]."""
    coarse_side = max(2, side // 4)
    coarse = rng.random((coarse_side, coarse_side))
    # Bilinear-ish upsampling by repeating then box-blurring keeps the
    # prototype smooth (structured) without needing scipy in the hot path.
    image = np.kron(coarse, np.ones((side // coarse_side + 1, side // coarse_side + 1)))
    image = image[:side, :side]
    kernel = np.ones((3, 3)) / 9.0
    padded = np.pad(image, 1, mode="edge")
    blurred = np.zeros_like(image)
    for dy in range(3):
        for dx in range(3):
            blurred += kernel[dy, dx] * padded[dy : dy + side, dx : dx + side]
    blurred -= blurred.min()
    peak = blurred.max()
    if peak > 0:
        blurred /= peak
    return blurred


def synthetic_digits(config: SyntheticDigitsConfig | None = None) -> ArrayDataset:
    """Generate the synthetic MNIST-like dataset described in the module docstring."""
    config = config or SyntheticDigitsConfig()
    rng = rng_from_seed(config.seed, "synthetic_digits")
    side = config.side
    prototypes = np.stack([_smooth_prototype(rng, side) for _ in range(config.num_classes)])

    labels = rng.integers(0, config.num_classes, size=config.num_samples)
    shifts = rng.integers(-config.max_shift, config.max_shift + 1, size=(config.num_samples, 2))
    scales = rng.uniform(0.8, 1.2, size=config.num_samples)
    noise = rng.normal(0.0, config.noise, size=(config.num_samples, side, side))

    # Every sample's ``np.roll(prototype, (dy, dx))`` in one gather:
    # rolled[r, c] = prototype[(r - dy) % side, (c - dx) % side].
    pixel = np.arange(side)
    rows = (pixel[None, :, None] - shifts[:, 0, None, None]) % side
    cols = (pixel[None, None, :] - shifts[:, 1, None, None]) % side
    samples = prototypes[labels[:, None, None], rows, cols]
    samples *= scales[:, None, None]
    samples += noise
    features = samples.reshape(config.num_samples, side * side)

    # Standardize features globally (mirrors torchvision's MNIST normalization).
    mean = features.mean()
    std = features.std()
    if std > 0:
        features = (features - mean) / std
    return ArrayDataset(features, labels.astype(np.int64))
