"""Deterministic random number generation helpers.

Every stochastic component in the reproduction (dataset synthesis, data
partitioning, device heterogeneity, dropout, client arrival order, optimizer
policies) draws from a :class:`numpy.random.Generator` produced by the
functions in this module, so a single integer seed pins down an entire
experiment end to end.
"""

from __future__ import annotations

import hashlib

import numpy as np

__all__ = ["derive_seed", "rng_from_seed", "SeedSequenceFactory"]

_MAX_SEED = 2**63 - 1


def derive_seed(base_seed: int, *names: object) -> int:
    """Derive a stable child seed from ``base_seed`` and a sequence of names.

    The derivation hashes the textual representation of all the arguments with
    SHA-256, which keeps child seeds statistically independent of each other
    while remaining stable across processes and Python versions (unlike
    ``hash()``).

    Parameters
    ----------
    base_seed:
        The experiment-level seed.
    names:
        Arbitrary hashable context, e.g. ``("client", 3, "dropout")``.

    Returns
    -------
    int
        A non-negative integer suitable for :func:`numpy.random.default_rng`.
    """
    payload = repr((int(base_seed),) + tuple(str(n) for n in names)).encode("utf-8")
    digest = hashlib.sha256(payload).digest()
    return int.from_bytes(digest[:8], "little") % _MAX_SEED


def rng_from_seed(base_seed: int, *names: object) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` for ``(base_seed, *names)``."""
    return np.random.default_rng(derive_seed(base_seed, *names))


class SeedSequenceFactory:
    """Factory producing independent, reproducible generators for components.

    Examples
    --------
    >>> factory = SeedSequenceFactory(1234)
    >>> rng_a = factory.generator("dataset")
    >>> rng_b = factory.generator("client", 0)
    >>> factory.seed("dataset") == SeedSequenceFactory(1234).seed("dataset")
    True
    """

    def __init__(self, base_seed: int = 0) -> None:
        self._base_seed = int(base_seed)

    def seed(self, *names: object) -> int:
        """Return the derived integer seed for the given component names."""
        return derive_seed(self._base_seed, *names)

    def generator(self, *names: object) -> np.random.Generator:
        """Return a fresh generator for the given component names."""
        return np.random.default_rng(self.seed(*names))
