"""Optimizers updating :class:`~repro.ml.layers.Sequential` parameters in place.

Optimizers operate on the live parameter/gradient dicts returned by
``Sequential.parameters()`` / ``Sequential.parameter_grads()``.  All state
(the Adam moments) is keyed by parameter name so that an
optimizer can survive a global-model update that replaces parameter *values*
(FedAvg writes into the same arrays via ``load_state_dict``).
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from repro.ml.layers import Sequential
from repro.utils.validation import require_in_range, require_positive

__all__ = ["Optimizer", "Adam"]


class Optimizer:
    """Base class; subclasses implement :meth:`step`."""

    def __init__(self, model: Sequential, lr: float) -> None:
        require_positive(lr, "lr")
        self.model = model
        self.lr = float(lr)

    def zero_grad(self) -> None:
        """Clear accumulated gradients on the model."""
        self.model.zero_grad()

    def step(self) -> None:
        """Apply one update using the currently accumulated gradients."""
        raise NotImplementedError


#: Two work arrays per parameter shape, shared by every :class:`Adam` in the
#: process (a step leaves nothing in them): a fleet of per-client optimizers
#: over one architecture needs one pair, not one pair each.
_SCRATCH: Dict[tuple, tuple[np.ndarray, np.ndarray]] = {}


def _scratch_pair(param: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    key = (param.shape, param.dtype)
    pair = _SCRATCH.get(key)
    if pair is None:
        pair = _SCRATCH[key] = (np.empty_like(param), np.empty_like(param))
    return pair


class Adam(Optimizer):
    """Adam optimizer (Kingma & Ba), the optimizer used in the paper's snippet."""

    def __init__(
        self,
        model: Sequential,
        lr: float = 1e-3,
        betas: tuple[float, float] = (0.9, 0.999),
        eps: float = 1e-8,
    ) -> None:
        super().__init__(model, lr)
        beta1, beta2 = betas
        require_in_range(beta1, "beta1", 0.0, 1.0, inclusive=False)
        require_in_range(beta2, "beta2", 0.0, 1.0, inclusive=False)
        require_positive(eps, "eps")
        self.beta1, self.beta2 = float(beta1), float(beta2)
        self.eps = float(eps)
        self._m: Dict[str, np.ndarray] = {}
        self._v: Dict[str, np.ndarray] = {}
        self._t = 0

    def step(self) -> None:
        self._t += 1
        params = self.model.parameters()
        grads = self.model.parameter_grads()
        bias1 = 1.0 - self.beta1**self._t
        bias2 = 1.0 - self.beta2**self._t
        for name, param in params.items():
            grad = grads[name]
            m = self._m.get(name)
            if m is None:
                m = self._m[name] = np.zeros_like(param)
                self._v[name] = np.zeros_like(param)
            v = self._v[name]
            update, denom = _scratch_pair(param)
            # Same operations in the same order as the allocating form
            # ``param -= lr * (m / bias1) / (sqrt(v / bias2) + eps)``.
            np.multiply(grad, 1.0 - self.beta1, out=update)
            m *= self.beta1
            m += update
            np.square(grad, out=update)
            update *= 1.0 - self.beta2
            v *= self.beta2
            v += update
            np.divide(m, bias1, out=update)
            update *= self.lr
            np.divide(v, bias2, out=denom)
            np.sqrt(denom, out=denom)
            denom += self.eps
            update /= denom
            param -= update
