"""Optimizers updating :class:`~repro.ml.layers.Sequential` parameters in place.

Optimizers operate on the live parameter/gradient dicts returned by
``Sequential.parameters()`` / ``Sequential.parameter_grads()``.  All state
(momentum buffers, Adam moments) is keyed by parameter name so that an
optimizer can survive a global-model update that replaces parameter *values*
(FedAvg writes into the same arrays via ``load_state_dict``).
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from repro.ml.layers import Sequential
from repro.utils.validation import require_in_range, require_positive

__all__ = ["Optimizer", "SGD", "Adam", "AdamW"]


class Optimizer:
    """Base class; subclasses implement :meth:`step`.

    All optimizers support an optional FedProx-style proximal term: when a
    reference state has been installed with :meth:`set_proximal_reference` and
    ``proximal_mu`` is positive, every step adds ``mu · (w − w_ref)`` to the
    gradient, pulling local training toward the last synchronized global model
    (Li et al., *Federated Optimization in Heterogeneous Networks*).  This is
    one of the "variety of FL methodologies" the framework is meant to stay
    flexible for (paper §III.A.4).
    """

    def __init__(self, model: Sequential, lr: float, proximal_mu: float = 0.0) -> None:
        require_positive(lr, "lr")
        require_positive(proximal_mu, "proximal_mu", strict=False)
        self.model = model
        self.lr = float(lr)
        self.proximal_mu = float(proximal_mu)
        self._proximal_reference: Dict[str, np.ndarray] = {}

    def set_proximal_reference(self, state: Dict[str, np.ndarray]) -> None:
        """Install the global-model snapshot the proximal term pulls toward."""
        self._proximal_reference = {name: np.asarray(value, dtype=np.float64).copy()
                                    for name, value in state.items()}

    def clear_proximal_reference(self) -> None:
        """Remove the proximal anchor (plain local SGD/Adam again)."""
        self._proximal_reference = {}

    def _proximal_grad(self, name: str, param: np.ndarray, grad: np.ndarray) -> np.ndarray:
        """Return ``grad`` with the proximal pull added (no-op when disabled)."""
        if self.proximal_mu <= 0.0:
            return grad
        reference = self._proximal_reference.get(name)
        if reference is None:
            return grad
        return grad + self.proximal_mu * (param - reference)

    def zero_grad(self) -> None:
        """Clear accumulated gradients on the model."""
        self.model.zero_grad()

    def step(self) -> None:
        """Apply one update using the currently accumulated gradients."""
        raise NotImplementedError


class SGD(Optimizer):
    """Stochastic gradient descent with optional momentum and weight decay."""

    def __init__(
        self,
        model: Sequential,
        lr: float = 0.01,
        momentum: float = 0.0,
        weight_decay: float = 0.0,
        proximal_mu: float = 0.0,
    ) -> None:
        super().__init__(model, lr, proximal_mu=proximal_mu)
        require_in_range(momentum, "momentum", 0.0, 1.0)
        require_positive(weight_decay, "weight_decay", strict=False)
        self.momentum = float(momentum)
        self.weight_decay = float(weight_decay)
        self._velocity: Dict[str, np.ndarray] = {}

    def step(self) -> None:
        params = self.model.parameters()
        grads = self.model.parameter_grads()
        for name, param in params.items():
            grad = self._proximal_grad(name, param, grads[name])
            if self.weight_decay > 0.0:
                grad = grad + self.weight_decay * param
            if self.momentum > 0.0:
                velocity = self._velocity.get(name)
                if velocity is None:
                    velocity = np.zeros_like(param)
                    self._velocity[name] = velocity
                velocity *= self.momentum
                velocity += grad
                update = velocity
            else:
                update = grad
            param -= self.lr * update


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
        weight_decay: float = 0.0,
        proximal_mu: float = 0.0,
    ) -> None:
        super().__init__(model, lr, proximal_mu=proximal_mu)
        beta1, beta2 = betas
        require_in_range(beta1, "beta1", 0.0, 1.0, inclusive=False)
        require_in_range(beta2, "beta2", 0.0, 1.0, inclusive=False)
        require_positive(eps, "eps")
        require_positive(weight_decay, "weight_decay", strict=False)
        self.beta1, self.beta2 = float(beta1), float(beta2)
        self.eps = float(eps)
        self.weight_decay = float(weight_decay)
        self._m: Dict[str, np.ndarray] = {}
        self._v: Dict[str, np.ndarray] = {}
        self._t = 0

    def _decay_into_grad(self, param: np.ndarray, grad: np.ndarray) -> np.ndarray:
        if self.weight_decay > 0.0:
            return grad + self.weight_decay * param
        return grad

    def step(self) -> None:
        self._t += 1
        params = self.model.parameters()
        grads = self.model.parameter_grads()
        bias1 = 1.0 - self.beta1**self._t
        bias2 = 1.0 - self.beta2**self._t
        for name, param in params.items():
            grad = self._proximal_grad(name, param, grads[name])
            grad = self._decay_into_grad(param, grad)
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

    @property
    def step_count(self) -> int:
        """Number of optimizer steps applied so far."""
        return self._t


class AdamW(Adam):
    """Adam with decoupled weight decay (Loshchilov & Hutter)."""

    def _decay_into_grad(self, param: np.ndarray, grad: np.ndarray) -> np.ndarray:
        # Decoupled: decay is applied directly to the parameter in step().
        return grad

    def step(self) -> None:
        if self.weight_decay > 0.0:
            for param in self.model.parameters().values():
                param -= self.lr * self.weight_decay * param
        super().step()
