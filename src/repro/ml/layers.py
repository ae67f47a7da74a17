"""Neural-network layers with explicit forward/backward passes.

Every layer follows the same contract:

* ``forward(x, training)`` caches whatever it needs for the backward pass and
  returns the output; ``clear_cache()`` drops that cache,
* ``backward(grad_output)`` consumes the cached activations, accumulates
  parameter gradients in ``self.grads`` and returns the gradient with respect
  to the layer input,
* ``params`` / ``grads`` are dicts of numpy arrays; :class:`Sequential`
  namespaces them as ``"<index>.<name>"`` to form a PyTorch-style state dict.

Gradients are scratch, not state: one array per (state-dict key, shape,
dtype) per process, shared by every layer in that position (:data:`_GRADS`).
A layer takes its slots, zeroed, on its first ``backward``; a gradient read is
valid from ``backward`` to the optimizer ``step`` that consumes it, before any
other model of the same architecture runs ``zero_grad`` or ``backward``.  FL
clients train one at a time, so a fleet holds one gradient set, not one per
client, and a fleet that never trains holds none.

The implementation is deliberately mini-batch vectorized: each layer does a
constant number of BLAS-backed numpy operations per batch, no per-sample
Python loops, matching the HPC guidance for hot numerical paths.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from repro.ml.initializers import he_normal, xavier_uniform, zeros
from repro.utils.validation import require_positive

__all__ = ["Layer", "Linear", "ReLU", "Sequential"]


#: Gradient arrays keyed by (state-dict key, shape, dtype), shared by every
#: layer in the process that holds a parameter under that key: created by the
#: first ``backward`` that needs one, then reused, never freed.
_GRADS: Dict[tuple, np.ndarray] = {}


class Layer:
    """Base class for all layers.

    ``grads`` stays empty until the first ``backward``, which points it at the
    process-wide gradient slots for this layer's parameters (see the module
    docstring): shared scratch, valid from ``backward`` to ``step``.
    """

    #: Attributes holding what a training-mode ``forward`` keeps for ``backward``.
    _CACHE: tuple = ()

    def __init__(self) -> None:
        self.params: Dict[str, np.ndarray] = {}
        self.grads: Dict[str, np.ndarray] = {}
        #: State-dict prefix of this layer ("<index>." inside a Sequential).
        self._key_prefix = ""

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        """Compute the layer output for input ``x``."""
        raise NotImplementedError

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        """Back-propagate ``grad_output`` and return the input gradient."""
        raise NotImplementedError

    def clear_cache(self) -> None:
        """Drop the activations a training-mode ``forward`` kept."""
        for name in self._CACHE:
            setattr(self, name, None)

    def zero_grad(self) -> None:
        """Reset accumulated gradients to zero."""
        for key, grad in self.grads.items():
            grad.fill(0.0)

    def _take_grad_slots(self) -> Dict[str, np.ndarray]:
        """Point ``grads`` at this layer's shared slots, zeroed, and return it."""
        for name, param in self.params.items():
            key = (self._key_prefix + name, param.shape, param.dtype)
            slot = _GRADS.get(key)
            if slot is None:
                slot = _GRADS[key] = np.zeros_like(param)
            else:
                slot.fill(0.0)
            self.grads[name] = slot
        return self.grads

    @property
    def num_parameters(self) -> int:
        """Total number of scalar parameters in this layer."""
        return int(sum(p.size for p in self.params.values()))


class Linear(Layer):
    """Fully connected layer: ``y = x @ W + b``.

    Parameters
    ----------
    in_features, out_features:
        Input and output widths.
    rng:
        Generator used for weight initialization (required so FL clients can
        start from identical weights when seeded identically).
    init:
        ``"he"`` (default, for ReLU nets) or ``"xavier"``.
    bias:
        Whether to include the additive bias term.
    """

    _CACHE = ("_input",)

    def __init__(
        self,
        in_features: int,
        out_features: int,
        rng: Optional[np.random.Generator] = None,
        init: str = "he",
        bias: bool = True,
    ) -> None:
        super().__init__()
        require_positive(in_features, "in_features")
        require_positive(out_features, "out_features")
        rng = rng or np.random.default_rng(0)
        self.in_features = int(in_features)
        self.out_features = int(out_features)
        if init == "he":
            weight = he_normal((in_features, out_features), rng)
        elif init == "xavier":
            weight = xavier_uniform((in_features, out_features), rng)
        else:
            raise ValueError(f"unknown init {init!r}; expected 'he' or 'xavier'")
        self.params["weight"] = np.ascontiguousarray(weight, dtype=np.float64)
        self.use_bias = bool(bias)
        if self.use_bias:
            self.params["bias"] = zeros((out_features,))
        self._input: Optional[np.ndarray] = None

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        if x.ndim != 2 or x.shape[1] != self.in_features:
            raise ValueError(
                f"Linear expected input of shape (batch, {self.in_features}), got {x.shape}"
            )
        self._input = x if training else None
        out = x @ self.params["weight"]
        if self.use_bias:
            out += self.params["bias"]
        return out

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._input is None:
            raise RuntimeError("backward called before a training-mode forward pass")
        grads = self.grads or self._take_grad_slots()
        grads["weight"] += self._input.T @ grad_output
        if self.use_bias:
            grads["bias"] += grad_output.sum(axis=0)
        return grad_output @ self.params["weight"].T


class ReLU(Layer):
    """Rectified linear unit."""

    _CACHE = ("_mask",)

    def __init__(self) -> None:
        super().__init__()
        self._mask: Optional[np.ndarray] = None

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        mask = x > 0
        self._mask = mask if training else None
        return np.where(mask, x, 0.0)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._mask is None:
            raise RuntimeError("backward called before a training-mode forward pass")
        return grad_output * self._mask


class Sequential(Layer):
    """Composes layers in order and exposes a unified state dict.

    State-dict keys are ``"<layer index>.<param name>"`` (e.g. ``"0.weight"``),
    mirroring ``torch.nn.Sequential`` so the paper's code snippet translates
    directly.  The same keys name the shared gradient slots, so every network
    of one architecture trains through one gradient set: ``parameter_grads()``
    is scratch, valid from ``backward`` to ``step``.
    """

    def __init__(self, layers: List[Layer]) -> None:
        super().__init__()
        self.layers = list(layers)
        for index, layer in enumerate(self.layers):
            layer._key_prefix = f"{index}."

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        out = x
        for layer in self.layers:
            out = layer.forward(out, training=training)
        return out

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        grad = grad_output
        for layer in reversed(self.layers):
            grad = layer.backward(grad)
        return grad

    def zero_grad(self) -> None:
        for layer in self.layers:
            layer.zero_grad()

    def clear_cache(self) -> None:
        for layer in self.layers:
            layer.clear_cache()

    @property
    def num_parameters(self) -> int:
        return int(sum(layer.num_parameters for layer in self.layers))

    # ------------------------------------------------------------ state dict

    def state_dict(self, copy: bool = True) -> Dict[str, np.ndarray]:
        """Return the model parameters as an ordered flat dict."""
        state: Dict[str, np.ndarray] = {}
        for index, layer in enumerate(self.layers):
            for name, value in layer.params.items():
                state[f"{index}.{name}"] = value.copy() if copy else value
        return state

    def load_state_dict(self, state: Dict[str, np.ndarray], strict: bool = True) -> None:
        """Load parameters from ``state`` (shape-checked, copied in place)."""
        own = {}
        for index, layer in enumerate(self.layers):
            for name in layer.params:
                own[f"{index}.{name}"] = (layer, name)
        missing = set(own) - set(state)
        unexpected = set(state) - set(own)
        if strict and (missing or unexpected):
            raise KeyError(
                f"state dict mismatch: missing={sorted(missing)}, unexpected={sorted(unexpected)}"
            )
        for key, value in state.items():
            if key not in own:
                continue
            layer, name = own[key]
            target = layer.params[name]
            value = np.asarray(value, dtype=target.dtype)
            if value.shape != target.shape:
                raise ValueError(
                    f"shape mismatch for {key!r}: expected {target.shape}, got {value.shape}"
                )
            np.copyto(target, value)

    def parameter_grads(self) -> Dict[str, np.ndarray]:
        """Return the gradient dict aligned with :meth:`state_dict` keys."""
        grads: Dict[str, np.ndarray] = {}
        for index, layer in enumerate(self.layers):
            for name, value in layer.grads.items():
                grads[f"{index}.{name}"] = value
        return grads

    def parameters(self) -> Dict[str, np.ndarray]:
        """Live (uncopied) view of the parameters keyed like the state dict."""
        return self.state_dict(copy=False)
