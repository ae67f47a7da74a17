"""State-dict utilities: sizes, flattening and casting.

A "state dict" throughout the reproduction is an ordered ``dict[str,
np.ndarray]`` mapping parameter names to arrays, exactly what
``Sequential.state_dict()`` returns.  These helpers are used by the model
controller (payload sizing and wire casts) and the aggregation strategies
(vectorized reduction over flattened views).
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

__all__ = [
    "state_dict_nbytes",
    "flatten_state_dict",
    "unflatten_state_dict",
    "cast_state_dict",
]

StateDict = Dict[str, np.ndarray]


def state_dict_nbytes(state: StateDict, dtype: np.dtype | str | None = None) -> int:
    """Total byte size of the state dict, optionally as if cast to ``dtype``."""
    if dtype is None:
        return int(sum(np.asarray(v).nbytes for v in state.values()))
    itemsize = np.dtype(dtype).itemsize
    return int(sum(np.asarray(v).size * itemsize for v in state.values()))


def flatten_state_dict(state: StateDict) -> Tuple[np.ndarray, List[Tuple[str, Tuple[int, ...]]]]:
    """Concatenate all parameters into one 1-D vector.

    Returns the vector and a spec (name, shape) list that
    :func:`unflatten_state_dict` uses to reverse the operation.  Keys are
    processed in insertion order, which is deterministic for dicts produced by
    ``Sequential.state_dict``.
    """
    spec: List[Tuple[str, Tuple[int, ...]]] = []
    parts: List[np.ndarray] = []
    for name, value in state.items():
        array = np.asarray(value, dtype=np.float64)
        spec.append((name, tuple(array.shape)))
        parts.append(array.ravel())
    if not parts:
        return np.zeros(0, dtype=np.float64), spec
    return np.concatenate(parts), spec


def unflatten_state_dict(
    vector: np.ndarray, spec: List[Tuple[str, Tuple[int, ...]]], dtype: np.dtype | str = np.float64
) -> StateDict:
    """Rebuild a state dict from a flat vector and the spec from flattening.

    Every leaf is a fresh ``dtype`` array, cast while the vector is split.
    """
    vector = np.asarray(vector).ravel()
    expected = sum(int(np.prod(shape)) if shape else 1 for _, shape in spec)
    if vector.size != expected:
        raise ValueError(f"flat vector has {vector.size} entries, spec expects {expected}")
    out: StateDict = {}
    offset = 0
    for name, shape in spec:
        size = int(np.prod(shape)) if shape else 1
        out[name] = vector[offset : offset + size].reshape(shape).astype(dtype)
        offset += size
    return out


def cast_state_dict(state: StateDict, dtype: np.dtype | str) -> StateDict:
    """Return a copy of ``state`` with every array cast to ``dtype`` (contiguous)."""
    dtype = np.dtype(dtype)
    return {name: np.ascontiguousarray(np.asarray(value), dtype=dtype) for name, value in state.items()}
