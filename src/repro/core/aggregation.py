"""Model aggregation strategies.

The aggregation pipeline on an SDFLMQ client reduces a set of peer model state
dicts into one.  The paper's evaluation uses FedAvg; the framework is
explicitly designed for pluggable aggregation methods ("this class includes
various techniques to process global model updates", §III.B.2), so this module
ships several standard robust alternatives as well:

* :class:`FedAvg` — sample-count-weighted mean (McMahan et al.);
* :class:`UniformAverage` — unweighted mean;
* :class:`CoordinateMedian` — element-wise median (robust to a minority of
  corrupted updates);
* :class:`TrimmedMean` — element-wise mean after trimming the extreme values;
* :class:`FedAvgMomentum` — server momentum applied on top of FedAvg
  (FedAvgM), useful under strong non-IID skew.

The mean-family strategies (FedAvg, UniformAverage, FedAvgM) reduce with a
*streaming* in-place weighted accumulation: one preallocated ``float64``
accumulator the size of the model, into which each contribution's leaves are
multiply-added in roster order — no ``(num_models, num_parameters)`` matrix
is ever built, so aggregating K contributions needs O(D) scratch instead of
O(K·D).  The order-sensitive robust strategies (median, trimmed mean) still
stack the matrix, which their element-wise sorts genuinely need.  Either
way the inner loops stay in BLAS/ufuncs (HPC guide), and the accumulation
order is fixed by the contribution sequence, so results are deterministic.

Hierarchical composition: FedAvg composes exactly (the weighted mean of
weighted means with summed weights equals the global weighted mean), which is
what allows SDFLMQ's multi-level aggregation to produce the same global model
a central server would.  The robust strategies do *not* compose exactly; they
are primarily intended for the first aggregation level (and the composition
error is part of what the aggregation ablation bench measures).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.errors import AggregationError
from repro.ml.state import StateDict, flatten_state_dict, state_dict_nbytes, unflatten_state_dict
from repro.utils.validation import require_in_range, require_positive

__all__ = [
    "ModelContribution",
    "ContributionBuffer",
    "AggregationStrategy",
    "FedAvg",
    "UniformAverage",
    "CoordinateMedian",
    "TrimmedMean",
    "FedAvgMomentum",
    "get_aggregator",
    "available_aggregators",
]


class ModelContribution:
    """One model update received by an aggregator.

    Attributes
    ----------
    state:
        The contributed parameters.
    weight:
        Aggregation weight; by convention the number of training samples that
        produced the update.  Aggregators forward the *sum* of their inputs'
        weights upstream so that hierarchical FedAvg stays exact.
    sender_id:
        Contributing client (or lower-level aggregator) id.
    round_index:
        FL round the contribution belongs to.
    epoch:
        Restart epoch the contribution was sent under (0 until the round's
        first mid-round restart).  An aggregator recovering from a restart
        clears only contributions with an *older* epoch, so a re-send that
        raced ahead of the aggregator's own restart notice survives.
    nbytes:
        Total byte size of ``state``, computed once at construction.  Buffer
        accounting (add/replace/release paths) charges and releases this
        cached value instead of re-walking the full state dict on every
        operation.
    """

    __slots__ = ("state", "weight", "sender_id", "round_index", "epoch", "nbytes")

    def __init__(
        self,
        state: StateDict,
        weight: float = 1.0,
        sender_id: str = "?",
        round_index: int = 0,
        epoch: int = 0,
    ) -> None:
        if weight <= 0:
            raise AggregationError(f"contribution weight must be positive, got {weight}")
        self.state = state
        self.weight = float(weight)
        self.sender_id = sender_id
        self.round_index = int(round_index)
        self.epoch = int(epoch)
        self.nbytes = state_dict_nbytes(state)


class ContributionBuffer:
    """Aggregation inbox for one (client, session) pair.

    The buffer subscribes to the round lifecycle's ordering rules rather than
    re-implementing them: callers pass the epoch floor from their
    :class:`~repro.core.rounds.ClientRoundView`, and the buffer enforces the
    invariants that keep hierarchical FedAvg exact under failure recovery —

    * contributions stamped with an epoch below the floor are refused
      (pre-restart leftovers whose senders will re-send or were dropped),
    * at most one contribution per (sender, round) is held: a re-send after a
      round restart *replaces* the sender's previous update, and
    * every byte of *peer* state held is charged against the owner's memory
      through the :class:`~repro.sim.resources.ResourceAccountant` and
      released exactly once — the owner's own update enters uncharged, so
      releases must never be derived from the raw buffered total.
    """

    def __init__(self, owner_id: str, resources: Optional[object] = None) -> None:
        self.owner_id = owner_id
        self.resources = resources
        self.pending: List[ModelContribution] = []
        self.buffered_bytes = 0

    def charged_nbytes(self, contributions: Sequence[ModelContribution]) -> int:
        """Bytes of ``contributions`` that were charged to the accountant.

        Only peer contributions are allocated against the owner's memory; its
        own update enters the buffer uncharged.
        """
        return sum(c.nbytes for c in contributions if c.sender_id != self.owner_id)

    def _release(self, nbytes: int) -> None:
        if self.resources is not None and nbytes:
            self.resources.release(self.owner_id, nbytes)

    def add(self, contribution: ModelContribution, min_epoch: int, charge_memory: bool) -> bool:
        """Buffer one contribution; returns False when it is stale.

        A contribution below ``min_epoch`` was sent before a restart the owner
        has already processed — buffering it would let a superseded update
        leak into the restarted round.
        """
        if contribution.epoch < min_epoch:
            return False
        for index, existing in enumerate(self.pending):
            if (
                existing.sender_id == contribution.sender_id
                and existing.round_index == contribution.round_index
            ):
                self.buffered_bytes -= existing.nbytes
                self._release(self.charged_nbytes([existing]))
                del self.pending[index]
                break
        self.pending.append(contribution)
        nbytes = contribution.nbytes
        self.buffered_bytes += nbytes
        if charge_memory and self.resources is not None:
            self.resources.allocate(self.owner_id, nbytes)
        return True

    def drop_stale_epochs(self, epoch: int) -> int:
        """Drop contributions older than ``epoch`` (a processed restart)."""
        if not self.pending:
            return 0
        kept = [c for c in self.pending if c.epoch >= epoch]
        dropped = [c for c in self.pending if c.epoch < epoch]
        self.pending[:] = kept
        self.buffered_bytes = sum(c.nbytes for c in kept)
        self._release(self.charged_nbytes(dropped))
        return len(dropped)

    def take(self, round_index: int, expected: int) -> Optional[List[ModelContribution]]:
        """Pop the round's aggregation batch once the trigger count is met.

        Returns ``None`` while fewer than ``expected`` contributions for
        ``round_index`` are held.  Contributions from earlier rounds
        (restarted and already superseded) are garbage-collected on a
        successful take; later rounds' early arrivals stay buffered.
        """
        eligible = [c for c in self.pending if c.round_index == round_index]
        if expected == 0 or len(eligible) < expected:
            return None
        batch = eligible[:expected]
        remaining = [
            c for c in self.pending if c not in batch and c.round_index >= round_index
        ]
        dropped = [
            c for c in self.pending if c not in batch and c not in remaining
        ]
        self.pending[:] = remaining
        self.buffered_bytes = sum(c.nbytes for c in remaining)
        self._release(self.charged_nbytes(batch) + self.charged_nbytes(dropped))
        return batch

    def drain(self) -> List[ModelContribution]:
        """Take everything held (e.g. to forward after losing the aggregator role)."""
        pending = list(self.pending)
        self.pending.clear()
        released = self.charged_nbytes(pending)
        self.buffered_bytes = 0
        self._release(released)
        return pending


def _stack_contributions(
    contributions: Sequence[ModelContribution],
) -> Tuple[np.ndarray, np.ndarray, List[Tuple[str, Tuple[int, ...]]]]:
    """Flatten and stack contributions into (matrix, weights, spec).

    Only the order-sensitive robust strategies (median, trimmed mean) pay for
    this K×D materialization; the mean family streams through
    :func:`_streaming_weighted_sum` instead.
    """
    if not contributions:
        raise AggregationError("cannot aggregate zero contributions")
    first_vector, spec = flatten_state_dict(contributions[0].state)
    matrix = np.empty((len(contributions), first_vector.size), dtype=np.float64)
    matrix[0] = first_vector
    for row, contribution in enumerate(contributions[1:], start=1):
        vector, other_spec = flatten_state_dict(contribution.state)
        if [s for _, s in other_spec] != [s for _, s in spec] or vector.size != first_vector.size:
            raise AggregationError(
                f"contribution from {contribution.sender_id!r} has mismatched parameter shapes"
            )
        matrix[row] = vector
    weights = np.array([c.weight for c in contributions], dtype=np.float64)
    return matrix, weights, spec


def _streaming_weighted_sum(
    contributions: Sequence[ModelContribution],
    weighted: bool,
) -> Tuple[np.ndarray, np.ndarray, List[Tuple[str, Tuple[int, ...]]]]:
    """Accumulate ``sum_i w_i · x_i`` in place; returns (sum, weights, spec).

    The accumulator and one scratch vector are the only allocations — each
    contribution's leaves are multiply-added segment by segment in
    contribution order (the caller passes them in deterministic roster
    order), so no K×D matrix exists at any point.  With ``weighted=False``
    the plain sum is accumulated (the uniform-mean path).

    The first contribution is written directly (not added to zeros) so the
    result is bit-identical to a sequential matrix reduction even for
    signed-zero entries.
    """
    if not contributions:
        raise AggregationError("cannot aggregate zero contributions")
    first_state = contributions[0].state
    spec: List[Tuple[str, Tuple[int, ...]]] = []
    sizes: List[int] = []
    total_size = 0
    for name, value in first_state.items():
        array = np.asarray(value)
        spec.append((name, tuple(array.shape)))
        sizes.append(array.size)
        total_size += array.size
    accumulator = np.empty(total_size, dtype=np.float64)
    scratch = np.empty(total_size, dtype=np.float64)
    weights = np.empty(len(contributions), dtype=np.float64)

    for row, contribution in enumerate(contributions):
        weights[row] = contribution.weight
        # A *strong* float64 scalar: under NEP 50 a python float would let a
        # float32 leaf select the float32 loop and only cast the product,
        # losing bit-identity with the float64 matrix reference path.
        weight64 = weights[row]
        state = contribution.state
        values = list(state.values())
        if len(values) != len(spec) or any(
            np.asarray(value).shape != shape for value, (_, shape) in zip(values, spec)
        ):
            raise AggregationError(
                f"contribution from {contribution.sender_id!r} has mismatched parameter shapes"
            )
        target = accumulator if row == 0 else scratch
        offset = 0
        for value, size in zip(values, sizes):
            segment = target[offset : offset + size]
            leaf = np.asarray(value).ravel()
            if weighted:
                # Mixed-dtype ufunc with a strong float64 scalar computes in
                # float64, bit-identical to converting the leaf first.
                np.multiply(leaf, weight64, out=segment)
            else:
                segment[:] = leaf
            offset += size
        if row > 0:
            accumulator += scratch
    return accumulator, weights, spec


class AggregationStrategy:
    """Base class: subclasses implement :meth:`reduce` over a stacked matrix.

    The default :meth:`_reduce_flat` stacks the K×D matrix and calls
    :meth:`reduce` — the path the order-sensitive robust strategies need.
    Mean-family subclasses override it with the streaming accumulation and
    keep :meth:`reduce` as the reference (and directly-callable) matrix
    implementation; :meth:`aggregate` splits either result into leaves.
    """

    name = "base"

    def aggregate(
        self, contributions: Sequence[ModelContribution], dtype: np.dtype | str = np.float64
    ) -> StateDict:
        """Aggregate (always in ``float64``) into one state dict with ``dtype`` leaves."""
        return unflatten_state_dict(*self._reduce_flat(contributions), dtype)

    def _reduce_flat(self, contributions: Sequence[ModelContribution]) -> Tuple[np.ndarray, list]:
        """The reduced ``float64`` vector and the spec that splits it."""
        matrix, weights, spec = _stack_contributions(contributions)
        return self.reduce(matrix, weights), spec

    def reduce(self, matrix: np.ndarray, weights: np.ndarray) -> np.ndarray:
        """Reduce a ``(num_models, num_params)`` matrix to a single vector."""
        raise NotImplementedError


class FedAvg(AggregationStrategy):
    """Sample-count-weighted federated averaging (the paper's choice)."""

    name = "fedavg"

    def _reduce_flat(self, contributions: Sequence[ModelContribution]) -> Tuple[np.ndarray, list]:
        """Streaming weighted mean: in-place multiply-add, no K×D matrix."""
        accumulator, weights, spec = _streaming_weighted_sum(contributions, weighted=True)
        accumulator /= np.sum(weights)
        return accumulator, spec

    def reduce(self, matrix: np.ndarray, weights: np.ndarray) -> np.ndarray:
        return np.average(matrix, axis=0, weights=weights)


class UniformAverage(AggregationStrategy):
    """Unweighted mean of the contributions."""

    name = "mean"

    def _reduce_flat(self, contributions: Sequence[ModelContribution]) -> Tuple[np.ndarray, list]:
        """Streaming unweighted mean: in-place adds, no K×D matrix."""
        accumulator, _weights, spec = _streaming_weighted_sum(contributions, weighted=False)
        accumulator /= float(len(contributions))
        return accumulator, spec

    def reduce(self, matrix: np.ndarray, weights: np.ndarray) -> np.ndarray:
        return matrix.mean(axis=0)


class CoordinateMedian(AggregationStrategy):
    """Element-wise median — robust to a minority of arbitrarily bad updates."""

    name = "median"

    def reduce(self, matrix: np.ndarray, weights: np.ndarray) -> np.ndarray:
        return np.median(matrix, axis=0)


class TrimmedMean(AggregationStrategy):
    """Element-wise mean after discarding the ``trim_ratio`` extremes on each side."""

    name = "trimmed_mean"

    def __init__(self, trim_ratio: float = 0.1) -> None:
        require_in_range(trim_ratio, "trim_ratio", 0.0, 0.5, inclusive=False)
        self.trim_ratio = float(trim_ratio)

    def reduce(self, matrix: np.ndarray, weights: np.ndarray) -> np.ndarray:
        num_models = matrix.shape[0]
        trim = int(np.floor(num_models * self.trim_ratio))
        if 2 * trim >= num_models:
            trim = max(0, (num_models - 1) // 2)
        if trim == 0:
            return matrix.mean(axis=0)
        ordered = np.sort(matrix, axis=0)
        return ordered[trim : num_models - trim].mean(axis=0)


class FedAvgMomentum(AggregationStrategy):
    """FedAvg with server-side momentum (FedAvgM).

    Keeps an internal velocity across calls, so a single instance must be
    reused round to round (the parameter server / root aggregator owns it).
    """

    name = "fedavgm"

    def __init__(self, momentum: float = 0.9, server_lr: float = 1.0) -> None:
        require_in_range(momentum, "momentum", 0.0, 1.0)
        require_positive(server_lr, "server_lr")
        self.momentum = float(momentum)
        self.server_lr = float(server_lr)
        self._velocity: Optional[np.ndarray] = None
        self._previous: Optional[np.ndarray] = None

    def _reduce_flat(self, contributions: Sequence[ModelContribution]) -> Tuple[np.ndarray, list]:
        """Streaming FedAvg average, then the server-momentum update."""
        accumulator, weights, spec = _streaming_weighted_sum(contributions, weighted=True)
        accumulator /= np.sum(weights)
        return self._momentum_update(accumulator), spec

    def reduce(self, matrix: np.ndarray, weights: np.ndarray) -> np.ndarray:
        return self._momentum_update(np.average(matrix, axis=0, weights=weights))

    def _momentum_update(self, average: np.ndarray) -> np.ndarray:
        if self._previous is None:
            self._previous = average.copy()
            self._velocity = np.zeros_like(average)
            return average
        delta = average - self._previous
        assert self._velocity is not None
        self._velocity = self.momentum * self._velocity + delta
        updated = self._previous + self.server_lr * self._velocity
        self._previous = updated.copy()
        return updated


_REGISTRY: Dict[str, type] = {
    FedAvg.name: FedAvg,
    UniformAverage.name: UniformAverage,
    CoordinateMedian.name: CoordinateMedian,
    TrimmedMean.name: TrimmedMean,
    FedAvgMomentum.name: FedAvgMomentum,
}


def available_aggregators() -> List[str]:
    """Names of all registered aggregation strategies."""
    return sorted(_REGISTRY)


def get_aggregator(name: str, **kwargs) -> AggregationStrategy:
    """Instantiate an aggregation strategy by name.

    >>> get_aggregator("fedavg").name
    'fedavg'
    """
    key = name.lower()
    if key not in _REGISTRY:
        raise AggregationError(
            f"unknown aggregation strategy {name!r}; available: {available_aggregators()}"
        )
    return _REGISTRY[key](**kwargs)
