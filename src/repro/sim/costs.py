"""Cost models converting FL work into simulated seconds.

These models provide the delay numbers behind the Fig. 8 reproduction.  They
deliberately stay simple and interpretable — each term is a linear function of
the obvious driver (samples trained, bytes moved, models aggregated) scaled by
the device's relative compute speed.  Fig. 8's delays are these linear terms
alone; its central-vs-hierarchical gap is the per-model ``aggregate_fixed_s``.

The one non-linearity, which the paper's motivation hinges on, is a
*memory-overflow penalty* when an aggregator must buffer more peer models than
fit in its available memory, forcing load/store traffic to storage (paper
§III.E.6).  It fires only when the buffered models outgrow the aggregator's
available memory (a small device, the ``memory_pressure`` knob, a device-memory
override); no ``fig8`` run records an overflow event.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.sim.device import DeviceProfile
from repro.utils.validation import require_positive

__all__ = ["CostModel"]


@dataclass(frozen=True)
class CostModel:
    """Tunable coefficients for the simulated processing-time model.

    Attributes
    ----------
    train_time_per_sample_s:
        Seconds a reference device (compute_speed = 1.0) spends on one sample
        for one epoch of the paper MLP.
    aggregate_time_per_param_s:
        Seconds per parameter per contributing model for the reduction itself.
    aggregate_fixed_s:
        Fixed per-model overhead of an aggregation (deserialize, validate).
    serialize_time_per_byte_s:
        Cost of (de)serializing a model payload on a reference device.
    overflow_penalty_factor:
        Multiplier applied to the portion of aggregation work that exceeds the
        aggregator's available memory (models spilled to storage).
    swap_bandwidth_bps:
        Throughput of the simulated storage device used when spilling.
    coordinator_decision_s:
        Time the coordinator spends computing clustering / role arrangement
        per affected client.
    """

    train_time_per_sample_s: float = 2.0e-3
    aggregate_time_per_param_s: float = 6.0e-9
    aggregate_fixed_s: float = 0.010
    serialize_time_per_byte_s: float = 1.0e-9
    overflow_penalty_factor: float = 3.0
    swap_bandwidth_bps: float = 40e6
    coordinator_decision_s: float = 0.002

    def __post_init__(self) -> None:
        require_positive(self.train_time_per_sample_s, "train_time_per_sample_s")
        require_positive(self.aggregate_time_per_param_s, "aggregate_time_per_param_s")
        require_positive(self.aggregate_fixed_s, "aggregate_fixed_s", strict=False)
        require_positive(self.serialize_time_per_byte_s, "serialize_time_per_byte_s", strict=False)
        require_positive(self.overflow_penalty_factor, "overflow_penalty_factor")
        require_positive(self.swap_bandwidth_bps, "swap_bandwidth_bps")
        require_positive(self.coordinator_decision_s, "coordinator_decision_s", strict=False)

    # -------------------------------------------------------------- training

    def training_time(
        self, device: DeviceProfile, num_samples: int, epochs: int, num_parameters: int
    ) -> float:
        """Local-training time for ``epochs`` passes over ``num_samples`` samples.

        The per-sample cost grows mildly with model size (the reference value
        is calibrated for the ~17k-parameter paper MLP).
        """
        if num_samples < 0 or epochs < 0:
            raise ValueError("num_samples and epochs must be non-negative")
        model_scale = max(0.25, num_parameters / 17_000.0)
        per_sample = self.train_time_per_sample_s * model_scale
        return epochs * num_samples * per_sample / device.compute_speed

    # ------------------------------------------------------------ aggregation

    def serialization_time(self, device: DeviceProfile, payload_bytes: int) -> float:
        """Time to serialize or deserialize one model payload on ``device``."""
        if payload_bytes < 0:
            raise ValueError("payload_bytes must be non-negative")
        return payload_bytes * self.serialize_time_per_byte_s / device.compute_speed

    def aggregation_time(
        self,
        device: DeviceProfile,
        num_models: int,
        num_parameters: int,
        payload_bytes: int,
        available_memory_bytes: int | None = None,
    ) -> float:
        """Time for ``device`` to aggregate ``num_models`` incoming models.

        When the buffered peer models do not fit in the device's available
        memory, the overflowing fraction of the work is charged at
        ``overflow_penalty_factor`` plus the time to stream the spilled bytes
        through the simulated storage device — this is the mechanism that
        makes a single central aggregator increasingly expensive as the client
        count grows (paper Fig. 8 discussion).
        """
        if num_models < 0:
            raise ValueError("num_models must be non-negative")
        if num_models == 0:
            return 0.0
        available = (
            device.memory_bytes if available_memory_bytes is None else int(available_memory_bytes)
        )
        base = (
            num_models * self.aggregate_fixed_s
            + num_models * num_parameters * self.aggregate_time_per_param_s
            + num_models * self.serialization_time(device, payload_bytes)
        ) / device.compute_speed

        required = num_models * payload_bytes
        if required <= available or required == 0:
            return base
        overflow_fraction = (required - available) / required
        spilled_bytes = required - available
        swap_time = spilled_bytes / self.swap_bandwidth_bps
        return base * (1.0 + (self.overflow_penalty_factor - 1.0) * overflow_fraction) + swap_time

    # ------------------------------------------------------------ coordination

    def coordination_time(self, num_clients_informed: int) -> float:
        """Coordinator-side time for a role (re)arrangement touching N clients."""
        if num_clients_informed < 0:
            raise ValueError("num_clients_informed must be non-negative")
        return num_clients_informed * self.coordinator_decision_s
