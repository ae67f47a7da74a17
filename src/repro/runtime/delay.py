"""Critical-path delay model for one FL round.

The paper's Fig. 8 metric is the *total processing delay* of running N FL
rounds: local training, moving model parameters through the broker,
(hierarchical) aggregation, and disseminating the new global model.  Because
the reproduction executes in-process, wall-clock time is meaningless; instead
this model walks the round's aggregation tree and computes when each node's
output becomes available, using:

* the cost model (:class:`repro.sim.CostModel`) for training, aggregation and
  serialization times,
* each device's link profile for transfer times, with *serialized reception*
  at every aggregator — an aggregator's downlink is a shared resource, so the
  k-th arriving model queues behind the previous ones.  This queueing term is
  what makes a single central aggregator progressively worse as the client
  count grows, which is the effect Fig. 8 illustrates.

The model is intentionally independent of the messaging layer: it takes a
:class:`~repro.core.clustering.ClusterTopology` plus per-client sample counts
and payload sizes, so unit tests can exercise it directly and the experiment
harness can apply it to the topology the coordinator actually produced.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional

from repro.core.clustering import ClusterTopology
from repro.mqtt.network import NetworkModel
from repro.sim.costs import CostModel
from repro.sim.device import DeviceFleet, DeviceProfile
from repro.utils.validation import require_positive

__all__ = ["RoundDelayBreakdown", "CriticalPathDelayModel"]


@dataclass
class RoundDelayBreakdown:
    """Decomposition of one round's simulated processing delay (seconds)."""

    round_index: int
    training_s: float = 0.0
    upload_s: float = 0.0
    aggregation_s: float = 0.0
    distribution_s: float = 0.0
    coordination_s: float = 0.0
    total_s: float = 0.0
    #: Simulated time the event scheduler actually spent moving the round's
    #: messages (the span of ``deliver_at`` timestamps it drained).  The
    #: analytic critical-path terms above model the paper's delay figure;
    #: this field is the *observed* messaging makespan of the event-driven
    #: runtime, letting experiments cross-check model against execution.
    messaging_s: float = 0.0
    per_client_completion_s: Dict[str, float] = field(default_factory=dict)
    aggregator_busy_s: Dict[str, float] = field(default_factory=dict)


class CriticalPathDelayModel:
    """Computes per-round processing delay from a topology and device fleet."""

    def __init__(
        self,
        fleet: DeviceFleet,
        cost_model: Optional[CostModel] = None,
        network: Optional[NetworkModel] = None,
        parameter_server_profile: Optional[DeviceProfile] = None,
    ) -> None:
        self.fleet = fleet
        self.cost = cost_model or CostModel()
        self.network = network or NetworkModel()
        # The parameter server runs on an edge server unless told otherwise.
        self.parameter_server_profile = parameter_server_profile or DeviceProfile(
            device_id="parameter_server",
            tier="server",
            compute_speed=4.0,
            memory_bytes=8 * 1024**3,
            bandwidth_bps=125e6,
            latency_s=0.002,
        )

    # ------------------------------------------------------------ primitives

    def _uplink_time(self, device: DeviceProfile, payload_bytes: int) -> float:
        """Device → broker transfer plus broker processing."""
        link = device.link_profile()
        return link.transfer_time(payload_bytes) + self.network.broker_processing_time(payload_bytes)

    def _downlink_time(self, device: DeviceProfile, payload_bytes: int) -> float:
        """Broker → device transfer."""
        return device.link_profile().transfer_time(payload_bytes)

    def _train_time(self, device: DeviceProfile, num_samples: int, epochs: int, num_parameters: int) -> float:
        return self.cost.training_time(device, num_samples, epochs, num_parameters)

    # ----------------------------------------------------------------- round

    def round_delay(
        self,
        topology: ClusterTopology,
        round_index: int,
        num_samples: Mapping[str, int],
        payload_bytes: int,
        num_parameters: int,
        epochs: int = 1,
        available_memory: Optional[Mapping[str, int]] = None,
        clients_informed: int = 0,
    ) -> RoundDelayBreakdown:
        """Compute the critical-path delay of one FL round.

        Parameters
        ----------
        topology:
            The round's aggregation topology.
        round_index:
            Index used only for labelling the breakdown.
        num_samples:
            Per-client local dataset sizes (drives training time).
        payload_bytes:
            Size of one serialized model update on the wire.
        num_parameters:
            Scalar parameter count of the model (drives aggregation time).
        epochs:
            Local epochs per round.
        available_memory:
            Optional per-client available memory (bytes); defaults to each
            device's full capacity.  Drives the overflow penalty.
        clients_informed:
            Number of clients the coordinator contacted for role
            (re)arrangement before this round (drives coordination time).
        """
        require_positive(payload_bytes, "payload_bytes")
        require_positive(num_parameters, "num_parameters")
        breakdown = RoundDelayBreakdown(round_index=round_index)

        # Phase 1+2+3: recursive completion times up the aggregation tree.
        ready_at: Dict[str, float] = {}
        train_times: Dict[str, float] = {}
        upload_times: Dict[str, float] = {}

        def node_output_ready(client_id: str) -> float:
            """Simulated time at which this node's output has *left* the node."""
            if client_id in ready_at:
                return ready_at[client_id]
            node = topology.node(client_id)
            device = self.fleet.profile(client_id)
            train = 0.0
            if node.role.trains:
                train = self._train_time(
                    device, int(num_samples.get(client_id, 0)), epochs, num_parameters
                )
            train_times[client_id] = train

            if not node.role.aggregates:
                # Leaf trainer: output leaves after training + serialize + uplink.
                leave = train + self.cost.serialization_time(device, payload_bytes) + self._uplink_time(
                    device, payload_bytes
                )
                ready_at[client_id] = leave
                upload_times[client_id] = leave - train
                return leave

            # Aggregator: wait for all children's payloads to arrive (serialized
            # reception on this device's downlink), and for its own training.
            arrivals = []
            receive_cursor = 0.0
            children_sorted = sorted(node.children, key=node_output_ready)
            for child in children_sorted:
                child_ready = node_output_ready(child)
                receive_start = max(child_ready, receive_cursor)
                receive_cursor = receive_start + self._downlink_time(device, payload_bytes)
                arrivals.append(receive_cursor)
            inputs_ready = max(arrivals) if arrivals else 0.0
            start_aggregation = max(inputs_ready, train)

            fan_in = len(node.children) + (1 if node.role.trains else 0)
            memory = None
            if available_memory is not None and client_id in available_memory:
                memory = int(available_memory[client_id])
            agg_time = self.cost.aggregation_time(
                device,
                num_models=fan_in,
                num_parameters=num_parameters,
                payload_bytes=payload_bytes,
                available_memory_bytes=memory,
            )
            breakdown.aggregator_busy_s[client_id] = agg_time
            finish = start_aggregation + agg_time
            # Send the aggregate onwards (to the parent or the parameter server).
            leave = finish + self.cost.serialization_time(device, payload_bytes) + self._uplink_time(
                device, payload_bytes
            )
            ready_at[client_id] = leave
            upload_times[client_id] = leave - finish
            return leave

        root_leave = node_output_ready(topology.root_id)
        breakdown.per_client_completion_s = dict(ready_at)

        # Phase 4: parameter server stores the model and the global update
        # synchronizer pushes it to every contributor; the round ends when the
        # slowest client has received it.
        ps = self.parameter_server_profile
        store_time = self.cost.serialization_time(ps, payload_bytes) + self._downlink_time(ps, payload_bytes)
        slowest_downlink = max(
            self._downlink_time(self.fleet.profile(cid), payload_bytes) for cid in topology.client_ids
        )
        distribution = store_time + self._uplink_time(ps, payload_bytes) + slowest_downlink

        coordination = self.cost.coordination_time(clients_informed)

        breakdown.training_s = max(train_times.values()) if train_times else 0.0
        breakdown.upload_s = max(upload_times.values()) if upload_times else 0.0
        breakdown.aggregation_s = sum(breakdown.aggregator_busy_s.values())
        breakdown.distribution_s = distribution
        breakdown.coordination_s = coordination
        breakdown.total_s = root_leave + distribution + coordination
        return breakdown
