"""Network models attributing simulated transfer costs to MQTT traffic.

The paper's runtime evaluation (Fig. 8) measures *total processing delay*,
which is dominated by model-parameter transfer through the broker plus
aggregation compute.  Because this reproduction runs in a single process, the
broker does not actually take milliseconds to move bytes; instead every hop is
charged against a :class:`LinkProfile` (latency + bandwidth + jitter + loss),
and the resulting delivery times drive the event scheduler.  Traffic volume
is counted once, in the broker's :class:`~repro.mqtt.broker.BrokerStats`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro.utils.validation import require_positive

__all__ = ["LinkProfile", "NetworkModel"]

#: Fixed per-packet protocol overhead in bytes (MQTT fixed header + topic +
#: packet id).  Small but kept explicit so traffic accounting is meaningful for
#: the many tiny coordination messages SDFLMQ exchanges.
PACKET_OVERHEAD_BYTES = 64


@dataclass(frozen=True)
class LinkProfile:
    """Characteristics of the link between one client and its broker.

    Attributes
    ----------
    latency_s:
        One-way propagation latency in seconds.
    bandwidth_bps:
        Usable bandwidth in *bytes* per second (not bits).
    jitter_s:
        Standard deviation of a Gaussian jitter term added to the latency.
    loss_rate:
        Probability that a QoS-0 packet is silently dropped.  QoS 1/2 packets
        are never lost (the retransmission cost is charged instead).
    """

    latency_s: float = 0.002
    bandwidth_bps: float = 12.5e6  # 100 Mbit/s expressed in bytes/s
    jitter_s: float = 0.0
    loss_rate: float = 0.0

    def __post_init__(self) -> None:
        require_positive(self.latency_s, "latency_s", strict=False)
        require_positive(self.bandwidth_bps, "bandwidth_bps")
        require_positive(self.jitter_s, "jitter_s", strict=False)
        if not 0.0 <= self.loss_rate < 1.0:
            raise ValueError(f"loss_rate must be in [0, 1), got {self.loss_rate}")

    def transfer_time(self, payload_bytes: int, rng: Optional[np.random.Generator] = None) -> float:
        """Time in seconds to move ``payload_bytes`` across this link once."""
        size = payload_bytes + PACKET_OVERHEAD_BYTES
        delay = self.latency_s + size / self.bandwidth_bps
        if self.jitter_s > 0.0 and rng is not None:
            delay += abs(float(rng.normal(0.0, self.jitter_s)))
        return delay


class NetworkModel:
    """Per-client link registry plus broker processing cost model.

    Parameters
    ----------
    default_link:
        Link profile used for clients without an explicit profile.
    broker_processing_s_per_byte:
        Broker CPU cost charged per payload byte routed (models serialization
        and queueing inside the broker process).
    broker_processing_s_per_message:
        Fixed broker CPU cost per routed message.
    seed:
        Seed for the jitter / loss random stream.
    """

    def __init__(
        self,
        default_link: Optional[LinkProfile] = None,
        broker_processing_s_per_byte: float = 2e-9,
        broker_processing_s_per_message: float = 5e-5,
        seed: int = 0,
    ) -> None:
        self.default_link = default_link or LinkProfile()
        require_positive(broker_processing_s_per_byte, "broker_processing_s_per_byte", strict=False)
        require_positive(broker_processing_s_per_message, "broker_processing_s_per_message", strict=False)
        self.broker_processing_s_per_byte = broker_processing_s_per_byte
        self.broker_processing_s_per_message = broker_processing_s_per_message
        self._links: Dict[str, LinkProfile] = {}
        self._link_overrides: Dict[str, List[LinkProfile]] = {}
        self._rng = np.random.default_rng(seed)
        #: Monotonic generation counter, bumped whenever any link assignment
        #: changes.  Consumers that cache per-link derived state (the broker's
        #: routing-plan latency/bandwidth vectors) key their caches on this.
        self.version = 0

    def set_link(self, client_id: str, profile: LinkProfile) -> None:
        """Assign a link profile to a specific client id."""
        self._links[client_id] = profile
        self.version += 1

    def link_for(self, client_id: Optional[str]) -> LinkProfile:
        """Return the link profile for ``client_id`` (default if unknown).

        An active override (fault-injection window) shadows the base profile.
        """
        if client_id is None:
            return self.default_link
        override = self._link_overrides.get(client_id)
        if override:
            return override[-1]
        return self._links.get(client_id, self.default_link)

    # -------------------------------------------------------- fault injection

    def push_link_override(self, client_id: str, profile: LinkProfile) -> None:
        """Temporarily replace ``client_id``'s link (degradation window start).

        Overrides stack, so nested/overlapping windows restore correctly when
        popped in reverse order of application.
        """
        self._link_overrides.setdefault(client_id, []).append(profile)
        self.version += 1

    def pop_link_override(self, client_id: str, profile: Optional[LinkProfile] = None) -> bool:
        """Remove a link override; returns True if one existed.

        With ``profile`` given, that exact pushed instance is removed wherever
        it sits in the stack — which is what lets different fault windows
        overlap on the same client and still restore correctly when they end
        out of push order.  Without it, the most recent override is popped.
        """
        stack = self._link_overrides.get(client_id)
        if not stack:
            return False
        if profile is None:
            stack.pop()
        else:
            for index in range(len(stack) - 1, -1, -1):
                if stack[index] is profile:
                    del stack[index]
                    break
            else:
                return False
        if not stack:
            del self._link_overrides[client_id]
        self.version += 1
        return True

    def degraded_profile(
        self,
        client_id: str,
        bandwidth_factor: float = 1.0,
        latency_add_s: float = 0.0,
        jitter_add_s: float = 0.0,
        loss_rate: Optional[float] = None,
    ) -> LinkProfile:
        """The client's *base* link with a degradation applied (not installed).

        Computed against the base profile (ignoring any active overrides), so
        overlapping degradation windows stay independent of each other: the
        most recently opened window wins while both are active, and closing
        either restores exactly what the other describes.
        """
        require_positive(bandwidth_factor, "bandwidth_factor")
        require_positive(latency_add_s, "latency_add_s", strict=False)
        require_positive(jitter_add_s, "jitter_add_s", strict=False)
        base = self._links.get(client_id, self.default_link)
        return LinkProfile(
            latency_s=base.latency_s + latency_add_s,
            bandwidth_bps=base.bandwidth_bps * bandwidth_factor,
            jitter_s=base.jitter_s + jitter_add_s,
            loss_rate=base.loss_rate if loss_rate is None else loss_rate,
        )

    def scale_broker_processing(self, factor: float) -> None:
        """Multiply the broker's per-message/per-byte processing cost by ``factor``.

        A factor above 1 models a broker slowdown window (CPU contention,
        co-located workload); scaling by ``1 / factor`` afterwards restores
        the original cost exactly.
        """
        require_positive(factor, "factor")
        self.broker_processing_s_per_byte *= factor
        self.broker_processing_s_per_message *= factor
        self.version += 1

    def broker_processing_time(self, payload_bytes: int) -> float:
        """Broker-side processing time for routing one message."""
        return (
            self.broker_processing_s_per_message
            + payload_bytes * self.broker_processing_s_per_byte
        )

    def uplink_time(self, sender_id: Optional[str], payload_bytes: int) -> float:
        """Publisher → broker transfer time."""
        return self.link_for(sender_id).transfer_time(payload_bytes, self._rng)

    def downlink_time(self, receiver_id: Optional[str], payload_bytes: int) -> float:
        """Broker → subscriber transfer time."""
        return self.link_for(receiver_id).transfer_time(payload_bytes, self._rng)

    def end_to_end_time(
        self, sender_id: Optional[str], receiver_id: Optional[str], payload_bytes: int
    ) -> float:
        """Full publisher → broker → subscriber time including broker processing."""
        return (
            self.uplink_time(sender_id, payload_bytes)
            + self.broker_processing_time(payload_bytes)
            + self.downlink_time(receiver_id, payload_bytes)
        )

    def should_drop(self, receiver_id: Optional[str], qos: int) -> bool:
        """Whether a QoS-0 delivery to ``receiver_id`` is lost."""
        if qos != 0:
            return False
        loss = self.link_for(receiver_id).loss_rate
        if loss <= 0.0:
            return False
        return bool(self._rng.random() < loss)
