"""Message objects exchanged through the in-process MQTT substrate."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional

__all__ = ["QoS", "MQTTMessage", "DeliveryRecord"]


class QoS(enum.IntEnum):
    """MQTT quality-of-service levels.

    The integer values match the MQTT specification so they can be compared
    and ``min()``-combined directly (effective delivery QoS is the minimum of
    the publish QoS and the subscription QoS).
    """

    AT_MOST_ONCE = 0
    AT_LEAST_ONCE = 1
    EXACTLY_ONCE = 2

    @classmethod
    def coerce(cls, value: "QoS | int") -> "QoS":
        """Convert an int or QoS into a QoS, validating the range."""
        try:
            return cls(int(value))
        except ValueError as exc:  # pragma: no cover - defensive
            raise ValueError(f"invalid QoS level: {value!r}") from exc


@dataclass
class MQTTMessage:
    """A published application message.

    Attributes
    ----------
    topic:
        The concrete (wildcard-free) topic the message was published to.
    payload:
        Raw payload data: ``bytes`` or any buffer-protocol object
        (``bytearray``, ``memoryview``, an encoded
        :class:`~repro.mqttfc.serialization.PayloadFrame`, …), accepted
        *without* coercion to ``bytes`` — the broker shares one message
        object across every subscriber's delivery record, so coercing here
        would copy the payload once per publish.  The payload must be
        treated as immutable once published; convenience conversion from
        ``str`` happens on construction.
    qos:
        QoS level requested by the publisher.
    retain:
        Whether the broker should keep this message as the retained message
        for the topic.
    sender_id:
        Client id of the publisher (filled in by the client on publish).
    origin_broker:
        Name of the broker the message was first published to.  Used by the
        bridging layer for loop prevention.
    timestamp:
        Simulated publish time in seconds (0.0 when no clock is attached).
    message_id:
        Monotonically increasing id assigned by the originating broker.
    """

    topic: str
    payload: "bytes | bytearray | memoryview" = b""
    qos: QoS = QoS.AT_MOST_ONCE
    retain: bool = False
    sender_id: Optional[str] = None
    origin_broker: Optional[str] = None
    timestamp: float = 0.0
    message_id: int = -1

    def __post_init__(self) -> None:
        if isinstance(self.payload, str):
            self.payload = self.payload.encode("utf-8")
        self.qos = QoS.coerce(self.qos)

    @property
    def size_bytes(self) -> int:
        """Payload size in bytes (topic/header overhead is accounted separately)."""
        payload = self.payload
        if type(payload) is bytes:  # the overwhelmingly common case, len() is cheapest
            return len(payload)
        nbytes = getattr(payload, "nbytes", None)
        if nbytes is not None:  # memoryview / PayloadFrame / ndarray-like
            return int(nbytes)
        return len(payload)

    def payload_bytes(self) -> bytes:
        """The payload materialized as contiguous ``bytes`` (no copy if it already is)."""
        payload = self.payload
        if type(payload) is bytes:
            return payload
        return bytes(payload)

    def payload_text(self, encoding: str = "utf-8") -> str:
        """Decode the payload as text."""
        return self.payload_bytes().decode(encoding)

    def copy(self) -> "MQTTMessage":
        """Return a shallow copy.

        The payload object is *shared*, not duplicated — published payloads
        are immutable by contract, so the broker's retained-message copy and
        the bridges' forwarded copies all alias the same buffer.
        """
        return MQTTMessage(
            topic=self.topic,
            payload=self.payload,
            qos=self.qos,
            retain=self.retain,
            sender_id=self.sender_id,
            origin_broker=self.origin_broker,
            timestamp=self.timestamp,
            message_id=self.message_id,
        )


@dataclass(slots=True)
class DeliveryRecord:
    """A message queued for delivery to one particular subscriber.

    ``effective_qos`` is ``min(publish qos, subscription qos)`` per the MQTT
    specification.  ``deliver_at`` is the simulated time at which the message
    becomes visible to the subscriber (publish time + modelled network delay).

    This class is the public *façade* over the scheduler's columnar hot
    state: in flight, a delivery lives as one slot in the
    :class:`~repro.runtime.columns.DeliveryColumns` struct-of-arrays (or as
    one member of a fan-out batch entry), and a ``DeliveryRecord`` is only
    materialized at the API boundary — ``pending_deliveries()``,
    ``cancel_deliveries`` predicates, the broker's scalar routing path and
    targets without the ``_dispatch_message`` fast path.
    Materialized records are detached snapshots; mutating one does not write
    back into the columns.
    """

    message: MQTTMessage
    subscriber_id: str
    subscription_filter: str
    effective_qos: QoS
    deliver_at: float = 0.0
    duplicate: bool = False
    sequence: int = field(default=-1)
    #: The network-model delivery time before any per-connection FIFO clamp
    #: was applied (``None`` when the record was never clamped).  When an
    #: earlier delivery on the same logical connection is cancelled, the
    #: scheduler re-runs the clamp from this value so the cancelled
    #: predecessor's slot is actually released.
    unclamped_deliver_at: Optional[float] = None
