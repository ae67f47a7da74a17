"""A paho-like MQTT client for the in-process broker.

The client mirrors the parts of the ``paho.mqtt.client.Client`` API that
SDFLMQ's original implementation uses: ``connect``, ``subscribe``,
``publish``, per-filter callbacks via ``message_callback_add`` and a default
``on_message`` handler.  Because the broker lives in the same process, there
is no network loop: the :class:`~repro.runtime.scheduler.EventScheduler` (or
its :class:`~repro.runtime.pump.MessagePump` facade) drives all clients'
deliveries in deterministic ``(deliver_at, sequence)`` order.
"""

from __future__ import annotations

from collections import OrderedDict, deque
from typing import Callable, Deque, Dict, List, Optional, Tuple

from repro.mqtt.broker import MQTTBroker
from repro.mqtt.errors import NotConnectedError
from repro.mqtt.messages import DeliveryRecord, MQTTMessage, QoS
from repro.mqtt.topics import topic_matches_filter, validate_topic_filter
from repro.utils.validation import validate_identifier

__all__ = ["MQTTClient"]

MessageCallback = Callable[["MQTTClient", MQTTMessage], None]


class MQTTClient:
    """An MQTT client bound to an in-process :class:`MQTTBroker`.

    Parameters
    ----------
    client_id:
        Unique, topic-safe identifier of this client.
    clean_session:
        If ``False`` the broker keeps subscriptions and queues QoS>0 messages
        across disconnects (persistent session).
    userdata:
        Opaque object passed through to callbacks via the ``userdata``
        attribute (paho parity; SDFLMQ does not use it).
    max_qos2_dedup:
        Maximum number of ``(origin_broker, message_id)`` keys remembered for
        QoS-2 exactly-once deduplication.  An LRU ring, mirroring the
        broker's bounded bridge dedup, so long QoS-2 runs do not grow client
        memory without limit.
    """

    def __init__(
        self,
        client_id: str,
        clean_session: bool = True,
        userdata: object = None,
        max_qos2_dedup: int = 10_000,
    ) -> None:
        self.client_id = validate_identifier(client_id, "client id")
        self.clean_session = bool(clean_session)
        self.userdata = userdata

        self.on_message: Optional[MessageCallback] = None
        self.on_connect: Optional[Callable[["MQTTClient"], None]] = None
        self.on_disconnect: Optional[Callable[["MQTTClient"], None]] = None

        self._broker: Optional[MQTTBroker] = None
        self._inbox: Deque[DeliveryRecord] = deque()
        self._callbacks: Dict[str, MessageCallback] = {}
        # Per concrete topic resolution of the first matching filter callback
        # (None = "no filter matches, use on_message").  Invalidated whenever
        # the callback registry changes; on the fleet-scale dispatch path this
        # turns an O(filters) wildcard scan per message into a dict hit.
        self._callback_cache: Dict[str, Optional[MessageCallback]] = {}
        self._will: Optional[MQTTMessage] = None
        self._delivered_qos2: "OrderedDict[Tuple[str, int], None]" = OrderedDict()
        self.max_qos2_dedup = max(1, int(max_qos2_dedup))
        self.messages_received = 0
        self.messages_published = 0
        self.bytes_received = 0
        self.bytes_published = 0

    # ------------------------------------------------------------ connection

    @property
    def connected(self) -> bool:
        """Whether the client currently has a live broker connection."""
        return self._broker is not None and self._broker.is_connected(self.client_id)

    @property
    def broker(self) -> Optional[MQTTBroker]:
        """The broker this client is connected to, if any."""
        return self._broker

    def will_set(
        self,
        topic: str,
        payload: "bytes | bytearray | memoryview | str" = b"",
        qos: QoS | int = QoS.AT_MOST_ONCE,
        retain: bool = False,
    ) -> None:
        """Configure the last-will message sent if this client dies unexpectedly."""
        self._will = MQTTMessage(
            topic=topic, payload=payload, qos=QoS.coerce(qos), retain=retain, sender_id=self.client_id
        )

    def connect(self, broker: MQTTBroker) -> bool:
        """Connect to ``broker``; returns True if a persistent session resumed."""
        if self.connected:
            raise NotConnectedError(
                f"client {self.client_id!r} is already connected; disconnect first"
            )
        self._broker = broker
        resumed = broker.connect(self, clean_session=self.clean_session, will=self._will)
        if self.on_connect is not None:
            self.on_connect(self)
        return resumed

    def disconnect(self, unexpected: bool = False) -> None:
        """Disconnect from the broker (optionally simulating an ungraceful drop)."""
        if self._broker is not None:
            self._broker.disconnect(self.client_id, unexpected=unexpected)
        if self.on_disconnect is not None:
            self.on_disconnect(self)
        self._broker = None

    def _require_broker(self) -> MQTTBroker:
        if self._broker is None or not self._broker.is_connected(self.client_id):
            raise NotConnectedError(f"client {self.client_id!r} is not connected to a broker")
        return self._broker

    # --------------------------------------------------------- subscriptions

    def subscribe(self, topic_filter: str, qos: QoS | int = QoS.AT_MOST_ONCE) -> QoS:
        """Subscribe to ``topic_filter`` with the requested QoS."""
        return self._require_broker().subscribe(self.client_id, topic_filter, qos)

    def message_callback_add(self, topic_filter: str, callback: MessageCallback) -> None:
        """Attach a callback invoked for messages matching ``topic_filter``.

        Matching follows MQTT filter rules; the first registered filter that
        matches wins (paho uses registration order as well).
        """
        validate_topic_filter(topic_filter)
        self._callbacks[topic_filter] = callback
        self._callback_cache.clear()

    # ---------------------------------------------------------------- publish

    def publish(
        self,
        topic: str,
        payload: "bytes | bytearray | memoryview | str" = b"",
        qos: QoS | int = QoS.AT_MOST_ONCE,
        retain: bool = False,
    ) -> MQTTMessage:
        """Publish ``payload`` on ``topic``; returns the routed message object.

        Any buffer-protocol payload travels uncopied (shared by every
        delivery record); ``str`` is encoded UTF-8 for convenience.
        """
        broker = self._require_broker()
        message = MQTTMessage(
            topic=topic,
            payload=payload,
            qos=QoS.coerce(qos),
            retain=retain,
            sender_id=self.client_id,
        )
        self.messages_published += 1
        self.bytes_published += message.size_bytes
        broker.publish(message)
        return message

    # ------------------------------------------------------------- receiving

    def _deliver(self, record: DeliveryRecord) -> None:
        """Called by the broker to place a delivery in this client's inbox."""
        self._inbox.append(record)

    def take_pending(self) -> List[DeliveryRecord]:
        """Remove and return all inbox records (oldest first).

        Used by :class:`~repro.runtime.scheduler.EventScheduler` to migrate
        records delivered directly to the inbox into its time-ordered heap.
        """
        if not self._inbox:
            return []
        records = list(self._inbox)
        self._inbox.clear()
        return records

    def _dispatch_message(self, message: MQTTMessage, effective_qos: int) -> bool:
        # Hot-path entry used by the columnar event scheduler: everything the
        # client needs is the shared message plus the effective QoS, so no
        # DeliveryRecord is materialized per delivery.
        # QoS 2: exactly-once — drop duplicates keyed by (origin broker, id).
        if effective_qos == QoS.EXACTLY_ONCE:
            key = (message.origin_broker or "", message.message_id)
            if key in self._delivered_qos2:
                return False
            self._delivered_qos2[key] = None
            while len(self._delivered_qos2) > self.max_qos2_dedup:
                self._delivered_qos2.popitem(last=False)

        self.messages_received += 1
        self.bytes_received += message.size_bytes

        callback = self._match_callback(message.topic)
        if callback is not None:
            callback(self, message)
            return True
        if self.on_message is not None:
            self.on_message(self, message)
            return True
        return True  # message consumed without a handler (counted but ignored)

    def _match_callback(self, topic: str) -> Optional[MessageCallback]:
        cache = self._callback_cache
        try:
            return cache[topic]
        except KeyError:
            pass
        resolved: Optional[MessageCallback] = None
        for topic_filter, callback in self._callbacks.items():
            if topic_matches_filter(topic, topic_filter):
                resolved = callback
                break
        if len(cache) < 4096:  # bound the cache for pathological topic churn
            cache[topic] = resolved
        return resolved
