"""In-process MQTT-style publish/subscribe substrate.

The paper deploys SDFLMQ on top of a real MQTT broker (EMQX) with paho-mqtt
clients.  This package provides an in-process, deterministic re-implementation
of the MQTT 3.1.1 semantics the framework relies on:

* hierarchical topics with ``+`` and ``#`` wildcard subscriptions,
* QoS 0/1/2 delivery semantics (with per-QoS protocol message overhead
  accounted for in the traffic statistics),
* retained messages,
* last-will messages and persistent (non-clean) sessions,
* broker *bridging* so several brokers can share topic spaces (paper §III.F),
* a configurable network model (latency, bandwidth, jitter, loss) used by the
  simulation layer to attribute transfer delays to each message.

Clients expose a paho-like API (``connect`` / ``subscribe`` / ``publish`` /
``on_message`` / ``loop``), so the SDFLMQ layers above read almost identically
to code written against the real paho client.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "repro.mqtt.errors": (
            "MQTTError", "NotConnectedError", "InvalidTopicError", "InvalidTopicFilterError",
            "PayloadTooLargeError",
        ),
        "repro.mqtt.messages": ("MQTTMessage", "QoS", "DeliveryRecord"),
        "repro.mqtt.topics": (
            "topic_matches_filter", "validate_topic", "validate_topic_filter", "TopicTrie",
        ),
        "repro.mqtt.network": ("LinkProfile", "NetworkModel", "TrafficLog", "TrafficRecord"),
        "repro.mqtt.broker": ("MQTTBroker", "BrokerStats", "Subscription"),
        "repro.mqtt.client": ("MQTTClient",),
        "repro.mqtt.bridge": ("BrokerBridge", "BridgeRule"),
    },
)
