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

from repro.mqtt.errors import (
    MQTTError,
    NotConnectedError,
    InvalidTopicError,
    InvalidTopicFilterError,
    PayloadTooLargeError,
)
from repro.mqtt.messages import MQTTMessage, QoS, DeliveryRecord
from repro.mqtt.topics import (
    topic_matches_filter,
    validate_topic,
    validate_topic_filter,
    TopicTrie,
)
from repro.mqtt.network import LinkProfile, NetworkModel, TrafficLog, TrafficRecord
from repro.mqtt.broker import MQTTBroker, BrokerStats, Subscription
from repro.mqtt.client import MQTTClient
from repro.mqtt.bridge import BrokerBridge, BridgeRule

__all__ = [
    "MQTTError",
    "NotConnectedError",
    "InvalidTopicError",
    "InvalidTopicFilterError",
    "PayloadTooLargeError",
    "MQTTMessage",
    "QoS",
    "DeliveryRecord",
    "topic_matches_filter",
    "validate_topic",
    "validate_topic_filter",
    "TopicTrie",
    "LinkProfile",
    "NetworkModel",
    "TrafficLog",
    "TrafficRecord",
    "MQTTBroker",
    "BrokerStats",
    "Subscription",
    "MQTTClient",
    "BrokerBridge",
    "BridgeRule",
]
