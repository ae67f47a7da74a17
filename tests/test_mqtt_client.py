"""Tests for the paho-like MQTT client wrapper."""

from __future__ import annotations

import pytest

from repro.mqtt.broker import MQTTBroker
from repro.mqtt.client import MQTTClient
from repro.mqtt.errors import NotConnectedError
from repro.mqtt.messages import DeliveryRecord, MQTTMessage, QoS

from _support import drain


class TestCallbacks:
    def test_per_filter_callback_takes_priority(self, broker, connected_clients):
        sub = connected_clients("sub")
        pub = connected_clients("pub")
        general, specific = [], []
        sub.on_message = lambda _c, m: general.append(m.topic)
        sub.message_callback_add("alerts/#", lambda _c, m: specific.append(m.topic))
        sub.subscribe("alerts/#")
        sub.subscribe("news/#")
        pub.publish("alerts/fire", b"!")
        pub.publish("news/today", b"-")
        drain(sub)
        assert specific == ["alerts/fire"]
        assert general == ["news/today"]

    def test_message_without_handler_is_counted(self, broker, connected_clients):
        sub = connected_clients("sub")
        pub = connected_clients("pub")
        sub.subscribe("t")
        pub.publish("t", b"x")
        assert drain(sub) == 1
        assert sub.messages_received == 1

    def test_callback_exception_propagates(self, broker, connected_clients):
        sub = connected_clients("sub")
        pub = connected_clients("pub")

        def boom(_c, _m):
            raise RuntimeError("handler crashed")

        sub.on_message = boom
        sub.subscribe("t")
        pub.publish("t", b"x")
        with pytest.raises(RuntimeError, match="handler crashed"):
            drain(sub)

    def test_on_connect_and_disconnect_hooks(self, broker):
        events = []
        client = MQTTClient("hooked")
        client.on_connect = lambda c: events.append("connect")
        client.on_disconnect = lambda c: events.append("disconnect")
        client.connect(broker)
        client.disconnect()
        assert events == ["connect", "disconnect"]


class TestLoop:
    def test_counters_track_bytes(self, broker, connected_clients):
        sub = connected_clients("sub")
        pub = connected_clients("pub")
        sub.subscribe("t")
        pub.publish("t", b"12345")
        drain(sub)
        assert pub.messages_published == 1
        assert pub.bytes_published == 5
        assert sub.bytes_received == 5


class TestQoS2Deduplication:
    def test_duplicate_qos2_delivery_suppressed(self, broker, connected_clients):
        sub = connected_clients("sub")
        received = []
        sub.on_message = lambda _c, m: received.append(m.message_id)
        sub.subscribe("t", QoS.EXACTLY_ONCE)
        message = MQTTMessage(topic="t", payload=b"x", qos=QoS.EXACTLY_ONCE, sender_id="ghost")
        records = broker.publish(message)
        # Simulate a network-level redelivery of the same application message.
        sub._deliver(DeliveryRecord(message=message, subscriber_id="sub", subscription_filter="t",
                                    effective_qos=QoS.EXACTLY_ONCE))
        drain(sub)
        assert len(received) == 1

    def test_qos2_dedup_memory_is_bounded(self, broker, connected_clients):
        # Regression: the exactly-once dedup keys used to accumulate forever;
        # they are now an LRU ring bounded by max_qos2_dedup.
        sub = connected_clients("sub", max_qos2_dedup=100)
        sub.subscribe("t", QoS.EXACTLY_ONCE)
        pub = connected_clients("pub")
        for _ in range(1_000):
            pub.publish("t", b"x", qos=QoS.EXACTLY_ONCE)
        assert drain(sub) == 1_000
        assert len(sub._delivered_qos2) <= 100
        # Within the window, redelivery of a recent message is still suppressed.
        message = MQTTMessage(topic="t", payload=b"x", qos=QoS.EXACTLY_ONCE, sender_id="ghost")
        broker.publish(message)
        sub._deliver(DeliveryRecord(message=message, subscriber_id="sub", subscription_filter="t",
                                    effective_qos=QoS.EXACTLY_ONCE))
        assert drain(sub) == 1

    def test_qos1_duplicates_are_delivered_twice(self, broker, connected_clients):
        sub = connected_clients("sub")
        received = []
        sub.on_message = lambda _c, m: received.append(m.message_id)
        sub.subscribe("t", QoS.AT_LEAST_ONCE)
        message = MQTTMessage(topic="t", payload=b"x", qos=QoS.AT_LEAST_ONCE, sender_id="ghost")
        broker.publish(message)
        sub._deliver(DeliveryRecord(message=message, subscriber_id="sub", subscription_filter="t",
                                    effective_qos=QoS.AT_LEAST_ONCE, duplicate=True))
        drain(sub)
        assert len(received) == 2


class TestDisconnectedOperations:
    def test_subscribe_requires_connection(self):
        client = MQTTClient("c")
        with pytest.raises(NotConnectedError):
            client.subscribe("t")

    def test_payload_string_encoded_utf8(self, broker, connected_clients):
        sub = connected_clients("sub")
        pub = connected_clients("pub")
        got = []
        sub.on_message = lambda _c, m: got.append(m.payload)
        sub.subscribe("t")
        pub.publish("t", "héllo")
        drain(sub)
        assert got == ["héllo".encode("utf-8")]


class TestMQTTMessage:
    def test_payload_text_roundtrip(self):
        message = MQTTMessage(topic="t", payload="text payload")
        assert message.payload_text() == "text payload"

    def test_size_bytes(self):
        assert MQTTMessage(topic="t", payload=b"abc").size_bytes == 3

    def test_copy_is_independent(self):
        original = MQTTMessage(topic="t", payload=b"abc", qos=QoS.AT_LEAST_ONCE, retain=True)
        clone = original.copy()
        assert clone is not original
        assert clone.topic == original.topic
        assert clone.qos == original.qos
        assert clone.retain == original.retain

    def test_invalid_qos_rejected(self):
        with pytest.raises(ValueError):
            MQTTMessage(topic="t", qos=7)

    def test_bytearray_payload_normalized(self):
        assert MQTTMessage(topic="t", payload=bytearray(b"xy")).payload == b"xy"
