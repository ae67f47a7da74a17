"""Tests for the in-process MQTT broker: routing, QoS, retained messages,
sessions, wills, payload limits and statistics."""

from __future__ import annotations

import pytest

from repro.mqtt.broker import MQTTBroker
from repro.mqtt.client import MQTTClient
from repro.mqtt.errors import ClientIdInUseError, NotConnectedError, PayloadTooLargeError
from repro.mqtt.messages import MQTTMessage, QoS
from repro.mqtt.network import LinkProfile, NetworkModel

from _support import drain


def _connect(broker, client_id, **kwargs):
    client = MQTTClient(client_id, **kwargs)
    client.connect(broker)
    return client


class TestConnectionLifecycle:
    def test_connect_and_disconnect(self, broker):
        client = _connect(broker, "c1")
        assert broker.is_connected("c1")
        client.disconnect()
        assert not broker.is_connected("c1")

    def test_duplicate_client_id_rejected(self, broker):
        _connect(broker, "c1")
        with pytest.raises(ClientIdInUseError):
            _connect(broker, "c1")

    def test_connect_twice_on_same_client_rejected(self, broker):
        client = _connect(broker, "c1")
        with pytest.raises(NotConnectedError):
            client.connect(broker)

    def test_clean_session_drops_subscriptions(self, broker):
        client = _connect(broker, "c1")
        client.subscribe("a/b")
        client.disconnect()
        client.connect(broker)
        _connect(broker, "pub").publish("a/b", b"x")
        assert drain(client) == 0

    def test_persistent_session_resumes_subscriptions(self, broker):
        client = _connect(broker, "c1", clean_session=False)
        client.subscribe("a/b", QoS.AT_LEAST_ONCE)
        client.disconnect()
        resumed = client.connect(broker)
        assert resumed
        _connect(broker, "pub").publish("a/b", b"x", qos=QoS.AT_LEAST_ONCE)
        (record,) = client.take_pending()
        assert record.effective_qos == QoS.AT_LEAST_ONCE

    def test_persistent_session_queues_qos1_while_offline(self, broker):
        subscriber = _connect(broker, "sub", clean_session=False)
        subscriber.subscribe("news", QoS.AT_LEAST_ONCE)
        subscriber.disconnect()

        publisher = _connect(broker, "pub")
        publisher.publish("news", b"offline delivery", qos=QoS.AT_LEAST_ONCE)
        assert broker.stats.messages_queued_offline == 1

        received = []
        subscriber.on_message = lambda _c, m: received.append(m.payload)
        subscriber.connect(broker)
        drain(subscriber)
        assert received == [b"offline delivery"]

    def test_qos0_not_queued_for_offline_session(self, broker):
        subscriber = _connect(broker, "sub", clean_session=False)
        subscriber.subscribe("news", QoS.AT_MOST_ONCE)
        subscriber.disconnect()
        publisher = _connect(broker, "pub")
        publisher.publish("news", b"gone", qos=QoS.AT_MOST_ONCE)
        assert broker.stats.messages_queued_offline == 0
        assert broker.stats.messages_dropped == 1

    def test_connected_clients_listing(self, broker):
        _connect(broker, "b")
        _connect(broker, "a")
        assert broker.connected_clients == ["a", "b"]


class TestRouting:
    def test_basic_delivery(self, broker):
        sub = _connect(broker, "sub")
        pub = _connect(broker, "pub")
        received = []
        sub.on_message = lambda _c, m: received.append((m.topic, m.payload))
        sub.subscribe("sensors/+/temp")
        pub.publish("sensors/kitchen/temp", b"21.5")
        drain(sub)
        assert received == [("sensors/kitchen/temp", b"21.5")]

    def test_no_delivery_without_subscription(self, broker):
        sub = _connect(broker, "sub")
        pub = _connect(broker, "pub")
        pub.publish("other/topic", b"x")
        assert drain(sub) == 0

    def test_publisher_does_not_receive_its_own_message(self, broker):
        client = _connect(broker, "c")
        client.subscribe("loop/topic")
        client.publish("loop/topic", b"echo?")
        assert drain(client) == 0

    def test_fanout_to_multiple_subscribers(self, broker):
        pub = _connect(broker, "pub")
        subs = [_connect(broker, f"s{i}") for i in range(5)]
        for sub in subs:
            sub.subscribe("fan/out")
        pub.publish("fan/out", b"x")
        assert broker.stats.messages_delivered == 5
        for sub in subs:
            assert drain(sub) == 1

    def test_overlapping_subscriptions_deliver_once_per_client(self, broker):
        sub = _connect(broker, "sub")
        pub = _connect(broker, "pub")
        sub.subscribe("a/#")
        sub.subscribe("a/+")
        pub.publish("a/b", b"x")
        # The broker routes per matching client (set semantics), not per filter.
        assert drain(sub) == 1

    def test_overlapping_filters_with_different_qos_deliver_once_at_max(self, broker):
        # Regression: overlapping filters at *different* granted QoS used to
        # produce one delivery per (client, qos) pair; the client must receive
        # the message exactly once, at the maximum granted QoS.
        sub = _connect(broker, "sub")
        sub.subscribe("a/#", QoS.AT_MOST_ONCE)
        sub.subscribe("a/+", QoS.EXACTLY_ONCE)
        sub.subscribe("a/b", QoS.AT_LEAST_ONCE)
        assert broker.publish(
            MQTTMessage(topic="a/b", payload=b"x", qos=QoS.EXACTLY_ONCE, sender_id="pub")
        ) == 1
        (record,) = sub.take_pending()
        assert record.effective_qos == QoS.EXACTLY_ONCE
        assert broker.stats.messages_delivered == 1

    def test_effective_qos_is_minimum(self, broker):
        sub = _connect(broker, "sub")
        sub.subscribe("t", QoS.AT_LEAST_ONCE)
        broker.publish(MQTTMessage(topic="t", payload=b"x", qos=QoS.EXACTLY_ONCE, sender_id="pub"))
        assert sub.take_pending()[0].effective_qos == QoS.AT_LEAST_ONCE

    def test_payload_too_large_rejected(self):
        broker = MQTTBroker("small", max_payload_bytes=16)
        pub = _connect(broker, "pub")
        with pytest.raises(PayloadTooLargeError):
            pub.publish("t", b"x" * 17)

    def test_publish_requires_connection(self, broker):
        client = MQTTClient("never-connected")
        with pytest.raises(NotConnectedError):
            client.publish("t", b"x")

    def test_deliveries_return_records(self, broker):
        sub = _connect(broker, "sub")
        sub.subscribe("t/#")
        assert broker.publish(MQTTMessage(topic="t/1", payload=b"data", sender_id="pub")) == 1
        (record,) = sub.take_pending()
        assert record.subscriber_id == "sub"
        assert record.message.sender_id == "pub"


class TestRetainedMessages:
    def test_retained_replayed_on_subscribe(self, broker):
        pub = _connect(broker, "pub")
        pub.publish("config/rate", b"10", retain=True)
        sub = _connect(broker, "sub")
        received = []
        sub.on_message = lambda _c, m: received.append(m.payload)
        sub.subscribe("config/#")
        drain(sub)
        assert received == [b"10"]

    def test_retained_overwritten(self, broker):
        pub = _connect(broker, "pub")
        pub.publish("config/rate", b"10", retain=True)
        pub.publish("config/rate", b"20", retain=True)
        sub = _connect(broker, "sub")
        sub.subscribe("config/rate")
        assert [record.message.payload for record in sub.take_pending()] == [b"20"]

    def test_empty_retained_clears(self, broker):
        pub = _connect(broker, "pub")
        pub.publish("config/rate", b"10", retain=True)
        pub.publish("config/rate", b"", retain=True)
        assert broker.stats.retained_messages == 0
        sub = _connect(broker, "sub")
        sub.subscribe("config/#")
        assert drain(sub) == 0

    def test_non_retained_not_replayed(self, broker):
        pub = _connect(broker, "pub")
        pub.publish("volatile", b"x")
        sub = _connect(broker, "sub")
        sub.subscribe("volatile")
        assert drain(sub) == 0


class TestLastWill:
    def test_will_published_on_unexpected_disconnect(self, broker):
        watcher = _connect(broker, "watcher")
        seen = []
        watcher.on_message = lambda _c, m: seen.append((m.topic, m.payload))
        watcher.subscribe("status/+")

        fragile = MQTTClient("fragile")
        fragile.will_set("status/fragile", b"offline", qos=QoS.AT_LEAST_ONCE)
        fragile.connect(broker)
        fragile.disconnect(unexpected=True)
        drain(watcher)
        assert seen == [("status/fragile", b"offline")]

    def test_will_not_published_on_clean_disconnect(self, broker):
        watcher = _connect(broker, "watcher")
        watcher.subscribe("status/+")
        fragile = MQTTClient("fragile")
        fragile.will_set("status/fragile", b"offline")
        fragile.connect(broker)
        fragile.disconnect(unexpected=False)
        assert drain(watcher) == 0


class TestBrokerStats:
    def test_counters(self, broker):
        sub = _connect(broker, "sub")
        pub = _connect(broker, "pub")
        sub.subscribe("t")
        pub.publish("t", b"12345")
        drain(sub)
        assert broker.stats.messages_published == 1
        assert broker.stats.messages_delivered == 1
        assert broker.stats.bytes_published == 5
        assert broker.stats.bytes_delivered == 5
        assert broker.stats.connects == 2

class TestNetworkIntegration:
    def test_transfer_time_recorded(self):
        network = NetworkModel(default_link=LinkProfile(latency_s=0.01, bandwidth_bps=1e6))
        broker = MQTTBroker("net", network=network)
        sub = _connect(broker, "sub")
        pub = _connect(broker, "pub")
        sub.subscribe("t")
        pub.publish("t", b"x" * 1000)
        (record,) = sub.take_pending()
        assert record.deliver_at > 0.02  # published at t=0: two hops of >= 10ms latency each

    def test_lossy_qos0_drops_messages(self):
        network = NetworkModel(default_link=LinkProfile(loss_rate=1.0 - 1e-12), seed=1)
        # loss_rate must be < 1.0; use a value astronomically close to 1.
        broker = MQTTBroker("lossy", network=network)
        sub = _connect(broker, "sub")
        pub = _connect(broker, "pub")
        sub.subscribe("t", QoS.AT_MOST_ONCE)
        for _ in range(20):
            pub.publish("t", b"x", qos=QoS.AT_MOST_ONCE)
        assert drain(sub) == 0
        assert broker.stats.messages_dropped == 20

    def test_qos1_never_dropped_by_loss_model(self):
        network = NetworkModel(default_link=LinkProfile(loss_rate=0.9), seed=1)
        broker = MQTTBroker("lossy", network=network)
        sub = _connect(broker, "sub")
        pub = _connect(broker, "pub")
        sub.subscribe("t", QoS.AT_LEAST_ONCE)
        for _ in range(20):
            pub.publish("t", b"x", qos=QoS.AT_LEAST_ONCE)
        assert drain(sub) == 20


class TestBufferProtocolPayloads:
    """PR-5: messages accept buffer-protocol payloads without coercion."""

    def test_bytearray_payload_not_coerced(self):
        payload = bytearray(b"model-bytes")
        message = MQTTMessage(topic="t", payload=payload)
        assert message.payload is payload
        assert message.size_bytes == len(payload)
        assert message.payload_bytes() == bytes(payload)

    def test_memoryview_payload_not_coerced(self):
        backing = b"0123456789"
        view = memoryview(backing)[2:8]
        message = MQTTMessage(topic="t", payload=view)
        assert message.payload is view
        assert message.size_bytes == 6
        assert message.payload_bytes() == b"234567"

    def test_payload_frame_accepted(self):
        import numpy as np

        from repro.mqttfc.serialization import encode_payload_frame

        frame = encode_payload_frame({"w": np.arange(16.0)})
        message = MQTTMessage(topic="t", payload=frame)
        assert message.payload is frame
        assert message.size_bytes == frame.nbytes

    def test_str_payload_still_encoded(self):
        message = MQTTMessage(topic="t", payload="hello")
        assert message.payload == b"hello"
        assert message.payload_text() == "hello"

    def test_copy_shares_the_payload_buffer(self):
        """copy() is documented shallow: one immutable buffer, many holders."""
        payload = bytearray(b"shared")
        message = MQTTMessage(topic="t", payload=payload)
        duplicate = message.copy()
        assert duplicate.payload is message.payload

    def test_broker_routes_buffer_payloads_end_to_end(self):
        broker = MQTTBroker("b")
        sub = MQTTClient("sub")
        sub.connect(broker)
        sub.subscribe("bin/#")
        seen = []
        sub.on_message = lambda _c, m: seen.append(m.payload_bytes())
        pub = MQTTClient("pub")
        pub.connect(broker)
        pub.publish("bin/data", memoryview(b"zero-copy"))
        drain(sub)
        assert seen == [b"zero-copy"]


class TestRoutePlanCache:
    """The fan-out routing plan is memoized per topic and invalidated correctly."""

    def _fleet(self):
        broker = MQTTBroker("b")
        clients = []
        for index in range(3):
            client = MQTTClient(f"c{index}")
            client.connect(broker)
            client.subscribe("all/cmd", QoS.AT_LEAST_ONCE)
            clients.append(client)
        pub = MQTTClient("pub")
        pub.connect(broker)
        return broker, clients, pub

    def test_repeat_publishes_hit_the_plan(self):
        broker, _clients, pub = self._fleet()
        for _ in range(5):
            pub.publish("all/cmd", b"x")
        assert broker.route_cache_misses == 1
        assert broker.route_cache_hits == 4

    def test_subscribe_invalidates_the_plan(self):
        broker, clients, pub = self._fleet()
        assert broker.publish(MQTTMessage(topic="all/cmd", payload=b"x", sender_id="pub")) == 3
        late = MQTTClient("late")
        late.connect(broker)
        late.subscribe("all/cmd")
        assert broker.publish(MQTTMessage(topic="all/cmd", payload=b"x", sender_id="pub")) == 4

    def test_clean_disconnect_invalidates_the_plan(self):
        broker, clients, pub = self._fleet()
        assert broker.publish(MQTTMessage(topic="all/cmd", payload=b"x", sender_id="pub")) == 3
        clients[2].disconnect()
        assert broker.publish(MQTTMessage(topic="all/cmd", payload=b"x", sender_id="pub")) == 2

    def test_subscribe_keeps_unrelated_plans_cached(self):
        # A new subscription only evicts the plans its filter matches: the
        # hot topic's plan must survive an unrelated client joining (the
        # flash-crowd mid-round-admission case).
        broker, _clients, pub = self._fleet()
        pub.publish("all/cmd", b"x")
        hits_before = broker.route_cache_hits
        misses_before = broker.route_cache_misses
        late = MQTTClient("late")
        late.connect(broker)
        late.subscribe("other/topic")
        pub.publish("all/cmd", b"x")
        assert broker.route_cache_hits == hits_before + 1
        assert broker.route_cache_misses == misses_before

    def test_subscribe_evicts_only_matching_plans(self):
        broker, _clients, pub = self._fleet()
        pub.publish("all/cmd", b"x")
        pub.publish("other/topic", b"x")
        misses_before = broker.route_cache_misses
        late = MQTTClient("late")
        late.connect(broker)
        late.subscribe("all/+")  # matches all/cmd, not other/topic
        pub.publish("all/cmd", b"x")    # re-miss: plan was evicted
        pub.publish("other/topic", b"x")  # hit: plan survived
        assert broker.route_cache_misses == misses_before + 1
        # ... and the rebuilt plan includes the new subscriber.
        assert broker.publish(MQTTMessage(topic="all/cmd", payload=b"x", sender_id="pub")) == 4

    def test_disconnect_keeps_unrelated_plans_cached(self):
        broker, clients, pub = self._fleet()
        solo = MQTTClient("solo")
        solo.connect(broker)
        solo.subscribe("solo/only")
        pub.publish("all/cmd", b"x")
        misses_before = broker.route_cache_misses
        solo.disconnect()  # drops solo/only, must not evict all/cmd's plan
        pub.publish("all/cmd", b"x")
        assert broker.route_cache_misses == misses_before

    def test_plan_keeps_max_qos_per_client_with_overlapping_filters(self):
        broker = MQTTBroker("b")
        sub = MQTTClient("sub")
        sub.connect(broker)
        sub.subscribe("a/#", QoS.AT_MOST_ONCE)
        sub.subscribe("a/+", QoS.EXACTLY_ONCE)
        pub = MQTTClient("pub")
        pub.connect(broker)
        for _attempt in range(2):  # second publish comes from the cached plan
            assert broker.publish(
                MQTTMessage(topic="a/b", payload=b"x", qos=QoS.EXACTLY_ONCE, sender_id="pub")
            ) == 1
            (record,) = sub.take_pending()
            assert record.effective_qos == QoS.EXACTLY_ONCE
