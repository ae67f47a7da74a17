"""Tests for broker bridging: forwarding rules, loop prevention, chains."""

from __future__ import annotations

import pytest

from repro.mqtt.bridge import BridgeRule, BrokerBridge
from repro.mqtt.broker import MQTTBroker
from repro.mqtt.client import MQTTClient

from _support import drain


def _attach(broker, client_id):
    client = MQTTClient(client_id)
    client.connect(broker)
    return client


@pytest.fixture
def two_brokers():
    return MQTTBroker("broker-a"), MQTTBroker("broker-b")


class TestBridgeBasics:
    def test_forward_both_directions_by_default(self, two_brokers):
        broker_a, broker_b = two_brokers
        BrokerBridge(broker_a, broker_b)
        client_a = _attach(broker_a, "ca")
        client_b = _attach(broker_b, "cb")
        client_b.subscribe("t/#")
        client_a.subscribe("t/#")

        client_a.publish("t/1", b"from-a")
        assert drain(client_b) == 1
        client_b.publish("t/2", b"from-b")
        assert drain(client_a) == 1

    def test_bridge_to_self_rejected(self):
        broker = MQTTBroker("solo")
        with pytest.raises(ValueError):
            BrokerBridge(broker, broker)

    def test_out_rule_only_forwards_local_to_remote(self, two_brokers):
        broker_a, broker_b = two_brokers
        BrokerBridge(broker_a, broker_b, rules=[BridgeRule("t/#", "out")])
        client_a = _attach(broker_a, "ca")
        client_b = _attach(broker_b, "cb")
        client_a.subscribe("t/#")
        client_b.subscribe("t/#")

        client_a.publish("t/x", b"a->b")
        assert drain(client_b) == 1
        client_b.publish("t/y", b"b->a?")
        assert drain(client_a) == 0

    def test_in_rule_only_forwards_remote_to_local(self, two_brokers):
        broker_a, broker_b = two_brokers
        BrokerBridge(broker_a, broker_b, rules=[BridgeRule("t/#", "in")])
        client_a = _attach(broker_a, "ca")
        client_b = _attach(broker_b, "cb")
        client_a.subscribe("t/#")
        client_b.subscribe("t/#")

        client_b.publish("t/x", b"b->a")
        assert drain(client_a) == 1
        client_a.publish("t/y", b"a->b?")
        assert drain(client_b) == 0

    def test_rule_topic_filtering(self, two_brokers):
        broker_a, broker_b = two_brokers
        BrokerBridge(broker_a, broker_b, rules=[BridgeRule("shared/#", "both")])
        client_a = _attach(broker_a, "ca")
        client_b = _attach(broker_b, "cb")
        client_b.subscribe("#")
        client_a.publish("shared/x", b"forwarded")
        client_a.publish("private/x", b"not forwarded")
        topics = []
        client_b.on_message = lambda _c, m: topics.append(m.topic)
        drain(client_b)
        assert topics == ["shared/x"]

    def test_invalid_direction_rejected(self):
        with pytest.raises(ValueError):
            BridgeRule("t/#", "sideways")

    def test_forward_counters(self, two_brokers):
        broker_a, broker_b = two_brokers
        bridge = BrokerBridge(broker_a, broker_b)
        client_a = _attach(broker_a, "ca")
        client_b = _attach(broker_b, "cb")
        client_b.subscribe("#")
        client_a.subscribe("#")
        client_a.publish("x", b"1")
        client_b.publish("y", b"2")
        assert bridge.forwarded_local_to_remote == 1
        assert bridge.forwarded_remote_to_local == 1
        assert broker_b.stats.bridged_in == 1
        assert broker_a.stats.bridged_out == 1


class TestBridgeLoops:
    def test_no_echo_back_to_origin(self, two_brokers):
        broker_a, broker_b = two_brokers
        BrokerBridge(broker_a, broker_b)
        client_a = _attach(broker_a, "ca")
        client_a.subscribe("#")
        client_a.publish("t", b"x")
        # The message must not be bridged back and re-delivered on broker A.
        assert drain(client_a) == 0
        assert broker_a.stats.messages_published == 1

    def test_chain_of_three_brokers(self):
        brokers = [MQTTBroker(f"b{i}") for i in range(3)]
        BrokerBridge(brokers[0], brokers[1])
        BrokerBridge(brokers[1], brokers[2])
        first = _attach(brokers[0], "first")
        last = _attach(brokers[2], "last")
        last.subscribe("chain/#")
        first.publish("chain/msg", b"travels two hops")
        assert drain(last) == 1

    def test_cycle_does_not_duplicate(self):
        brokers = [MQTTBroker(f"b{i}") for i in range(3)]
        BrokerBridge(brokers[0], brokers[1])
        BrokerBridge(brokers[1], brokers[2])
        BrokerBridge(brokers[2], brokers[0])  # closes the cycle
        source = _attach(brokers[0], "src")
        sinks = [_attach(b, f"sink{i}") for i, b in enumerate(brokers)]
        for sink in sinks:
            sink.subscribe("#")
        source.publish("cycle/test", b"once only")
        counts = [drain(sink) for sink in sinks]
        assert counts == [1, 1, 1]

    def test_retained_message_forwarded_without_corruption(self, two_brokers):
        broker_a, broker_b = two_brokers
        BrokerBridge(broker_a, broker_b)
        client_a = _attach(broker_a, "ca")
        client_a.publish("conf/x", b"retained", retain=True)
        late = _attach(broker_b, "late")
        late.subscribe("conf/#")
        assert [record.message.payload for record in late.take_pending()] == [b"retained"]


class TestBridgeDedupBound:
    def test_100k_message_bridged_run_keeps_dedup_set_bounded(self):
        # Regression: the (origin_broker, message_id) dedup set used to grow
        # one entry per published message forever.  It is now an LRU ring
        # bounded by max_bridge_dedup on every broker.
        cap = 2_000
        broker_a = MQTTBroker("region-a", max_bridge_dedup=cap)
        broker_b = MQTTBroker("region-b", max_bridge_dedup=cap)
        BrokerBridge(broker_a, broker_b)
        publisher = _attach(broker_a, "pub")
        sink = _attach(broker_b, "sink")
        sink.subscribe("load/#")

        total = 100_000
        for index in range(total):
            publisher.publish(f"load/{index % 16}", b"x")

        assert broker_b.stats.bridged_in == total
        assert drain(sink) == total
        assert len(broker_a._seen_bridge_messages) <= cap
        assert len(broker_b._seen_bridge_messages) <= cap

    def test_dedup_still_prevents_loops_within_the_window(self, two_brokers):
        broker_a, broker_b = two_brokers
        BrokerBridge(broker_a, broker_b)
        sink = _attach(broker_b, "sink")
        sink.subscribe("#")
        client_a = _attach(broker_a, "ca")
        for _ in range(50):
            client_a.publish("t", b"x")
        # One bridged copy per publish — never a re-forwarded duplicate.
        assert drain(sink) == 50
        assert broker_b.stats.bridged_in == 50

    def test_max_bridge_dedup_validated(self):
        with pytest.raises(ValueError):
            MQTTBroker("bad", max_bridge_dedup=0)
