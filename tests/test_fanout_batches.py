"""Fan-out batches in the event scheduler: listing, cancelling and exploding.

When every subscriber of one publish lands at the same instant the scheduler
keeps the whole fan-out as one heap entry (a batch).  These tests pin what
the cold paths do with such a batch: ``pending_deliveries`` lists each
member, and ``cancel_deliveries`` either drops single members or turns the
batch back into per-member entries, without moving any survivor's
``(deliver_at, sequence)`` key.
"""

from __future__ import annotations

from repro.mqtt.broker import MQTTBroker
from repro.mqtt.client import MQTTClient
from repro.mqtt.network import LinkProfile, NetworkModel
from repro.runtime.scheduler import EventScheduler
from repro.sim.clock import SimulationClock

#: Eight: the broker takes its vectorized (batching) path from this width on.
SUBSCRIBERS = tuple(f"c{i}" for i in range(8))


def _uniform_fanout():
    """Subscribers on identical links, so one publish is one batch."""
    clock = SimulationClock()
    network = NetworkModel(seed=0)
    for client_id in SUBSCRIBERS + ("pub",):
        network.set_link(client_id, LinkProfile(latency_s=0.010, bandwidth_bps=1e9))
    broker = MQTTBroker("fanout", network=network, clock=clock)
    scheduler = EventScheduler(clock=clock)
    scheduler.attach_broker(broker)
    seen = []
    clients = {}
    for client_id in SUBSCRIBERS:
        client = MQTTClient(client_id)
        client.connect(broker)
        client.subscribe("bus")
        client.on_message = lambda _c, m, cid=client_id: seen.append((cid, m.topic))
        scheduler.register(client)
        clients[client_id] = client
    publisher = MQTTClient("pub")
    publisher.connect(broker)
    return scheduler, publisher, seen, clients


def _keys(records):
    return [(r.subscriber_id, r.deliver_at, r.sequence) for r in records]


class TestBatchListing:
    def test_pending_deliveries_lists_every_batch_member(self):
        scheduler, publisher, _seen, _clients = _uniform_fanout()
        publisher.publish("bus", b"x")

        records = scheduler.pending_deliveries()
        assert scheduler.pending_delivery_count == len(SUBSCRIBERS)
        assert [r.subscriber_id for r in records] == list(SUBSCRIBERS)
        assert len({r.deliver_at for r in records}) == 1
        sequences = [r.sequence for r in records]
        assert sequences == list(range(sequences[0], sequences[0] + len(SUBSCRIBERS)))
        assert all(r.message.topic == "bus" and r.subscription_filter == "bus" for r in records)
        assert all(r.unclamped_deliver_at is None for r in records)

    def test_partly_drained_batch_lists_only_its_remainder(self):
        scheduler, publisher, seen, _clients = _uniform_fanout()
        publisher.publish("bus", b"x")
        scheduler.run_until_time(1.0, stop_when=lambda: len(seen) >= 1)

        assert [cid for cid, _ in seen] == ["c0"]
        assert [r.subscriber_id for r in scheduler.pending_deliveries()] == list(SUBSCRIBERS[1:])


class TestBatchCancellation:
    def test_cancelling_one_member_keeps_the_others_in_order(self):
        scheduler, publisher, seen, _clients = _uniform_fanout()
        publisher.publish("bus", b"x")
        before = _keys(scheduler.pending_deliveries())

        assert scheduler.cancel_deliveries(lambda r: r.subscriber_id == "c2") == 1
        assert _keys(scheduler.pending_deliveries()) == [k for k in before if k[0] != "c2"]
        scheduler.run_until_idle()
        assert [cid for cid, _ in seen] == [cid for cid in SUBSCRIBERS if cid != "c2"]

    def test_predicate_sees_each_member_once(self):
        scheduler, publisher, _seen, _clients = _uniform_fanout()
        publisher.publish("bus", b"x")
        asked = []

        cancelled = scheduler.cancel_deliveries(lambda r: asked.append(r.subscriber_id) or False)

        assert cancelled == 0
        assert sorted(asked) == list(SUBSCRIBERS)
        assert scheduler.pending_delivery_count == len(SUBSCRIBERS)

    def test_cancelling_inside_a_partly_drained_batch(self):
        scheduler, publisher, seen, _clients = _uniform_fanout()
        publisher.publish("bus", b"x")
        scheduler.run_until_time(1.0, stop_when=lambda: len(seen) >= 1)

        assert scheduler.cancel_deliveries(lambda r: r.subscriber_id in ("c0", "c2")) == 1
        survivors = [cid for cid in SUBSCRIBERS if cid != "c2"]
        assert [r.subscriber_id for r in scheduler.pending_deliveries()] == survivors[1:]
        scheduler.run_until_idle()
        assert [cid for cid, _ in seen] == survivors

    def test_cancelled_connection_explodes_a_batch_without_reordering_it(self):
        scheduler, publisher, seen, clients = _uniform_fanout()
        # c1 also listens on a private topic: its copy of "solo" is a single
        # delivery on the (pub, c1) connection, due no later than the batch.
        clients["c1"].subscribe("solo")
        publisher.publish("solo", b"s")
        publisher.publish("bus", b"s")
        bus_before = _keys(r for r in scheduler.pending_deliveries() if r.message.topic == "bus")

        assert scheduler.cancel_deliveries(lambda r: r.message.topic == "solo") == 1
        after = scheduler.pending_deliveries()
        assert [r.message.topic for r in after] == ["bus"] * len(SUBSCRIBERS)
        assert _keys(after) == bus_before
        scheduler.run_until_idle()
        assert seen == [(cid, "bus") for cid in SUBSCRIBERS]
