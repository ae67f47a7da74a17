"""Property test: columnar FIFO-clamp semantics vs a reference implementation.

The columnar :class:`~repro.runtime.scheduler.EventScheduler` stores its hot
state in struct-of-arrays columns and serves broadcast fan-outs through batch
heap entries — a long way from the obvious object-per-delivery design.  This
test pins the semantics against exactly that obvious design: a ~60-line
reference scheduler holding one Python object per delivery, sharing nothing
with the production code, run through randomized push / cancel
interleavings.  Both must agree on

* the exact delivery order ``(deliver_at, sequence, enqueue)``,
* the per-connection FIFO clamp (no overtaking on a (sender, receiver) pair),
* ``unclamped_deliver_at`` restoration when a clamping predecessor is
  cancelled (the survivor springs back to its network-model time).

A second test pins the vectorized broadcast fan-out against the scalar
routing path on a real broker: same fleet, same publishes, identical trace
digests and broker delivery counters whether or not the vector path engages.
"""

from __future__ import annotations

import heapq
import math
import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import pytest

import repro.mqtt.broker as broker_mod
from repro.mqtt.broker import MQTTBroker
from repro.mqtt.client import MQTTClient
from repro.mqtt.messages import DeliveryRecord, MQTTMessage, QoS
from repro.mqtt.network import LinkProfile, NetworkModel
from repro.runtime.scheduler import EventScheduler
from repro.sim.clock import SimulationClock

# --------------------------------------------------------------- reference


@dataclass
class _RefDelivery:
    sender: str
    receiver: str
    deliver_at: float
    sequence: int
    enqueue: int
    unclamped: Optional[float] = None


class ReferenceScheduler:
    """Object-per-delivery scheduler with the documented FIFO-clamp rules."""

    def __init__(self) -> None:
        self._heap: List[Tuple[float, int, int, _RefDelivery]] = []
        self._tails: Dict[Tuple[str, str], float] = {}
        self._enqueue = 0

    def schedule(self, sender: str, receiver: str, deliver_at: float, sequence: int) -> None:
        tail = self._tails.get((sender, receiver), -math.inf)
        unclamped: Optional[float] = None
        if deliver_at < tail:
            unclamped = deliver_at
            deliver_at = tail
        self._tails[(sender, receiver)] = deliver_at
        item = _RefDelivery(sender, receiver, deliver_at, sequence, self._enqueue, unclamped)
        self._enqueue += 1
        heapq.heappush(self._heap, (deliver_at, sequence, item.enqueue, item))

    def cancel(self, predicate: Callable[[_RefDelivery], bool]) -> int:
        doomed = [entry for entry in self._heap if predicate(entry[3])]
        if not doomed:
            return 0
        pairs = {(e[3].sender, e[3].receiver) for e in doomed}
        survivors = [entry for entry in self._heap if not predicate(entry[3])]
        # Drop the cancelled connections' tails, then re-run the clamp over
        # each affected pair's survivors in enqueue order from their
        # unclamped (network-model) times.
        for pair in pairs:
            self._tails.pop(pair, None)
        by_pair: Dict[Tuple[str, str], List[_RefDelivery]] = {}
        untouched: List[Tuple[float, int, int, _RefDelivery]] = []
        for entry in survivors:
            item = entry[3]
            pair = (item.sender, item.receiver)
            if pair in pairs:
                by_pair.setdefault(pair, []).append(item)
            else:
                untouched.append(entry)
        rebuilt = untouched
        for pair, items in by_pair.items():
            tail = -math.inf
            for item in sorted(items, key=lambda d: d.enqueue):
                base = item.unclamped if item.unclamped is not None else item.deliver_at
                if base < tail:
                    item.deliver_at = tail
                    item.unclamped = base
                else:
                    item.deliver_at = base
                    item.unclamped = None
                tail = item.deliver_at
                self._tails[pair] = tail
            rebuilt.extend((d.deliver_at, d.sequence, d.enqueue, d) for d in items)
        heapq.heapify(rebuilt)
        self._heap = rebuilt
        return len(doomed)

    def drain(self) -> List[Tuple[str, float, int, Optional[float]]]:
        out = []
        while self._heap:
            _, _, _, item = heapq.heappop(self._heap)
            out.append((item.receiver, item.deliver_at, item.sequence, item.unclamped))
        return out


# ------------------------------------------------------- columnar harness


class _RecordingTarget:
    """Bare delivery target: no ``connected``, no ``_dispatch_message`` —
    forces the scheduler down the record-materializing ``_deliver`` path so
    the test observes ``deliver_at`` / ``unclamped_deliver_at`` exactly as
    restored from the columns."""

    def __init__(self, sink: List[Tuple[str, float, int, Optional[float]]]) -> None:
        self._sink = sink

    def _deliver(self, record: DeliveryRecord) -> None:
        self._sink.append(
            (
                record.subscriber_id,
                record.deliver_at,
                record.sequence,
                record.unclamped_deliver_at,
            )
        )


def _columnar_run(
    operations: List[Tuple],
) -> Tuple[List[Tuple[str, float, int, Optional[float]]], int]:
    scheduler = EventScheduler(fifo_per_connection=True)
    sink: List[Tuple[str, float, int, Optional[float]]] = []
    targets: Dict[str, _RecordingTarget] = {}
    cancelled = 0
    for op in operations:
        if op[0] == "push":
            _, sender, receiver, deliver_at, sequence = op
            message = MQTTMessage(topic="t", payload=b"x", sender_id=sender)
            record = DeliveryRecord(
                message=message,
                subscriber_id=receiver,
                subscription_filter="t",
                effective_qos=QoS.AT_MOST_ONCE,
                deliver_at=deliver_at,
                sequence=sequence,
            )
            target = targets.setdefault(receiver, _RecordingTarget(sink))
            scheduler.schedule(target, record)
        else:
            _, kind, key = op
            if kind == "receiver":
                predicate = lambda r, key=key: r.subscriber_id == key
            else:
                predicate = lambda r, key=key: r.sequence % 3 == key
            cancelled += scheduler.cancel_deliveries(predicate)
    scheduler.run_until_idle()
    return sink, cancelled


def _reference_run(
    operations: List[Tuple],
) -> Tuple[List[Tuple[str, float, int, Optional[float]]], int]:
    reference = ReferenceScheduler()
    cancelled = 0
    for op in operations:
        if op[0] == "push":
            _, sender, receiver, deliver_at, sequence = op
            reference.schedule(sender, receiver, deliver_at, sequence)
        else:
            _, kind, key = op
            if kind == "receiver":
                predicate = lambda d, key=key: d.receiver == key
            else:
                predicate = lambda d, key=key: d.sequence % 3 == key
            cancelled += reference.cancel(predicate)
    return reference.drain(), cancelled


def _random_operations(rng: random.Random, length: int) -> List[Tuple]:
    senders = ["s0", "s1", "s2"]
    receivers = ["r0", "r1", "r2", "r3"]
    operations: List[Tuple] = []
    sequence = 0
    for _ in range(length):
        roll = rng.random()
        if roll < 0.75:
            operations.append(
                (
                    "push",
                    rng.choice(senders),
                    rng.choice(receivers),
                    # Coarse grid of times → plenty of exact ties and plenty
                    # of out-of-order (clamp-triggering) pushes.
                    rng.randrange(0, 20) / 4.0,
                    sequence,
                )
            )
            sequence += 1
        elif roll < 0.9:
            operations.append(("cancel", "receiver", rng.choice(receivers)))
        else:
            operations.append(("cancel", "sequence", rng.randrange(3)))
    return operations


@pytest.mark.parametrize("seed", range(20))
def test_columnar_matches_reference_under_random_interleavings(seed):
    rng = random.Random(seed)
    operations = _random_operations(rng, length=rng.randrange(10, 60))
    columnar, cancelled_c = _columnar_run(operations)
    reference, cancelled_r = _reference_run(operations)
    assert cancelled_c == cancelled_r
    assert columnar == reference


def test_clamped_survivor_springs_back_when_predecessor_cancelled():
    # A big slow upload (due t=5) followed by a small one that would arrive
    # at t=1 but is clamped to t=5.  Cancelling the big one must restore the
    # survivor to its unclamped t=1 — and clear its unclamped marker.
    operations = [
        ("push", "s0", "r0", 5.0, 0),
        ("push", "s0", "r0", 1.0, 1),
        ("cancel", "sequence", 0),  # sequence % 3 == 0 → kills sequence 0
    ]
    columnar, cancelled = _columnar_run(operations)
    assert cancelled == 1
    assert columnar == [("r0", 1.0, 1, None)]
    assert _reference_run(operations)[0] == columnar


def test_clamp_chain_partially_released():
    # Three-deep clamp chain; cancelling the head re-clamps the survivors
    # against each other (t=3 still clamps t=2, from their unclamped times).
    operations = [
        ("push", "s0", "r0", 6.0, 0),
        ("push", "s0", "r0", 3.0, 1),  # clamped to 6.0
        ("push", "s0", "r0", 2.0, 2),  # clamped to 6.0
        ("cancel", "sequence", 0),
    ]
    columnar, cancelled = _columnar_run(operations)
    assert cancelled == 1
    assert columnar == [("r0", 3.0, 1, None), ("r0", 3.0, 2, 2.0)]
    assert _reference_run(operations)[0] == columnar


# ------------------------------------------------- vector vs scalar fan-out


def _fanout_digest(vector_enabled: bool):
    """Run a 64-subscriber broadcast fleet; return (digest, broker accounting, received)."""
    clock = SimulationClock()
    network = NetworkModel(seed=11)
    network.set_link("pub", LinkProfile(latency_s=0.01, bandwidth_bps=8_000_000.0))
    broker = MQTTBroker("b", network=network, clock=clock)
    scheduler = EventScheduler(clock=clock, record_trace=True)
    scheduler.attach_broker(broker)

    received: List[Tuple[str, str, int]] = []

    def on_message(client, message):
        received.append((client.client_id, message.topic, len(message.payload)))

    subscribers = []
    for index in range(64):
        client = MQTTClient(f"sub_{index:03d}")
        client.connect(broker)
        client.subscribe("fleet/all/cmd", QoS.AT_LEAST_ONCE)
        client.on_message = on_message
        scheduler.register(client)
        subscribers.append(client)

    publisher = MQTTClient("pub")
    publisher.connect(broker)

    threshold = broker_mod._VECTOR_MIN_FANOUT if vector_enabled else 10_000
    original = broker_mod._VECTOR_MIN_FANOUT
    broker_mod._VECTOR_MIN_FANOUT = threshold
    try:
        for round_index in range(3):
            publisher.publish("fleet/all/cmd", bytes(512 * (round_index + 1)), qos=QoS.AT_LEAST_ONCE)
            scheduler.run_until_idle()
    finally:
        broker_mod._VECTOR_MIN_FANOUT = original

    accounting = (broker.stats.messages_delivered, broker.stats.bytes_delivered)
    return scheduler.trace_digest, accounting, received


def test_vector_fanout_is_bit_identical_to_scalar_routing():
    vector_digest, vector_accounting, vector_received = _fanout_digest(True)
    scalar_digest, scalar_accounting, scalar_received = _fanout_digest(False)
    assert vector_digest == scalar_digest
    assert vector_accounting == scalar_accounting
    assert vector_received == scalar_received
