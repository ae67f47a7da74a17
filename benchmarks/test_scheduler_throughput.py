"""Routing throughput of the event-driven scheduler at 1k+ simulated clients.

The seed runtime's round-robin pump swept every client per sweep and re-walked
the subscription trie on every publish.  This benchmark drives the two hot-path
changes of the event-driven runtime together:

* the broker hands every delivery to an :class:`EventScheduler` heap keyed by
  ``(deliver_at, sequence)`` instead of per-client inboxes, and
* the broker memoizes a full *routing plan* per concrete topic (subscriber
  set, per-client max-QoS collapse, matched filter), so fanning the same
  command topic out to 1k+ subscribers resolves routing once, not once per
  publish — and not even once per delivery for the matched-filter lookup
  (the cache-hit counters are asserted below; ``TopicTrie.match`` itself now
  only runs on plan misses).

The printed figure is deliveries per wall-clock second through the full
publish → schedule → heap-drain → callback path.
"""

from __future__ import annotations

import gc
import sys
import time

from conftest import emit

from repro.mqtt.broker import MQTTBroker
from repro.mqtt.client import MQTTClient
from repro.mqtt.messages import QoS
from repro.mqtt.network import NetworkModel
from repro.runtime.scheduler import EventScheduler
from repro.sim.clock import SimulationClock

NUM_CLIENTS = 1_200
NUM_BROADCASTS = 25

#: The broadcast-heavy fleet shape the columnar kernel targets: every client
#: subscribed to one shared command topic, so a publish is a single 12k-wide
#: vectorized fan-out batch.
SCHEDULER_12K_CLIENTS = 12_000


def _build_fleet():
    clock = SimulationClock()
    broker = MQTTBroker("bench-broker", network=NetworkModel(seed=3), clock=clock)
    scheduler = EventScheduler(clock=clock)
    scheduler.attach_broker(broker)

    received = [0] * NUM_CLIENTS
    clients = []
    for index in range(NUM_CLIENTS):
        client = MQTTClient(f"dev_{index:04d}")
        client.connect(broker)
        client.subscribe("fleet/all/cmd", QoS.AT_LEAST_ONCE)
        client.subscribe(f"fleet/dev_{index:04d}/cmd", QoS.AT_LEAST_ONCE)

        def on_message(_c, _m, index=index):
            received[index] += 1

        client.on_message = on_message
        scheduler.register(client)
        clients.append(client)

    commander = MQTTClient("commander")
    commander.connect(broker)
    return broker, scheduler, commander, received


def test_scheduler_throughput(benchmark, bench_fast):
    def run():
        broker, scheduler, commander, received = _build_fleet()
        start = time.perf_counter()
        for round_index in range(NUM_BROADCASTS):
            commander.publish("fleet/all/cmd", b"sync", qos=QoS.AT_LEAST_ONCE)
            # A handful of unicast messages interleaved with the broadcasts.
            commander.publish(f"fleet/dev_{round_index:04d}/cmd", b"ping", qos=QoS.AT_LEAST_ONCE)
            scheduler.run_until_idle()
        elapsed = time.perf_counter() - start
        return broker, scheduler, received, elapsed

    broker, scheduler, received, elapsed = benchmark.pedantic(run, rounds=1, iterations=1)

    delivered = sum(received)
    emit(
        "Event scheduler — routing throughput at 1k+ simulated clients",
        f"clients:               {NUM_CLIENTS}\n"
        f"deliveries dispatched: {delivered}\n"
        f"wall time:             {elapsed:.3f} s\n"
        f"throughput:            {delivered / max(elapsed, 1e-9):,.0f} deliveries/s\n"
        f"route plan cache:      {broker.route_cache_hits} hits / "
        f"{broker.route_cache_misses} misses",
    )

    # Every one of the 1k+ clients saw every broadcast (plus its unicast ping).
    assert NUM_CLIENTS >= 1_000
    assert delivered == NUM_CLIENTS * NUM_BROADCASTS + NUM_BROADCASTS
    assert scheduler.messages_processed == delivered

    # The broker must NOT re-resolve routing on every publish: after the
    # first broadcast builds the plan (one trie walk + one matched-filter
    # resolution per subscriber), the remaining ones are pure cache hits.
    assert broker.route_cache_hits >= NUM_BROADCASTS - 1
    assert broker.route_cache_hits + broker.route_cache_misses == 2 * NUM_BROADCASTS

    # Simulated time advanced to the deliveries' arrival instants.
    assert scheduler.now() > 0.0


def _one_topic_fleet(num_clients: int, on_message=None):
    """``num_clients`` devices ``dev_00000…`` subscribed only to ``fleet/all/cmd``
    on a seed-3 broker, plus a connected ``commander``: ``(scheduler, commander)``."""
    clock = SimulationClock()
    broker = MQTTBroker("bench-broker", network=NetworkModel(seed=3), clock=clock)
    scheduler = EventScheduler(clock=clock)
    scheduler.attach_broker(broker)
    for index in range(num_clients):
        client = MQTTClient(f"dev_{index:05d}")
        client.connect(broker)
        client.subscribe("fleet/all/cmd", QoS.AT_LEAST_ONCE)
        if on_message is not None:
            client.on_message = on_message
        scheduler.register(client)
    commander = MQTTClient("commander")
    commander.connect(broker)
    return scheduler, commander


def bench_scheduler_12k(num_clients: int, num_broadcasts: int):
    """Broadcast ``num_broadcasts`` times to ``num_clients`` single-topic subscribers.

    Returns ``(deliveries, wall_s)``; building the fleet is untimed.
    """
    received = [0]

    def on_message(_c, _m):
        received[0] += 1

    scheduler, commander = _one_topic_fleet(num_clients, on_message)

    start = time.perf_counter()
    for _round in range(num_broadcasts):
        commander.publish("fleet/all/cmd", b"sync", qos=QoS.AT_LEAST_ONCE)
        scheduler.run_until_idle()
    return received[0], time.perf_counter() - start


def test_scheduler_12k_fanout_throughput(benchmark, bench_fast):
    """Single-topic broadcast at 12k subscribers — the vectorized batch regime.

    Every client holds exactly one subscription to the shared command topic,
    so each publish is one 12k-wide fan-out served by a single batch heap
    entry.
    """
    num_clients = 2_000 if bench_fast else SCHEDULER_12K_CLIENTS
    delivered, elapsed = benchmark.pedantic(
        lambda: bench_scheduler_12k(num_clients=num_clients, num_broadcasts=2),
        rounds=1,
        iterations=1,
    )
    emit(
        "Event scheduler — 12k-client single-topic fan-out",
        f"clients:    {num_clients}\n"
        f"deliveries: {delivered}\n"
        f"throughput: {delivered / max(elapsed, 1e-9):,.0f} deliveries/s",
    )
    assert delivered == num_clients * 2


def test_cancel_deliveries_zero_match_early_out(bench_fast):
    """``cancel_deliveries`` with no matches must not rebuild the heap.

    The common case at a healthy round deadline is a predicate that matches
    nothing; the two-phase sweep returns after the read-only matching pass.
    Pinned structurally (the heap list object is untouched) and by wall
    clock relative to a matching cancel on the same heap.
    """
    num_clients = 500 if bench_fast else 4_000

    scheduler, commander = _one_topic_fleet(num_clients)
    commander.publish("fleet/all/cmd", b"sync", qos=QoS.AT_LEAST_ONCE)
    pending_before = scheduler.pending_delivery_count
    assert pending_before == num_clients
    heap_before = scheduler._heap

    start = time.perf_counter()
    cancelled = scheduler.cancel_deliveries(lambda record: False)
    zero_match_s = time.perf_counter() - start
    assert cancelled == 0
    # Early-out: no rebuild, no re-heapify — the very same heap list object.
    assert scheduler._heap is heap_before
    assert scheduler.pending_delivery_count == pending_before

    start = time.perf_counter()
    cancelled = scheduler.cancel_deliveries(
        lambda record: record.subscriber_id == "dev_00000"
    )
    matching_s = time.perf_counter() - start
    assert cancelled == 1

    emit(
        "Event scheduler — cancel_deliveries zero-match early-out",
        f"pending deliveries: {pending_before}\n"
        f"zero-match cancel:  {zero_match_s * 1e3:.3f} ms\n"
        f"matching cancel:    {matching_s * 1e3:.3f} ms",
    )


def test_steady_state_broadcasts_do_not_accumulate_allocations(bench_fast):
    """Idle-state memory pin: repeated broadcasts reach a flat allocation plateau.

    After warmup (columns grown, route plan cached, intern tables filled),
    further broadcast rounds must not hold on to new allocator blocks — the
    columnar kernel recycles its slots.  ``sys.getallocatedblocks`` counts
    live CPython allocator blocks, so a per-round leak of even one record
    object per delivery would show up as ``num_clients`` extra blocks per
    round.
    """
    num_clients = 400 if bench_fast else 1_200
    scheduler, commander = _one_topic_fleet(num_clients)

    def broadcast():
        commander.publish("fleet/all/cmd", b"sync", qos=QoS.AT_LEAST_ONCE)
        scheduler.run_until_idle()

    for _ in range(3):  # warmup: grow columns, build plan, intern ids
        broadcast()
    gc.collect()
    baseline_blocks = sys.getallocatedblocks()
    rounds = 5
    for _ in range(rounds):
        broadcast()
    gc.collect()
    grown = sys.getallocatedblocks() - baseline_blocks

    emit(
        "Event scheduler — steady-state allocation plateau",
        f"clients:             {num_clients}\n"
        f"broadcast rounds:    {rounds}\n"
        f"net new live blocks: {grown}",
    )
    # Steady state is a plateau: anything near one-block-per-delivery
    # (num_clients x rounds) is a kernel leak.
    assert grown < num_clients
