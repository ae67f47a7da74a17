"""Micro-benchmark guard for the broker's topic-matching hot path.

The seed imported ``topic_matches_filter`` *inside* ``MQTTBroker.subscribe``
and ``MQTTBroker._matched_filter``, paying an import-machinery lookup on every
retained-message replay and every delivery's filter resolution.  Those imports
are now hoisted to module level; this file pins that down two ways:

* a static guard that fails if anyone reintroduces an in-function import in
  the hot-path methods, and
* a micro-benchmark of the subscribe/publish/match cycle, with a very
  conservative throughput floor so a gross regression (like an accidental
  per-call import or a disabled match cache) shows up as a failure rather
  than a silent slowdown.
"""

from __future__ import annotations

import inspect
import re
import time

from conftest import emit

from repro.mqtt.broker import MQTTBroker
from repro.mqtt.client import MQTTClient
from repro.mqtt.messages import MQTTMessage

NUM_TOPICS = 50
NUM_PUBLISHES = 2_000


#: An actual import statement (any indentation), not the word "import" in a
#: comment or docstring.
_IMPORT_STATEMENT = re.compile(r"^\s*(?:from\s+\S+\s+)?import\s", re.MULTILINE)


def test_no_in_function_imports_on_hot_path():
    for method in (MQTTBroker.subscribe, MQTTBroker._matched_filter, MQTTBroker.publish):
        source = inspect.getsource(method)
        assert not _IMPORT_STATEMENT.search(source), (
            f"{method.__qualname__} re-grew an in-function import; keep "
            "topic_matches_filter hoisted to module level"
        )


def _dispatch_inbox(client: MQTTClient) -> None:
    """Play a scheduler-less client's inbox through its callbacks."""
    for record in client.take_pending():
        client._dispatch_message(record.message, record.effective_qos)


def test_routing_micro_benchmark(benchmark):
    broker = MQTTBroker("micro")
    subscribers = []
    for index in range(20):
        client = MQTTClient(f"sub_{index:02d}")
        client.connect(broker)
        client.subscribe("sensors/#")
        client.subscribe(f"sensors/room{index}/+")
        subscribers.append(client)
    publisher = MQTTClient("pub")
    publisher.connect(broker)

    topics = [f"sensors/room{i % 20}/temp" for i in range(NUM_TOPICS)]

    def route():
        for i in range(NUM_PUBLISHES):
            broker.publish(MQTTMessage(topic=topics[i % NUM_TOPICS], payload=b"x", sender_id="pub"))
        for client in subscribers:
            _dispatch_inbox(client)
        return broker.stats.messages_published

    # Timed here rather than read from ``benchmark.stats``, which is empty
    # under ``--benchmark-disable`` (the loop then runs once, not three times).
    durations = []

    def timed_route():
        start = time.perf_counter()
        published = route()
        durations.append(time.perf_counter() - start)
        return published

    published = benchmark.pedantic(timed_route, rounds=3, iterations=1)
    assert published == NUM_PUBLISHES * len(durations)

    per_second = NUM_PUBLISHES * len(durations) / sum(durations)
    emit(
        "Micro-benchmark — broker publish/match/deliver cycle",
        f"publishes per round: {NUM_PUBLISHES}\n"
        f"throughput:          {per_second:,.0f} publishes/s\n"
        f"route plan cache:    {broker.route_cache_hits} hits / "
        f"{broker.route_cache_misses} misses",
    )

    # Very conservative floor (orders of magnitude below a healthy run) so the
    # guard only trips on a real hot-path regression, not on CI noise.
    assert per_second > 1_000

    # The publish loop hits the same topics repeatedly: the memoized routing
    # plan must be doing the matching, not the trie walk (the trie's own
    # match cache now only sees plan misses, so it is asserted indirectly:
    # one plan miss per distinct topic, everything else a hit).
    assert broker.route_cache_hits >= published - NUM_TOPICS
    assert broker.route_cache_misses <= NUM_TOPICS


def test_subscription_churn_keeps_hot_plans_cached(benchmark):
    """Mid-run subscription churn must not re-miss the hot routing plans.

    Models flash-crowd mid-round admission: a steady broadcast stream over a
    hot topic while unrelated clients join and leave every round.  With
    selective invalidation, each join/leave only evicts plans its own filter
    matches, so the hot topic stays memoized — one plan miss total, the
    hit/miss counters prove it.  (The seed cleared the whole cache on every
    subscription change, re-missing every hot topic once per join.)
    """
    broker = MQTTBroker("churn")
    subscribers = []
    for index in range(20):
        client = MQTTClient(f"sub_{index:02d}")
        client.connect(broker)
        client.subscribe("session/global/broadcast")
        subscribers.append(client)
    publisher = MQTTClient("pub")
    publisher.connect(broker)

    churn_rounds = 200

    def churn():
        for round_index in range(churn_rounds):
            joiner = MQTTClient(f"joiner_{round_index:03d}")
            joiner.connect(broker)
            joiner.subscribe(f"clients/joiner_{round_index:03d}/inbox")
            broker.publish(
                MQTTMessage(topic="session/global/broadcast", payload=b"m", sender_id="pub")
            )
            joiner.disconnect()
        for client in subscribers:
            _dispatch_inbox(client)
        return broker.stats.messages_published

    benchmark.pedantic(churn, rounds=1, iterations=1)

    emit(
        "Micro-benchmark — route-plan cache under subscription churn",
        f"churn rounds:        {churn_rounds} (join + broadcast + leave each)\n"
        f"route plan cache:    {broker.route_cache_hits} hits / "
        f"{broker.route_cache_misses} misses",
    )

    # One miss builds the hot plan; every subsequent broadcast hits it even
    # though a subscription changed between any two publishes.  Full-cache
    # clearing would instead produce ~churn_rounds misses.
    assert broker.route_cache_misses <= 2
    assert broker.route_cache_hits >= churn_rounds - 2