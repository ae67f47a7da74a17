"""Wire the metrics registry and tracer into a running experiment.

Everything here is duck-typed on purpose: ``repro.obs`` stays a leaf
package (no imports from the runtime/broker/scenario layers), and the
collectors read the same plain counters the components already keep —
broker stats and route caches, topic-trie match caches, scheduler
counters, client QoS-dedup rings, MQTTFC endpoint chunk counters and
contribution-buffer memory charging — so attaching a registry adds zero
cost to any hot path.  The only live instrumentation is the scheduler's
per-delivery latency histogram and the tracer hooks, both guarded by a
single ``is None`` check when detached.
"""

from __future__ import annotations

from typing import Any, Optional

from .metrics import MetricsRegistry
from .trace import LifecycleTracer, Tracer

__all__ = [
    "attach_experiment_metrics",
    "attach_experiment_tracer",
]

_SCHEDULER_COUNTERS = (
    "events_processed",
    "messages_processed",
    "actions_fired",
    "sweeps",
    "deliveries_dropped",
    "deliveries_requeued",
    "deliveries_cancelled",
)

_BROKER_STATS_FIELDS = (
    "connects",
    "disconnects",
    "messages_published",
    "messages_delivered",
    "messages_dropped",
    "messages_queued_offline",
    "bytes_published",
    "bytes_delivered",
    "retained_messages",
    "bridged_in",
    "bridged_out",
)

_ENDPOINT_STATS_FIELDS = (
    "calls_sent",
    "calls_served",
    "responses_sent",
    "responses_received",
    "request_bytes_sent",
    "response_bytes_sent",
    "chunks_sent",
    "chunks_received",
    "errors_returned",
    "frames_sent_raw",
    "frames_sent_huffman",
    "frames_sent_level1",
    "frames_deflate_discarded",
    "frames_inflated",
    "receives_shared",
)

_CODEC_STATS_FIELDS = (
    "updates_encoded",
    "updates_decoded",
    "tensors_encoded",
    "bytes_in",
    "bytes_out",
    "bytes_saved",
    "escape_values",
)


def _endpoints(experiment: Any):
    for client in experiment.clients:
        yield client.endpoint
    yield experiment.coordinator.endpoint
    yield experiment.parameter_server.endpoint


def attach_experiment_metrics(
    experiment: Any,
    registry: MetricsRegistry,
    injector: Optional[Any] = None,
) -> MetricsRegistry:
    """Register snapshot-time collectors over every instrumented component.

    Also attaches the scheduler's live delivery-latency histogram (the one
    hot-path instrument; every ``scenario run`` pays its cost, so the e2e
    ``wall_s`` bound of ``benchmarks/e2e`` holds it).
    """
    scheduler = experiment.scheduler
    scheduler.attach_metrics(registry)

    def collect(reg: MetricsRegistry) -> None:
        for field in _SCHEDULER_COUNTERS:
            reg.gauge(f"scheduler_{field}").set(getattr(scheduler, field))
        reg.gauge("scheduler_last_event_time_s").set(scheduler.last_event_time)
        reg.gauge("scheduler_pending_deliveries").set(
            scheduler.pending_delivery_count
        )

        for broker in experiment.brokers:
            stats = broker.stats
            for field in _BROKER_STATS_FIELDS:
                reg.gauge(f"broker_{field}", broker=broker.name).set(
                    getattr(stats, field)
                )
            reg.gauge("broker_route_cache_hits", broker=broker.name).set(
                broker.route_cache_hits
            )
            reg.gauge("broker_route_cache_misses", broker=broker.name).set(
                broker.route_cache_misses
            )
            trie = broker._subscriptions
            reg.gauge("broker_topic_match_cache_hits", broker=broker.name).set(
                trie.match_cache_hits
            )
            reg.gauge("broker_topic_match_cache_misses", broker=broker.name).set(
                trie.match_cache_misses
            )
            reg.gauge("broker_traffic_payload_bytes", broker=broker.name).set(
                stats.bytes_delivered
            )

        received = published = bytes_received = bytes_published = 0
        dedup_entries = 0
        for client in experiment.clients:
            mqtt = client.mqtt
            received += mqtt.messages_received
            published += mqtt.messages_published
            bytes_received += mqtt.bytes_received
            bytes_published += mqtt.bytes_published
            dedup_entries += len(mqtt._delivered_qos2)
        reg.gauge("clients_messages_received").set(received)
        reg.gauge("clients_messages_published").set(published)
        reg.gauge("clients_bytes_received").set(bytes_received)
        reg.gauge("clients_bytes_published").set(bytes_published)
        reg.gauge("clients_qos2_dedup_entries").set(dedup_entries)

        for field in _ENDPOINT_STATS_FIELDS:
            reg.gauge(f"endpoint_{field}").set(
                sum(getattr(e.stats, field) for e in _endpoints(experiment))
            )

        # Update-codec counters (all zero when no codec is configured, so the
        # metrics schema stays stable across scenarios).
        codecs = [
            codec
            for codec in (
                getattr(e, "update_codec", None) for e in _endpoints(experiment)
            )
            if codec is not None
        ]
        for field in _CODEC_STATS_FIELDS:
            reg.gauge(f"codec_{field}").set(
                sum(getattr(codec.stats, field) for codec in codecs)
            )

        buffered_bytes = buffered_pending = 0
        for client in experiment.clients:
            buffer = getattr(client, "buffer", None)
            if buffer is not None:
                buffered_bytes += buffer.buffered_bytes
                buffered_pending += len(buffer)
        reg.gauge("aggregation_buffered_bytes").set(buffered_bytes)
        reg.gauge("aggregation_buffered_contributions").set(buffered_pending)

        lifecycle = getattr(experiment, "lifecycle", None)
        if lifecycle is not None:
            reg.gauge("lifecycle_round_index").set(lifecycle.round_index)
            reg.gauge("lifecycle_epoch").set(lifecycle.epoch)
            reg.gauge("lifecycle_transitions").set(lifecycle.transitions)
            reg.gauge("lifecycle_roster_size").set(len(lifecycle.roster))

        if injector is not None:
            reg.gauge("faults_started").set(injector.faults_started)
            reg.gauge("faults_ended").set(injector.faults_ended)
            reg.gauge("faults_crashes_injected").set(injector.crashes_injected)
            reg.gauge("faults_anchors_fired").set(injector.anchors_fired)

    registry.register_collector(collect)
    return registry


def attach_experiment_tracer(
    experiment: Any,
    tracer: Tracer,
    injector: Optional[Any] = None,
) -> LifecycleTracer:
    """Point every trace hook in a compiled experiment at ``tracer``.

    Wires the scheduler's delivery spans, a lifecycle subscriber for round
    phases (primed like the experiment's own ``PhaseTimer``), MQTTFC
    per-chunk codec instants, and the fault injector's window spans.
    """
    tracer.clock = experiment.clock.now
    experiment.scheduler.tracer = tracer
    for endpoint in _endpoints(experiment):
        endpoint.tracer = tracer
    if injector is not None:
        injector.tracer = tracer
    lifecycle_tracer = LifecycleTracer(tracer)
    lifecycle_tracer.prime(
        experiment.lifecycle.phase,
        experiment.lifecycle.round_index,
        experiment.clock.now(),
    )
    experiment.lifecycle.subscribe(lifecycle_tracer.on_event)
    return lifecycle_tracer
