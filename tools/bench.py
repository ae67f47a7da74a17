#!/usr/bin/env python3
"""Perf-measurement backbone: run the benchmark suite + microbenches, emit JSON.

This is the repo's durable performance harness.  It executes the hot-path
microbenchmarks (scheduler routing throughput, MQTTFC codec encode/decode,
streaming aggregation reduce, 1.2k-client broadcast peak RSS) in-process,
optionally smokes the full ``benchmarks/`` pytest suite, and writes a
machine-readable ``BENCH_*.json`` whose schema the CI ``bench-smoke`` job
consumes for regression gating.

Usage::

    python tools/bench.py                         # full run, JSON to stdout
    python tools/bench.py --output BENCH_pr5.json # write the trajectory file
    python tools/bench.py --quick                 # reduced sizes (CI smoke)
    python tools/bench.py --suite                 # also pytest the benchmarks/
    python tools/bench.py --quick --check BENCH_pr5.json [--tolerance 0.2]
                                                  # fail on metric regressions

The regression check gates every metric in ``GATES`` — scheduler routing
throughput, codec encode/decode MB/s, the streaming-aggregation reduce
throughput (``contributions × params / reduce_s``, so quick and full
workload sizes stay comparable), and the observability overhead ratio
(registry-attached vs detached scheduler throughput, bounding the
flight-recorder's hot-path cost at ~2%) — each with its own default
tolerance;
``--tolerance`` overrides them all when given.  A gate metric that is
missing from the baseline (or the fresh document) is a hard error (exit 2),
never a silent pass.  See ``docs/performance.md`` for how to read and
regenerate the baseline.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import subprocess
import sys
import time
from typing import Dict

_REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_SRC = os.path.join(_REPO_ROOT, "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

import numpy as np  # noqa: E402

SCHEMA = "repro-bench/v1"
#: The headline metric (kept as a named constant for the scheduler bench).
GATE_METRIC = "scheduler_deliveries_per_s"


def _aggregation_throughput(metrics: Dict[str, float]) -> float:
    """Streaming-reduce throughput in parameter-contributions per second.

    ``aggregation_reduce_s`` alone is workload-sized (quick mode reduces
    8 × 100k, full mode 24 × 1M), so the gate normalizes it by the work
    done — the reduce is linear in ``contributions × params``.
    """
    work = float(metrics["aggregation_contributions"]) * float(metrics["aggregation_params"])
    return work / max(float(metrics["aggregation_reduce_s"]), 1e-12)


#: Regression gates: (reported name, extractor, default tolerance,
#: direction).  Direction is ``"higher"`` (throughput-like: the gate fails
#: when the fresh figure drops more than ``tolerance`` below the baseline) or
#: ``"lower"`` (cost-like, e.g. RSS: the gate fails when the fresh figure
#: rises more than ``tolerance`` above it).  Tolerances are calibrated for
#: CI's quick-fresh vs full-baseline comparison: codec decode is zero-copy
#: and latency-dominated, so its MB/s scales with payload size (quick's 2 MB
#: payload reads ~5× slower than the 10 MB baseline) — its generous
#: tolerance still fails on the order-of-magnitude drop that reintroducing
#: a payload copy causes.
GATES = (
    (GATE_METRIC, lambda m: float(m[GATE_METRIC]), 0.20, "higher"),
    # The 12k-client broadcast shape is the regime the columnar kernel
    # targets; wider tolerance because the big fleet magnifies machine noise.
    ("scheduler_12k_deliveries_per_s",
     lambda m: float(m["scheduler_12k_deliveries_per_s"]), 0.25, "higher"),
    ("codec_encode_mb_per_s", lambda m: float(m["codec_encode_mb_per_s"]), 0.50, "higher"),
    ("codec_decode_mb_per_s", lambda m: float(m["codec_decode_mb_per_s"]), 0.90, "higher"),
    # The update codec (int8 quantization) is compute-bound, so its MB/s is
    # largely payload-size independent — a moderate tolerance absorbs CI
    # noise while still catching a scratch-reuse or vectorization loss.
    ("update_codec_encode_mb_per_s",
     lambda m: float(m["update_codec_encode_mb_per_s"]), 0.60, "higher"),
    ("update_codec_decode_mb_per_s",
     lambda m: float(m["update_codec_decode_mb_per_s"]), 0.60, "higher"),
    ("aggregation_throughput", _aggregation_throughput, 0.60, "higher"),
    # Observability must stay near-free: the ratio of registry-attached to
    # detached scheduler throughput (interleaved best-of-N on the same
    # process) is ~1.0 and may drop at most ~2% below the baseline's before
    # the gate fails.
    ("obs_overhead_ratio", lambda m: float(m["obs_overhead_ratio"]), 0.02, "higher"),
    # Lower-is-better: marginal memory of +10k idle clients (subprocess
    # probe).  The preallocated columns must keep this flat — a per-delivery
    # or per-client allocation regression shows up here long before it OOMs
    # a 100k-client scenario.  Python RSS deltas are allocator-noisy, hence
    # the loose tolerance; a real per-client leak multiplies the figure.
    ("scheduler_rss_per_10k_clients_mb",
     lambda m: float(m["scheduler_rss_per_10k_clients_mb"]), 0.50, "lower"),
)

SCHEDULER_CLIENTS = 1_200
SCHEDULER_BROADCASTS = 25

#: The broadcast-heavy fleet shape the columnar kernel targets (satellite of
#: ROADMAP item 1): every client subscribed to one shared command topic, so a
#: publish is a single 12k-wide vectorized fan-out batch.
SCHEDULER_12K_CLIENTS = 12_000
SCHEDULER_12K_BROADCASTS = 6

#: Idle-RSS probe shape: marginal memory of growing an already-built fleet by
#: +10k subscribed-but-idle clients (measured in a fresh subprocess).
IDLE_RSS_BASE_CLIENTS = 2_000
IDLE_RSS_EXTRA_CLIENTS = 10_000


# ----------------------------------------------------------------- workloads
# Single home of the benchmark workload builders: the pytest benchmarks
# (benchmarks/test_codec_micro.py, test_aggregation_micro.py,
# test_scheduler_throughput.py) import these, so the numbers in BENCH_*.json
# and the numbers the suite prints always come from the same shapes.


def build_codec_state(payload_mb: int) -> dict:
    """~``payload_mb`` MB of model parameters (float32-heavy, mixed dtypes)."""
    rng = np.random.default_rng(7)
    floats = payload_mb * 1024 * 1024 // 4
    half = floats // 2
    return {
        "dense.weight": rng.normal(size=(half // 256, 256)).astype(np.float32),
        "dense.bias": rng.normal(size=256).astype(np.float32),
        "head.weight": rng.normal(size=(half // 64, 64)).astype(np.float32),
        "head.bias": np.zeros(64, dtype=np.float64),
    }


def build_contributions(num_contributions: int, params: int) -> list:
    """``num_contributions`` model contributions of ~``params`` parameters."""
    from repro.core.aggregation import ModelContribution

    rng = np.random.default_rng(11)
    rows = params // 128
    return [
        ModelContribution(
            {
                "w": rng.normal(size=(rows, 128)).astype(np.float32),
                "b": rng.normal(size=128).astype(np.float32),
            },
            weight=float(rng.uniform(1, 40)),
            sender_id=f"client_{i:03d}",
        )
        for i in range(num_contributions)
    ]


# --------------------------------------------------------------- microbenches


def bench_scheduler(num_clients: int = SCHEDULER_CLIENTS,
                    num_broadcasts: int = SCHEDULER_BROADCASTS,
                    payload: bytes = b"sync",
                    registry=None) -> Dict[str, float]:
    """Publish → schedule → heap-drain → callback throughput at fleet scale.

    Mirrors ``benchmarks/test_scheduler_throughput.py`` (same fleet shape, so
    the numbers are comparable) without the pytest harness around it.
    """
    from repro.mqtt.broker import MQTTBroker
    from repro.mqtt.client import MQTTClient
    from repro.mqtt.messages import QoS
    from repro.mqtt.network import NetworkModel
    from repro.runtime.scheduler import EventScheduler
    from repro.sim.clock import SimulationClock

    clock = SimulationClock()
    broker = MQTTBroker("bench-broker", network=NetworkModel(seed=3), clock=clock)
    scheduler = EventScheduler(clock=clock)
    scheduler.attach_broker(broker)
    if registry is not None:
        scheduler.attach_metrics(registry)

    received = [0] * num_clients
    for index in range(num_clients):
        client = MQTTClient(f"dev_{index:04d}")
        client.connect(broker)
        client.subscribe("fleet/all/cmd", QoS.AT_LEAST_ONCE)
        client.subscribe(f"fleet/dev_{index:04d}/cmd", QoS.AT_LEAST_ONCE)

        def on_message(_c, _m, index=index):
            received[index] += 1

        client.on_message = on_message
        scheduler.register(client)

    commander = MQTTClient("commander")
    commander.connect(broker)

    start = time.perf_counter()
    for round_index in range(num_broadcasts):
        commander.publish("fleet/all/cmd", payload, qos=QoS.AT_LEAST_ONCE)
        commander.publish(f"fleet/dev_{round_index:04d}/cmd", b"ping", qos=QoS.AT_LEAST_ONCE)
        scheduler.run_until_idle()
    elapsed = time.perf_counter() - start

    delivered = sum(received)
    expected = num_clients * num_broadcasts + num_broadcasts
    if delivered != expected:
        raise RuntimeError(f"scheduler bench delivered {delivered}, expected {expected}")
    return {
        "scheduler_clients": num_clients,
        "scheduler_deliveries": delivered,
        "scheduler_wall_s": elapsed,
        GATE_METRIC: delivered / max(elapsed, 1e-9),
    }


def bench_scheduler_12k(num_clients: int = SCHEDULER_12K_CLIENTS,
                        num_broadcasts: int = SCHEDULER_12K_BROADCASTS,
                        rounds: int = 2) -> Dict[str, float]:
    """Broadcast throughput on the 12k-client single-topic fan-out shape.

    Unlike :func:`bench_scheduler` (two subscriptions per client, unicast
    pings interleaved), every client here holds exactly one subscription to
    the shared command topic — each publish is one 12k-wide fan-out, the
    regime the columnar batch path targets.  Setup is untimed; best-of-
    ``rounds`` like the 1.2k gate.
    """
    from repro.mqtt.broker import MQTTBroker
    from repro.mqtt.client import MQTTClient
    from repro.mqtt.messages import QoS
    from repro.mqtt.network import NetworkModel
    from repro.runtime.scheduler import EventScheduler
    from repro.sim.clock import SimulationClock

    best = 0.0
    for _ in range(rounds):
        clock = SimulationClock()
        broker = MQTTBroker("bench-broker", network=NetworkModel(seed=3), clock=clock)
        scheduler = EventScheduler(clock=clock)
        scheduler.attach_broker(broker)

        received = [0]

        def on_message(_c, _m):
            received[0] += 1

        for index in range(num_clients):
            client = MQTTClient(f"dev_{index:05d}")
            client.connect(broker)
            client.subscribe("fleet/all/cmd", QoS.AT_LEAST_ONCE)
            client.on_message = on_message
            scheduler.register(client)

        commander = MQTTClient("commander")
        commander.connect(broker)

        start = time.perf_counter()
        for _round in range(num_broadcasts):
            commander.publish("fleet/all/cmd", b"sync", qos=QoS.AT_LEAST_ONCE)
            scheduler.run_until_idle()
        elapsed = time.perf_counter() - start

        expected = num_clients * num_broadcasts
        if received[0] != expected:
            raise RuntimeError(
                f"12k fan-out bench delivered {received[0]}, expected {expected}"
            )
        best = max(best, expected / max(elapsed, 1e-9))
    return {
        "scheduler_12k_clients": num_clients,
        "scheduler_12k_deliveries": num_clients * num_broadcasts,
        "scheduler_12k_deliveries_per_s": best,
    }


def bench_scheduler_best(rounds: int = 3) -> Dict[str, float]:
    """Best-of-``rounds`` scheduler measurement (the gate metric's estimator).

    Throughput noise is one-sided (interference only slows a run down), so
    the max across a few runs is the stable estimator — used for both the
    committed baseline and the regression check, keeping their variance
    symmetric.
    """
    results = [bench_scheduler() for _ in range(rounds)]
    return max(results, key=lambda result: result[GATE_METRIC])


def bench_obs_overhead(rounds: int = 3,
                       num_clients: int = 600,
                       num_broadcasts: int = 400) -> Dict[str, float]:
    """Cost of the observability hot path relative to a scheduler delivery.

    Attaching a :class:`~repro.obs.MetricsRegistry` adds exactly one
    histogram ``observe`` call per delivery to ``_pop_and_fire`` (every
    other absorption happens through snapshot-time collectors).  End-to-end
    attached-vs-detached throughput ratios on shared CI machines are noisier
    (±5%) than the effect being bounded, so the gated ratio is composed from
    two far more stable measurements:

    * the detached scheduler's per-delivery time (interleaved best-of-N,
      ~240k deliveries per timed region), and
    * the per-call cost of ``Histogram.observe`` timed directly over a large
      spread of latency samples (a tight loop, stable to well under 1%).

    ``obs_overhead_ratio = per_delivery / (per_delivery + observe_cost)``
    is the modelled attached/detached throughput ratio: 1.0 means free,
    0.98 means a 2% hot-path tax.  Raw attached throughput is also reported
    (informational; too noisy to gate).
    """
    from repro.obs import MetricsRegistry

    attached_best = detached_best = 0.0
    for _ in range(rounds):
        detached = bench_scheduler(num_clients, num_broadcasts)
        attached = bench_scheduler(num_clients, num_broadcasts, registry=MetricsRegistry())
        detached_best = max(detached_best, detached[GATE_METRIC])
        attached_best = max(attached_best, attached[GATE_METRIC])

    histogram = MetricsRegistry().histogram(
        "scheduler_delivery_latency_s",
        buckets=(0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0),
    )
    observe = histogram.observe
    samples = [0.0001 * (i % 70_000) for i in range(100_000)]  # spans every bucket

    def drain(fn) -> None:
        for value in samples:
            fn(value)

    sink = [0.0]

    def baseline(value: float) -> None:  # same loop shape, no instrument work
        sink[0] = value

    observe_s = min(_timed(lambda: drain(observe)) for _ in range(5))
    loop_s = min(_timed(lambda: drain(baseline)) for _ in range(5))
    observe_cost = max(0.0, (observe_s - loop_s)) / len(samples)
    per_delivery = 1.0 / max(detached_best, 1e-9)
    return {
        "obs_detached_deliveries_per_s": detached_best,
        "obs_attached_deliveries_per_s": attached_best,
        "obs_observe_ns": observe_cost * 1e9,
        "obs_overhead_ratio": per_delivery / (per_delivery + observe_cost),
    }


def bench_codec(payload_mb: int) -> Dict[str, float]:
    """Encode/decode throughput of an ~``payload_mb`` MB model state dict."""
    from repro.mqttfc.serialization import decode_payload, encode_payload_frame

    payload = {"state": build_codec_state(payload_mb), "round_index": 0, "sender": "client_000"}
    size_mb = encode_payload_frame(payload).nbytes / (1024 * 1024)

    encode_s = min(
        _timed(lambda: encode_payload_frame(payload).tobytes()) for _ in range(3)
    )
    raw = encode_payload_frame(payload).tobytes()
    decode_s = min(
        _timed(lambda: decode_payload(raw, copy_arrays=False)) for _ in range(3)
    )
    return {
        "codec_payload_mb": size_mb,
        "codec_encode_mb_per_s": size_mb / max(encode_s, 1e-9),
        "codec_decode_mb_per_s": size_mb / max(decode_s, 1e-9),
    }


def bench_update_codec(payload_mb: int) -> Dict[str, float]:
    """Throughput of the int8 *update* codec on the shared workload state.

    Measures the object-level quantization stage alone (scratch-arena warm,
    as in steady-state rounds), on the raw ndarray bytes entering the
    encoder — distinct from ``bench_codec``, which measures the frame
    serializer downstream of it.
    """
    from repro.mqttfc.codecs import make_update_codec

    state = build_codec_state(payload_mb)
    size_mb = sum(array.nbytes for array in state.values()) / (1024 * 1024)
    codec = make_update_codec("int8")
    codec.encode_state("bench_session", state)  # warm the scratch arena

    encode_s = min(
        _timed(lambda: codec.encode_state("bench_session", state)) for _ in range(3)
    )
    encoded = codec.encode_state("bench_session", state)
    decode_s = min(
        _timed(lambda: codec.decode_state("bench_session", encoded)) for _ in range(3)
    )
    return {
        "update_codec_payload_mb": size_mb,
        "update_codec_encode_mb_per_s": size_mb / max(encode_s, 1e-9),
        "update_codec_decode_mb_per_s": size_mb / max(decode_s, 1e-9),
        "update_codec_wire_ratio": (
            codec.stats.bytes_out / max(codec.stats.bytes_in, 1)
        ),
    }


def bench_aggregation(num_contributions: int, params: int) -> Dict[str, float]:
    """Streaming FedAvg reduce time over ``num_contributions`` × ``params``."""
    from repro.core.aggregation import FedAvg

    contributions = build_contributions(num_contributions, params)
    aggregator = FedAvg()
    reduce_s = min(_timed(lambda: aggregator.aggregate(contributions)) for _ in range(3))
    return {
        "aggregation_contributions": num_contributions,
        "aggregation_params": (params // 128) * 128 + 128,
        "aggregation_reduce_s": reduce_s,
    }


def _timed(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def _peak_rss_mb() -> float:
    """This process's lifetime peak RSS in MB (ru_maxrss is KB on Linux)."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":  # bytes on macOS
        return peak / (1024 * 1024)
    return peak / 1024


def bench_fanout_rss(num_clients: int, num_broadcasts: int) -> Dict[str, float]:
    """Peak RSS of a fleet-scale broadcast, measured in a fresh subprocess.

    ``ru_maxrss`` is a process-lifetime high-water mark, so the probe must
    not share this process (whose other benches would pollute the number).
    """
    probe = subprocess.run(
        [
            sys.executable, os.path.abspath(__file__),
            "--fanout-probe", str(num_clients), str(num_broadcasts),
        ],
        capture_output=True,
        text=True,
        check=True,
        cwd=_REPO_ROOT,
    )
    return json.loads(probe.stdout)


#: Broadcast payload for the RSS probe.  Large enough that a reintroduced
#: per-record payload copy (1.2k subscribers × 512 KiB × in-flight records)
#: towers over the interpreter's import footprint, while the zero-copy path
#: shares the one buffer across the whole fan-out.
_FANOUT_PAYLOAD_BYTES = 512 * 1024


def _fanout_probe(num_clients: int, num_broadcasts: int) -> None:
    """Subprocess entry point: run the broadcast, print the RSS metrics.

    ``ru_maxrss`` is a lifetime high-water mark, so the probe runs in its own
    process; the absolute peak is what a copy-per-subscriber regression moves.
    """
    result = bench_scheduler(num_clients, num_broadcasts, payload=bytes(_FANOUT_PAYLOAD_BYTES))
    print(json.dumps({
        "fanout_clients": num_clients,
        "fanout_deliveries": result["scheduler_deliveries"],
        "fanout_payload_bytes": _FANOUT_PAYLOAD_BYTES,
        "fanout_peak_rss_mb": _peak_rss_mb(),
    }))


def bench_idle_rss(base_clients: int = IDLE_RSS_BASE_CLIENTS,
                   extra_clients: int = IDLE_RSS_EXTRA_CLIENTS) -> Dict[str, float]:
    """Marginal RSS of +``extra_clients`` idle clients, in a fresh subprocess.

    Reported normalized to MB per 10k clients (the gated figure).  Like the
    fan-out probe, ``ru_maxrss`` is a lifetime high-water mark and must not
    share this process.
    """
    probe = subprocess.run(
        [
            sys.executable, os.path.abspath(__file__),
            "--idle-rss-probe", str(base_clients), str(extra_clients),
        ],
        capture_output=True,
        text=True,
        check=True,
        cwd=_REPO_ROOT,
    )
    return json.loads(probe.stdout)


def _idle_rss_probe(base_clients: int, extra_clients: int) -> None:
    """Subprocess entry point: grow an idle fleet, print the memory delta.

    Builds ``base_clients`` connected+subscribed clients first so the one-off
    costs (imports, scheduler columns, route plans, interpreter pools) are in
    the baseline, then adds ``extra_clients`` more and attributes the growth
    to them.  One broadcast round runs against the base fleet before the
    baseline snapshot so the columnar kernel's steady state (grown columns,
    warm caches) is part of the baseline too.

    The gated figure comes from ``tracemalloc`` (traced Python allocations),
    not ``ru_maxrss``: the extra clients usually fit inside the high-water
    mark left by the warm broadcast, so the RSS delta reads 0 regardless of
    how much the clients actually allocate.  Traced memory is exact and
    deterministic; ``ru_maxrss`` figures ride along as context.
    """
    import gc
    import tracemalloc

    from repro.mqtt.broker import MQTTBroker
    from repro.mqtt.client import MQTTClient
    from repro.mqtt.messages import QoS
    from repro.mqtt.network import NetworkModel
    from repro.runtime.scheduler import EventScheduler
    from repro.sim.clock import SimulationClock

    clock = SimulationClock()
    broker = MQTTBroker("rss-broker", network=NetworkModel(seed=3), clock=clock)
    scheduler = EventScheduler(clock=clock)
    scheduler.attach_broker(broker)

    def add_clients(start: int, count: int) -> None:
        for index in range(start, start + count):
            client = MQTTClient(f"dev_{index:06d}")
            client.connect(broker)
            client.subscribe("fleet/all/cmd", QoS.AT_LEAST_ONCE)
            scheduler.register(client)

    add_clients(0, base_clients)
    commander = MQTTClient("commander")
    commander.connect(broker)
    commander.publish("fleet/all/cmd", b"warm", qos=QoS.AT_LEAST_ONCE)
    scheduler.run_until_idle()

    baseline_mb = _peak_rss_mb()
    gc.collect()
    tracemalloc.start()
    traced_before, _ = tracemalloc.get_traced_memory()
    add_clients(base_clients, extra_clients)
    gc.collect()
    traced_after, _ = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    peak_mb = _peak_rss_mb()
    delta_mb = (traced_after - traced_before) / (1024.0 * 1024.0)
    print(json.dumps({
        "idle_rss_base_clients": base_clients,
        "idle_rss_extra_clients": extra_clients,
        "idle_rss_baseline_mb": baseline_mb,
        "idle_rss_peak_mb": peak_mb,
        "scheduler_rss_per_10k_clients_mb": delta_mb * (10_000 / extra_clients),
    }))


# ----------------------------------------------------------------- the runner


def run_benches(quick: bool, label: str = "adhoc") -> Dict[str, object]:
    """Execute every microbench; returns the BENCH json document."""
    metrics: Dict[str, float] = {}
    print("• scheduler routing throughput ...", file=sys.stderr)
    metrics.update(bench_scheduler_best())
    # Always the full broadcast count: the 12k fan-out takes well under a
    # second either way, and a 3-broadcast "quick" run under-amortizes the
    # first broadcast's lazy batch allocations (~30% lower throughput),
    # which made quick-fresh vs full-baseline gating flaky.
    print("• scheduler 12k-client fan-out throughput ...", file=sys.stderr)
    metrics.update(bench_scheduler_12k())
    print("• codec encode/decode ...", file=sys.stderr)
    metrics.update(bench_codec(payload_mb=2 if quick else 10))
    print("• update codec (int8) encode/decode ...", file=sys.stderr)
    metrics.update(bench_update_codec(payload_mb=2 if quick else 10))
    print("• streaming aggregation reduce ...", file=sys.stderr)
    metrics.update(
        bench_aggregation(
            num_contributions=8 if quick else 24,
            params=100_000 if quick else 1_000_000,
        )
    )
    print("• observability overhead (registry attached vs detached) ...", file=sys.stderr)
    metrics.update(bench_obs_overhead(rounds=2 if quick else 3))
    print("• fan-out peak RSS (subprocess) ...", file=sys.stderr)
    metrics.update(bench_fanout_rss(SCHEDULER_CLIENTS, SCHEDULER_BROADCASTS))
    print("• idle-client marginal RSS (subprocess) ...", file=sys.stderr)
    metrics.update(bench_idle_rss())
    return {
        "schema": SCHEMA,
        "label": label,
        "quick": bool(quick),
        "environment": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "platform": platform.platform(),
            "cpu_count": os.cpu_count(),
        },
        "metrics": metrics,
    }


def run_suite(quick: bool) -> int:
    """Smoke the ``benchmarks/`` pytest suite; returns the exit code."""
    env = dict(os.environ)
    env["PYTHONPATH"] = _SRC + os.pathsep + env.get("PYTHONPATH", "")
    if quick:
        env["REPRO_BENCH_FAST"] = "1"
    targets = [
        "benchmarks/test_scheduler_throughput.py",
        "benchmarks/test_topic_match_micro.py",
        "benchmarks/test_codec_micro.py",
        "benchmarks/test_aggregation_micro.py",
    ]
    return subprocess.call(
        [sys.executable, "-m", "pytest", "-q", "-s", *targets], env=env, cwd=_REPO_ROOT
    )


def check_regression(
    baseline_path: str,
    tolerance: float | None = None,
    fresh_path: str | None = None,
) -> int:
    """Every gated metric vs the committed baseline; 0 = all within tolerance.

    With ``fresh_path`` the fresh figures are read from an already-emitted
    BENCH json (the CI job gates on the exact artifact it uploads);
    otherwise the scheduler bench is re-measured best-of-3 and only that
    gate runs.  ``tolerance`` overrides every gate's default when given.
    A gate metric absent from either document is a hard error (exit 2).
    """
    with open(baseline_path, "r", encoding="utf-8") as handle:
        baseline = json.load(handle)
    if baseline.get("schema") != SCHEMA:
        print(f"unrecognized baseline schema in {baseline_path}", file=sys.stderr)
        return 2
    if fresh_path is not None:
        with open(fresh_path, "r", encoding="utf-8") as handle:
            fresh_doc = json.load(handle)
        if fresh_doc.get("schema") != SCHEMA:
            print(f"unrecognized fresh schema in {fresh_path}", file=sys.stderr)
            return 2
        fresh_metrics = fresh_doc["metrics"]
        gates = GATES
    else:
        fresh_metrics = bench_scheduler_best()
        gates = tuple(gate for gate in GATES if gate[0] == GATE_METRIC)

    failed = False
    for name, extract, default_tolerance, direction in gates:
        gate_tolerance = default_tolerance if tolerance is None else tolerance
        try:
            reference = extract(baseline["metrics"])
        except KeyError as exc:
            print(f"baseline {baseline_path} is missing gate metric {exc} for {name}", file=sys.stderr)
            return 2
        try:
            fresh = extract(fresh_metrics)
        except KeyError as exc:
            print(f"fresh document is missing gate metric {exc} for {name}", file=sys.stderr)
            return 2
        if direction == "lower":
            bound = reference * (1.0 + gate_tolerance)
            ok = fresh <= bound
            bound_label = "ceiling"
        else:
            bound = reference * (1.0 - gate_tolerance)
            ok = fresh >= bound
            bound_label = "floor"
        verdict = "OK" if ok else "REGRESSION"
        failed = failed or not ok
        # Throughput gates are large counts; ratio gates live near 1.0 and
        # need decimals to be readable.
        fmt = (lambda v: f"{v:,.4f}") if reference < 100 else (lambda v: f"{v:,.0f}")
        print(
            f"{name}: fresh {fmt(fresh)} vs baseline {fmt(reference)} "
            f"({bound_label} {fmt(bound)} at {gate_tolerance:.0%} tolerance) -> {verdict}"
        )
    # Absolute throughput is machine-dependent; surface an environment
    # mismatch so a gate failure on a different class of machine is easy to
    # diagnose (regenerate the baseline with --output on the gating machine,
    # or widen --tolerance, when the environments legitimately differ).
    recorded = baseline.get("environment", {})
    current = {"platform": platform.platform(), "cpu_count": os.cpu_count()}
    for key, value in current.items():
        if key in recorded and recorded[key] != value:
            print(
                f"note: baseline {key} was {recorded[key]!r}, this machine is "
                f"{value!r} — absolute numbers may not be comparable",
                file=sys.stderr,
            )
    return 1 if failed else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="reduced sizes (CI smoke)")
    parser.add_argument("--output", help="write the BENCH json here (default: stdout)")
    parser.add_argument("--suite", action="store_true", help="also run the benchmarks/ pytest suite")
    parser.add_argument("--check", metavar="BASELINE", help="regression-gate against a committed BENCH json")
    parser.add_argument("--fresh", metavar="FRESH", help="with --check: read the fresh figure from this BENCH json instead of re-measuring")
    parser.add_argument("--tolerance", type=float, default=None, help="override every gate's default fractional tolerance for --check (default: per-metric)")
    parser.add_argument("--fanout-probe", nargs=2, metavar=("CLIENTS", "BROADCASTS"), help=argparse.SUPPRESS)
    parser.add_argument("--idle-rss-probe", nargs=2, metavar=("BASE", "EXTRA"), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.fanout_probe:
        _fanout_probe(int(args.fanout_probe[0]), int(args.fanout_probe[1]))
        return 0
    if args.idle_rss_probe:
        _idle_rss_probe(int(args.idle_rss_probe[0]), int(args.idle_rss_probe[1]))
        return 0

    if args.check:
        return check_regression(args.check, args.tolerance, fresh_path=args.fresh)

    if args.suite:
        code = run_suite(args.quick)
        if code != 0:
            return code

    # The trajectory label comes from the output filename (BENCH_pr5.json ->
    # "pr5"), so regenerated baselines are never mislabeled.
    label = "adhoc"
    if args.output:
        stem = os.path.splitext(os.path.basename(args.output))[0]
        label = stem[len("BENCH_"):] if stem.startswith("BENCH_") else stem
    document = run_benches(args.quick, label=label)
    rendered = json.dumps(document, indent=2, sort_keys=True) + "\n"
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(rendered)
        print(f"wrote {args.output}", file=sys.stderr)
    else:
        sys.stdout.write(rendered)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
