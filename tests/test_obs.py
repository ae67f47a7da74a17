"""Tests for the observability layer (``repro.obs``).

Covers: the unified metrics registry (instrument identity, deterministic
snapshots, collectors, reset), the sim-time tracer (ring-buffer bounds,
JSONL and Chrome ``trace_event`` exports, anomaly dump hooks), the
lifecycle-to-span adapter, ``PhaseTimer``'s ``exclude``/``prime``
interaction, the structured stderr logger, the trace-file tooling, the
scenario runner's flight-recorder integration — pinned to be
**determinism-neutral**: same spec + seed produce byte-identical trace
files, and a traced run's signature equals an untraced run's.
"""

from __future__ import annotations

import hashlib
import io
import json
import logging
import os
import sys

import pytest

from repro.core.rounds import LifecycleEvent, PhaseTimer, RoundPhase
from repro.mqttfc import rfc
from repro.obs import (
    LifecycleTracer,
    MetricsRegistry,
    Tracer,
    configure_logging,
    get_logger,
    metric_key,
)
from repro.obs.tools import load_trace_events, summarize_trace, trace_summary_rows
from repro.scenarios import (
    FleetSpec,
    ScenarioRunner,
    ScenarioSpec,
    TopologySpec,
    TrainingSpec,
)


def _tiny_spec(**overrides) -> ScenarioSpec:
    base = dict(
        name="obs-base",
        seed=11,
        fleet=FleetSpec(num_clients=4),
        training=TrainingSpec(
            rounds=2,
            local_epochs=1,
            dataset_samples=400,
            client_data_fraction=0.05,
            train_for_real=False,
            round_deadline_s=5.0,
        ),
    )
    base.update(overrides)
    return ScenarioSpec(**base)


# ----------------------------------------------------------------- registry


class TestMetricsRegistry:
    def test_metric_key_sorts_labels(self):
        assert metric_key("hits", {}) == "hits"
        assert metric_key("hits", {"b": 2, "a": 1}) == "hits{a=1,b=2}"

    def test_instruments_are_get_or_create(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("depth", broker="core")
        gauge.set(3.0)
        assert registry.gauge("depth", broker="core") is gauge
        assert registry.gauge("depth", broker="edge") is not gauge
        assert registry.gauge("depth", broker="core").value == 3.0
        histogram = registry.histogram("latency_s", broker="core")
        assert registry.histogram("latency_s", broker="core") is histogram

    def test_snapshot_is_deterministic_regardless_of_insertion_order(self):
        first = MetricsRegistry()
        first.gauge("a").set(1)
        first.gauge("z").set(2)
        second = MetricsRegistry()
        second.gauge("z").set(2)
        second.gauge("a").set(1)
        render = lambda reg: json.dumps(reg.snapshot(), sort_keys=True)
        assert render(first) == render(second)

    def test_collectors_run_at_snapshot_time_only(self):
        registry = MetricsRegistry()
        source = {"value": 0}
        calls = []

        def collect(reg):
            calls.append(True)
            reg.gauge("absorbed").set(source["value"])

        registry.register_collector(collect)
        source["value"] = 7
        assert not calls  # nothing happens until snapshot
        snapshot = registry.snapshot()
        assert snapshot["gauges"]["absorbed"] == 7
        assert len(calls) == 1

    def test_histogram_buckets_and_summary(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("latency_s", buckets=(0.1, 1.0))
        for value in (0.05, 0.5, 0.5, 5.0):
            histogram.observe(value)
        summary = histogram.summary()
        assert summary["count"] == 4
        assert summary["min"] == 0.05 and summary["max"] == 5.0
        assert summary["buckets"] == {"le_0.1": 1, "le_1": 2, "le_inf": 1}


# ------------------------------------------------------------------- tracer


class TestTracer:
    def test_ring_buffer_evicts_oldest_and_counts_drops(self):
        tracer = Tracer(capacity=4)
        for index in range(6):
            tracer.instant(f"e{index}", "delivery", ts=float(index))
        assert tracer.dropped_events == 2
        assert [event["name"] for event in tracer.events] == ["e2", "e3", "e4", "e5"]

    def test_jsonl_is_compact_and_key_sorted(self):
        tracer = Tracer()
        tracer.complete("send", "delivery", 1.0, 2.5, args={"b": 1, "a": 2})
        line = tracer.to_jsonl().strip()
        assert line == (
            '{"args":{"a":2,"b":1},"cat":"delivery","dur":1.5,'
            '"name":"send","ph":"X","ts":1.0}'
        )

    def test_chrome_trace_scales_to_microseconds(self):
        tracer = Tracer()
        tracer.complete("collecting", "round", 0.5, 1.25)
        tracer.instant("admit", "lifecycle", ts=2.0)
        document = tracer.to_chrome_trace()
        events = [e for e in document["traceEvents"] if e["ph"] != "M"]
        span, instant = events
        assert span["ts"] == 500_000 and span["dur"] == 750_000
        assert instant["ts"] == 2_000_000 and instant["s"] == "g"
        # Category tracks carry Perfetto-visible names.
        names = {
            meta["args"]["name"]
            for meta in document["traceEvents"]
            if meta["ph"] == "M"
        }
        assert {"round", "lifecycle", "delivery", "anomaly"} <= names
        json.loads(tracer.chrome_json())  # the document is valid JSON

    def test_note_anomaly_records_and_fires_dump_hook(self):
        tracer = Tracer()
        dumps = []
        tracer.dump_hook = dumps.append
        tracer.note_anomaly("client-crash", ts=3.0, args={"clients": "c1"})
        assert dumps == ["client-crash"]
        assert tracer.anomalies == [
            {"kind": "client-crash", "ts": 3.0, "args": {"clients": "c1"}}
        ]
        assert tracer.events[-1]["cat"] == "anomaly"

    def test_clock_supplies_default_timestamps(self):
        tracer = Tracer(clock=lambda: 42.0)
        tracer.instant("tick", "lifecycle")
        assert tracer.events[-1]["ts"] == 42.0


def _event(kind, phase, at, round_index=0, epoch=0, client_id=""):
    return LifecycleEvent(kind, "session", round_index, phase, epoch, client_id, at)


class TestLifecycleTracer:
    def test_phase_changes_close_one_span_per_contiguous_dwell(self):
        tracer = Tracer()
        adapter = LifecycleTracer(tracer)
        adapter.prime(RoundPhase.PLANNING, 0, 1.0)
        adapter.on_event(_event("phase", RoundPhase.COLLECTING, 3.0))
        # admit fires mid-phase: must not split the COLLECTING span.
        adapter.on_event(_event("admit", RoundPhase.COLLECTING, 4.0, client_id="c9"))
        adapter.on_event(_event("phase", RoundPhase.AGGREGATING, 7.0))
        spans = [e for e in tracer.events if e["ph"] == "X"]
        assert [(s["name"], s["ts"], s["dur"]) for s in spans] == [
            ("planning", 1.0, 2.0),
            ("collecting", 3.0, 4.0),
        ]
        instants = [e for e in tracer.events if e["ph"] == "i"]
        assert [i["name"] for i in instants] == ["admit"]
        assert instants[0]["args"]["client_id"] == "c9"

    def test_restart_registers_an_anomaly(self):
        tracer = Tracer()
        adapter = LifecycleTracer(tracer)
        adapter.prime(RoundPhase.COLLECTING, 1, 0.0)
        adapter.on_event(_event("restart", RoundPhase.COLLECTING, 2.0, round_index=1, epoch=1))
        assert [a["kind"] for a in tracer.anomalies] == ["round-restart"]

    def test_advance_closes_the_phase_it_left(self):
        tracer = Tracer()
        adapter = LifecycleTracer(tracer)
        adapter.prime(RoundPhase.AGGREGATING, 0, 5.0)
        # advance changes the phase while carrying kind="advance".
        adapter.on_event(_event("advance", RoundPhase.ADVANCED, 8.0, round_index=1))
        spans = [e for e in tracer.events if e["ph"] == "X"]
        assert [(s["name"], s["dur"]) for s in spans] == [("aggregating", 3.0)]


# -------------------------------------------------------------- phase timer


class TestPhaseTimerExclude:
    def test_exclude_discounts_the_open_interval(self):
        timer = PhaseTimer()
        timer.prime(RoundPhase.COLLECTING, 0, 0.0)
        timer.exclude(2.0)
        timer.on_event(_event("phase", RoundPhase.AGGREGATING, 5.0))
        assert timer.round_times(0)["collecting_s"] == pytest.approx(3.0)

    def test_prime_after_exclude_forgets_the_discount(self):
        timer = PhaseTimer()
        timer.prime(RoundPhase.PLANNING, 0, 0.0)
        timer.exclude(10.0)
        # Re-priming opens a fresh interval; the pending discount must not
        # leak into it.
        timer.prime(RoundPhase.PLANNING, 0, 1.0)
        timer.on_event(_event("phase", RoundPhase.COLLECTING, 4.0))
        assert timer.round_times(0)["planning_s"] == pytest.approx(3.0)

    def test_over_exclusion_clamps_the_interval_to_zero(self):
        timer = PhaseTimer()
        timer.prime(RoundPhase.COLLECTING, 0, 0.0)
        timer.exclude(10.0)
        timer.on_event(_event("phase", RoundPhase.AGGREGATING, 5.0))
        assert timer.round_times(0)["collecting_s"] == 0.0


# ------------------------------------------------------------------- logger


class TestStructuredLogger:
    @pytest.fixture
    def captured(self):
        stream = io.StringIO()
        configure_logging(stream=stream)
        try:
            yield stream
        finally:
            configure_logging(stream=sys.stderr)

    def test_context_is_prefixed_and_message_text_preserved(self, captured):
        log = get_logger("repro.scenario.run", scenario="baseline", seed=3)
        log.info("store: hit (/tmp/db.sqlite)")
        line = captured.getvalue()
        assert line == (
            "repro.scenario.run [scenario=baseline seed=3] "
            "store: hit (/tmp/db.sqlite)\n"
        )
        # CI greps this exact substring out of stderr — the adapter may only
        # prefix, never rewrite.
        assert "store: hit" in line

    def test_logger_writes_to_stderr_not_stdout(self, capsys):
        configure_logging(stream=None)  # keep the existing handler
        get_logger("repro.test").info("stderr only")
        captured = capsys.readouterr()
        assert captured.out == ""


# ------------------------------------------------------- runner integration


class TestRunnerFlightRecorder:
    def test_tracing_is_signature_neutral(self, tmp_path):
        runner = ScenarioRunner()
        plain = runner.run(_tiny_spec())
        traced = runner.run(_tiny_spec(), trace_dir=tmp_path / "trace")
        assert traced.signature == plain.signature
        assert traced.summary_row() == plain.summary_row()

    def test_anomaly_dumps_the_flight_recorder_beside_the_trace(self, tmp_path):
        runner = ScenarioRunner()
        runner.run(_tiny_spec(), trace_dir=tmp_path / "calm")
        assert not list((tmp_path / "calm").glob("*.anomaly.trace.json"))

        runner.run("heavy-churn", trace_dir=tmp_path / "churn")
        with open(tmp_path / "churn" / "heavy-churn_42.anomaly.trace.json") as handle:
            dumped = json.load(handle)["traceEvents"]
        with open(tmp_path / "churn" / "heavy-churn_42.trace.json") as handle:
            full = json.load(handle)["traceEvents"]

        def anomalies(events):
            return [e["name"] for e in events if e.get("cat") == "anomaly"]

        # The last dump holds every anomaly of the run, and nothing after it.
        assert anomalies(dumped) == anomalies(full)
        assert "client-crash" in anomalies(dumped)
        assert len(dumped) < len(full)

    def test_trace_files_are_byte_identical_across_runs(self, tmp_path):
        runner = ScenarioRunner()
        runner.run(_tiny_spec(), trace_dir=tmp_path / "a")
        runner.run(_tiny_spec(), trace_dir=tmp_path / "b")
        for suffix in ("trace.jsonl", "trace.json", "metrics.json"):
            first = (tmp_path / "a" / f"obs-base_11.{suffix}").read_bytes()
            second = (tmp_path / "b" / f"obs-base_11.{suffix}").read_bytes()
            assert first == second, f"{suffix} differs between identical runs"

    def test_registry_trace_is_pinned_across_receive_path_changes(self, tmp_path, capsys):
        """``scenario run degraded-wan --seed 7 --no-store --trace D`` as the
        wire revision 4 (mantissa planes as stored blocks) wrote it: a
        receive-side change (sharing an inflate, un-shuffling once) must not
        move one sim-time trace line."""
        from repro.cli import main

        assert main(["scenario", "run", "degraded-wan", "--seed", "7", "--no-store",
                     "--trace", str(tmp_path)]) == 0
        capsys.readouterr()
        trace = (tmp_path / "degraded-wan_7.trace.jsonl").read_bytes()
        assert hashlib.sha256(trace).hexdigest() == (
            "fe235fd38f35b81d631f6ce570f825f2935d45426b2613dc692c502b78ec6008"
        )

    def test_trace_contains_delivery_and_round_phase_spans(self, tmp_path):
        ScenarioRunner().run(_tiny_spec(), trace_dir=tmp_path)
        events = load_trace_events(str(tmp_path / "obs-base_11.trace.jsonl"))
        spans = {(e["cat"], e["name"]) for e in events if e["ph"] == "X"}
        assert ("round", "collecting") in spans
        assert any(cat == "delivery" for cat, _name in spans)

    def test_metrics_snapshot_rides_the_result_payload(self):
        result = ScenarioRunner().run(_tiny_spec())
        metrics = result.metrics
        assert metrics["gauges"]["scheduler_events_processed"] > 0
        assert metrics["gauges"]["clients_messages_published"] > 0
        latency = metrics["histograms"]["scheduler_delivery_latency_s"]
        assert latency["count"] > 0
        # The snapshot survives the store payload round trip.
        payload = json.loads(json.dumps(result.to_payload()))
        assert payload["metrics"] == metrics

    @staticmethod
    def _control_fleet(compression_enabled):
        return ScenarioSpec(
            name="control-fleet",
            seed=42,
            fleet=FleetSpec(num_clients=48),
            topology=TopologySpec(regions=3, role_policy="static"),
            training=TrainingSpec(
                rounds=3, train_for_real=False, round_deadline_s=None,
                compression_enabled=compression_enabled,
            ),
        )

    def test_shared_inflate_counters_on_a_control_fleet(self, monkeypatch):
        """48 clients over 3 bridged regions, no training, zlib on: a publish
        is inflated and decoded by one of its receivers and shared with the
        rest, except where an interleaved publish evicted it from the
        one-entry memo first."""
        compressed_publishes = []
        real = rfc.compress_frame

        def counting(frame, config=None):
            result = real(frame, config)
            if result.coding in ("huffman", "level1"):
                compressed_publishes.append(1)
            return result

        monkeypatch.setattr(rfc, "compress_frame", counting)
        spec = self._control_fleet(compression_enabled=True)
        first = ScenarioRunner().run(spec).metrics["gauges"]
        published = len(compressed_publishes)
        second = ScenarioRunner().run(spec).metrics["gauges"]
        assert published > 0 and len(compressed_publishes) == 2 * published
        assert published == 150
        # Raw frames (small responses, point-to-point requests, control
        # notices) share the memo slot, so 7 compressed broadcasts are evicted
        # by an interleaved raw frame before their last receiver and inflated
        # a second time.  In exchange raw publishes are shared too: 410 shared
        # receives where an inflate-only memo shared 282 for 150 inflates.
        assert first["endpoint_frames_inflated"] == published + 7
        assert first["endpoint_receives_shared"] == 410
        # Every model frame (uploads, relayed aggregates, globals) is float32
        # and entropy-coded only; the JSON topologies take level 1.
        assert first["endpoint_frames_sent_huffman"] > first["endpoint_frames_sent_level1"] > 0
        assert first["endpoint_frames_sent_huffman"] + first["endpoint_frames_sent_level1"] == published
        assert first["endpoint_frames_deflate_discarded"] == 0
        for gauge in ("endpoint_frames_inflated", "endpoint_receives_shared",
                      "endpoint_frames_sent_huffman", "endpoint_frames_sent_level1",
                      "endpoint_frames_sent_raw"):
            assert second[gauge] == first[gauge]

    def test_compression_off_reaches_every_endpoint(self, monkeypatch):
        """The one switch: with ``compression_enabled=False`` no endpoint —
        coordinator and parameter server included — deflates anything."""
        configs = []
        real = rfc.compress_frame
        monkeypatch.setattr(
            rfc, "compress_frame", lambda frame, config=None: configs.append(config) or real(frame, config)
        )
        gauges = ScenarioRunner().run(self._control_fleet(compression_enabled=False)).metrics["gauges"]
        assert configs and not any(config.enabled for config in configs)
        assert gauges["endpoint_frames_sent_raw"] == len(configs)
        assert (gauges["endpoint_frames_sent_huffman"] + gauges["endpoint_frames_sent_level1"]
                + gauges["endpoint_frames_deflate_discarded"]) == 0
        assert gauges["endpoint_frames_inflated"] == 0
        # Raw broadcasts are still decoded once per publish, not per receiver.
        assert gauges["endpoint_receives_shared"] > 0

    def test_untraced_run_attaches_no_tracer_cost_path(self):
        # The scheduler's tracer/histogram slots stay None-guarded when no
        # registry or tracer is attached; an untraced run pays for neither.
        from repro.runtime.scheduler import EventScheduler

        scheduler = EventScheduler()
        assert scheduler.tracer is None
        scheduler.attach_metrics(None)
        assert scheduler._obs_observe is None


# -------------------------------------------------------------- trace tools


class TestTraceTools:
    def _tracer(self) -> Tracer:
        tracer = Tracer()
        tracer.complete("collecting", "round", 0.0, 2.0)
        tracer.complete("aggregating", "round", 2.0, 2.5)
        tracer.instant("admit", "lifecycle", ts=1.0)
        tracer.note_anomaly("round-deadline", ts=2.0)
        return tracer

    def test_chrome_and_jsonl_loads_agree(self, tmp_path):
        tracer = self._tracer()
        jsonl = tmp_path / "t.trace.jsonl"
        chrome = tmp_path / "t.trace.json"
        jsonl.write_text(tracer.to_jsonl())
        chrome.write_text(tracer.chrome_json())
        from_jsonl = load_trace_events(str(jsonl))
        from_chrome = load_trace_events(str(chrome))
        assert len(from_jsonl) == len(from_chrome) == 4
        for a, b in zip(from_jsonl, from_chrome):
            assert a["name"] == b["name"] and a["ph"] == b["ph"]
            assert a["ts"] == pytest.approx(b["ts"], abs=1e-6)

    def test_summarize_counts_and_rows(self, tmp_path):
        path = tmp_path / "t.trace.jsonl"
        path.write_text(self._tracer().to_jsonl())
        summary = summarize_trace(str(path))
        assert summary["spans"] == 2
        assert summary["instants"] == 2
        assert summary["anomalies"] == 1
        assert summary["span_names"] == {"collecting", "aggregating"}
        rows = trace_summary_rows(summary)
        assert rows[0]["name"] == "collecting"  # largest total duration first
        assert rows[0]["total_s"] == pytest.approx(2.0)

    def test_malformed_file_is_a_value_error(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"neither": "format"}')
        with pytest.raises(ValueError):
            load_trace_events(str(path))
