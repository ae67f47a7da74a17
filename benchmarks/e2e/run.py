#!/usr/bin/env python3
"""End-to-end command ledger for the SDFLMQ reproduction.

    python3 benchmarks/e2e/run.py --workload fleet-wire --seed 42 --seconds 20 --trace 0

runs one workload (all four when ``--workload`` is omitted) the way a user
would: each command in a fresh ``python -m repro …`` subprocess, one at a
time (closed loop, one driver process), whole passes repeated until
``--seconds`` of measurement are in.  It verifies what the commands print and
write, prints every metric by name with its unit and ends with one JSON line
``{"correct", "attempted", "failed", "metrics"}``.

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``.
``--trace 1`` additionally runs every command once inside this process with
timing wrappers around each layer's public callables (``ledger.py``) and
reports the per-layer metrics.  ``--output FILE`` appends the full run
document (environment, seed, per-command rows, ledger) as one JSON line for
``compare.py``.

Children run single-threaded BLAS (OpenBLAS spin-waits make the default
two-thread timings bimodal on a 2-CPU box: 0.92 s vs 1.37 s for the same
command), with the repo's ``src`` on ``PYTHONPATH``, a private
``PYTHONPYCACHEPREFIX`` and a temporary cwd, all under ``.work/`` beside this
file, so a run leaves the checkout as it found it.
"""

from __future__ import annotations

import os
import sys

sys.dont_write_bytecode = True  # no __pycache__ in src/ from the traced pass

#: One BLAS thread in every child and in this process (set before numpy loads).
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_ENV)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
import threading  # noqa: E402
import zlib  # noqa: E402
from time import perf_counter  # noqa: E402
from typing import Any, Dict, List, Optional, Sequence, Tuple  # noqa: E402

from ledger import Ledger, self_times, span_counts  # noqa: E402
from workloads import (  # noqa: E402
    DEFAULT_SEED, WORKLOADS, Sample, Workload, build, fingerprint, verify,
)

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(REPO, "src")
WORK = os.path.join(HERE, ".work")

TIMEOUT_S = 120.0  # per command; the child's process group is killed
SETUP_REPEATS = 5  # set-ups per run; setup_s is their median
MIN_PASSES = 3  # so a median drops the one pass that compiles leftover bytecode
PROBE_SAMPLES = 3


# ----------------------------------------------------------------- children


def child_env(pycache: str) -> Dict[str, str]:
    env = {
        key: value
        for key, value in os.environ.items()
        if key not in ("PYTHONDONTWRITEBYTECODE", "REPRO_STORE", "PYTHONSTARTUP")
    }
    env.update(PYTHONPATH=SRC, PYTHONPYCACHEPREFIX=pycache)
    return env


def spawn(argv: Sequence[str], cwd: str, env: Dict[str, str]) -> Sample:
    """Run ``python <argv>`` to completion; wall, CPU and peak RSS from ``wait4``."""
    with tempfile.TemporaryFile(dir=cwd) as out, tempfile.TemporaryFile(dir=cwd) as err:
        start = perf_counter()
        process = subprocess.Popen(
            [sys.executable, *argv], cwd=cwd, env=env, stdin=subprocess.DEVNULL,
            stdout=out, stderr=err, start_new_session=True,
        )
        watchdog = threading.Timer(TIMEOUT_S, os.killpg, (process.pid, signal.SIGKILL))
        watchdog.start()
        try:
            _pid, status, usage = os.wait4(process.pid, 0)
        except BaseException:  # interrupted: leave no child behind
            os.killpg(process.pid, signal.SIGKILL)
            process.wait()
            raise
        finally:
            watchdog.cancel()
        wall = perf_counter() - start
        process.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return Sample(
            pass_dir=cwd,
            returncode=process.returncode,
            stdout=out.read().decode("utf-8", "replace"),
            stderr=err.read().decode("utf-8", "replace"),
            wall_s=wall,
            cpu_s=usage.ru_utime + usage.ru_stime,
            rss_mb=usage.ru_maxrss / 1024.0,  # Linux reports KiB
        )


# ------------------------------------------------------------------- set-up


def set_up(workload: Workload) -> Tuple[str, Dict[str, str], float]:
    """One set-up: temp root, generated specs, and a cold start that compiles
    the bytecode cache every later child reads.  Returns (root, env, seconds)."""
    start = perf_counter()
    root = tempfile.mkdtemp(prefix=f"{workload.name}-", dir=WORK)
    os.mkdir(os.path.join(root, "specs"))
    for name, content in workload.files.items():
        with open(os.path.join(root, "specs", name), "w", encoding="utf-8") as handle:
            handle.write(content)
    env = child_env(os.path.join(root, "pycache"))
    cold = spawn(("-m", "repro", "scenario", "list"), root, env)
    if cold.returncode != 0:
        shutil.rmtree(root, ignore_errors=True)
        raise SystemExit(f"set-up failed: cold start exited {cold.returncode}\n{cold.stderr}")
    return root, env, perf_counter() - start


def set_up_repeatedly(workload: Workload) -> Tuple[str, Dict[str, str], float]:
    """:data:`SETUP_REPEATS` independent set-ups; keeps the last, reports the median."""
    seconds: List[float] = []
    root, env = "", {}
    for _ in range(SETUP_REPEATS):
        if root:
            shutil.rmtree(root, ignore_errors=True)
        root, env, elapsed = set_up(workload)
        seconds.append(elapsed)
    return root, env, statistics.median(seconds)


# ------------------------------------------------------------------ measure


def measure(
    workload: Workload, root: str, env: Dict[str, str], seconds: float, min_passes: int
) -> List[Dict[str, Sample]]:
    """Whole passes of the workload's commands until ``seconds`` are measured.

    Another pass starts only while half of it still fits, so the measured
    time lands within half a pass of ``seconds`` whatever the pass length.
    """
    passes: List[Dict[str, Sample]] = []
    start = perf_counter()
    while True:
        pass_dir = os.path.join(root, f"pass{len(passes)}")
        os.mkdir(pass_dir)
        began = perf_counter()
        passes.append(
            {c.label: spawn(("-m", "repro", *c.argv), pass_dir, env) for c in workload.commands}
        )
        now = perf_counter()
        if len(passes) >= min_passes and (now - start) + (now - began) / 2 > seconds:
            return passes


def command_rows(workload: Workload, passes: Sequence[Dict[str, Sample]]) -> Dict[str, Dict[str, Any]]:
    rows: Dict[str, Dict[str, Any]] = {}
    for command in workload.commands:
        walls = [samples[command.label].wall_s for samples in passes]
        rows[command.label] = {
            "samples": len(walls),
            "wall_s": statistics.median(walls),
            "wall_quartiles_s": statistics.quantiles(walls, n=4) if len(walls) > 1 else walls * 3,
            "cpu_s": statistics.median(samples[command.label].cpu_s for samples in passes),
            "peak_rss_mb": max(samples[command.label].rss_mb for samples in passes),
        }
    return rows


def checked(
    workload: Workload, passes: Sequence[Dict[str, Sample]]
) -> List[Tuple[str, bool]]:
    """Exit status of every sample plus every output check of ``verify``."""
    checks = [
        (f"{label} pass {index}: exit 0", sample.returncode == 0)
        for index, samples in enumerate(passes)
        for label, sample in samples.items()
    ]
    return checks + verify(workload, passes, REPO)


# ------------------------------------------------------------------- traced


def in_process(workload: Workload, root: str, tag: str, sink: io.StringIO) -> Dict[str, Sample]:
    """Every command once through ``repro.cli.main`` in this process.

    ``--workers 2`` becomes ``--workers 1`` so grid cells run where the
    wrappers are installed (results are byte-identical for any worker count).
    """
    cli = importlib.import_module("repro.cli")
    pass_dir = os.path.join(root, tag)
    os.mkdir(pass_dir)
    samples: Dict[str, Sample] = {}
    previous = os.getcwd()
    os.chdir(pass_dir)
    try:
        for command in workload.commands:
            argv = list(command.argv)
            if "--workers" in argv:
                argv[argv.index("--workers") + 1] = "1"
            out = io.StringIO()
            start = perf_counter()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(sink):
                try:
                    code = cli.main(argv)  # attribute lookup: the wrapper when installed
                except SystemExit as exit_:
                    code = exit_.code
            wall = perf_counter() - start
            samples[command.label] = Sample(pass_dir, int(code or 0), out.getvalue(), "", wall)
    finally:
        os.chdir(previous)
    return samples


def median_wall(argv: Sequence[str], cwd: str, env: Dict[str, str]) -> Optional[float]:
    samples = [spawn(argv, cwd, env) for _ in range(PROBE_SAMPLES)]
    if any(sample.returncode != 0 for sample in samples):
        return None
    return statistics.median(sample.wall_s for sample in samples)


def _gauges(results: Sequence[Any]) -> Dict[str, float]:
    """``ScenarioResult.metrics`` gauges summed over results and label sets."""
    totals: Dict[str, float] = {}
    for result in results:
        for key, value in result.metrics.get("gauges", {}).items():
            name = key.split("{", 1)[0]
            totals[name] = totals.get(name, 0) + value
    return totals


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def traced(
    workload: Workload, root: str, env: Dict[str, str], rows: Dict[str, Dict[str, Any]],
    reference: Dict[str, Sample],
) -> Tuple[Dict[str, float], List[Tuple[str, bool]], Dict[str, Any]]:
    """The per-layer ledger: (metrics by name, checks, ledger document)."""
    sink = io.StringIO()
    untraced = in_process(workload, root, "untraced", sink)
    ledger = Ledger()
    try:
        patched = ledger.install()
        samples = in_process(workload, root, "traced", sink)
    finally:
        ledger.uninstall()

    checks: List[Tuple[str, bool]] = []
    for command in workload.commands:
        sample = samples[command.label]
        checks.append((f"traced {command.label}: exit 0", sample.returncode == 0))
        checks.append(
            (
                f"traced {command.label}: {command.check} equals the subprocess run",
                fingerprint(command, sample) == fingerprint(command, reference[command.label]),
            )
        )
    printed = [
        fingerprint(c, samples[c.label]) for c in workload.commands if c.check == "signature"
    ]
    if printed:  # `scenario run` commands: one ScenarioResult each, in order
        checks.append(
            ("traced: ScenarioResult signatures are the printed ones",
             [result.signature for result in ledger.results] == printed)
        )
        checks.append(
            ("traced: every run completed spec.training.rounds rounds",
             all(len(r.rounds) == r.spec.training.rounds for r in ledger.results))
        )

    selfs = self_times(ledger.spans)
    calls = span_counts(ledger.spans)
    layer_self: Dict[str, float] = {}
    layer_calls: Dict[str, int] = {}
    for name, seconds in selfs.items():
        layer = name.split("/", 1)[0]
        layer_self[layer] = layer_self.get(layer, 0.0) + seconds
        layer_calls[layer] = layer_calls.get(layer, 0) + calls[name]
    gauges = _gauges(ledger.results)
    counters = ledger.counters

    interp = median_wall(("-c", "pass"), root, env) or 0.0
    imported = median_wall(("-c", "import repro.cli"), root, env) or 0.0
    startup = median_wall(("-m", "repro", "scenario", "list"), root, env) or 0.0
    seed = str(workload.seed)
    plain = median_wall(
        ("-m", "repro", "scenario", "run", "bridged-multi-region", "--seed", seed, "--no-store"),
        root, env,
    )
    sharded = median_wall(
        ("-m", "repro", "scenario", "run", "bridged-multi-region", "--seed", seed,
         "--no-store", "--shards", "2"),
        root, env,
    )  # None when the flag is gone: reported as 0, never a failure

    wall_s = sum(row["wall_s"] for row in rows.values())
    traced_wall = sum(sample.wall_s for sample in samples.values())
    untraced_wall = sum(sample.wall_s for sample in untraced.values())
    compress_calls = calls.get("mqttfc.compression/compress_frame", 0)
    store_reads = calls.get("scenarios.store/get_run", 0)
    events = gauges.get("scheduler_events_processed", 0)
    route_hits = gauges.get("broker_route_cache_hits", 0)
    metrics: Dict[str, float] = {
        "cli.interp_s": interp,
        "cli.import_s": max(0.0, imported - interp),
        "cli.startup_s": startup,
        "cli.self_s": layer_self.get("cli", 0.0),
        "scenarios.compiler.self_s": layer_self.get("scenarios.compiler", 0.0),
        "scenarios.compiler.calls": layer_calls.get("scenarios.compiler", 0),
        "scenarios.runner.self_s": layer_self.get("scenarios.runner", 0.0),
        "scenarios.store.self_s": layer_self.get("scenarios.store", 0.0),
        "scenarios.store.reads": store_reads,
        "scenarios.store.writes": calls.get("scenarios.store/put_run", 0)
        + calls.get("scenarios.store/record_grid", 0),
        "scenarios.store.hit_ratio": _ratio(counters["store.hits"], store_reads),
        "experiments.fig.self_s": layer_self.get("experiments.fig", 0.0),
        "experiments.report.self_s": layer_self.get("experiments.report", 0.0),
        "runtime.experiment.setup_self_s": layer_self.get("runtime.experiment.setup", 0.0),
        "runtime.experiment.round_self_s": layer_self.get("runtime.experiment.round", 0.0),
        "runtime.experiment.rounds": layer_calls.get("runtime.experiment.round", 0),
        "runtime.scheduler.self_s": layer_self.get("runtime.scheduler", 0.0),
        "runtime.scheduler.events": events,
        "runtime.scheduler.us_per_event": 1e6 * _ratio(layer_self.get("runtime.scheduler", 0.0), events),
        "mqtt.broker.self_s": layer_self.get("mqtt.broker", 0.0),
        "mqtt.broker.publishes": calls.get("mqtt.broker/publish", 0),
        "mqtt.broker.deliveries": gauges.get("broker_messages_delivered", 0),
        "mqtt.broker.route_cache_hit_ratio": _ratio(
            route_hits, route_hits + gauges.get("broker_route_cache_misses", 0)
        ),
        "mqttfc.rfc.dispatch_self_s": layer_self.get("mqttfc.rfc", 0.0),
        "mqttfc.rfc.calls_served": gauges.get("endpoint_calls_served", 0),
        "mqttfc.serialization.self_s": layer_self.get("mqttfc.serialization", 0.0),
        "mqttfc.serialization.encodes": calls.get("mqttfc.serialization/encode_payload_frame", 0),
        "mqttfc.serialization.decodes": calls.get("mqttfc.serialization/decode_payload", 0),
        "mqttfc.compression.self_s": layer_self.get("mqttfc.compression", 0.0),
        "mqttfc.compression.compress_calls": compress_calls,
        "mqttfc.compression.decompress_calls": calls.get("mqttfc.compression/decompress_payload", 0),
        "mqttfc.compression.bytes_in": counters["compress.bytes_in"],
        "mqttfc.compression.bytes_out": counters["compress.bytes_out"],
        "mqttfc.compression.kept_ratio": _ratio(counters["compress.kept"], compress_calls),
        "mqttfc.batching.self_s": layer_self.get("mqttfc.batching", 0.0),
        "mqttfc.batching.chunks_sent": counters["mqttfc.batching/iter_payloads_frame.yields"],
        "mqttfc.batching.chunks_received": calls.get("mqttfc.batching/add", 0),
        "mqttfc.codecs.self_s": layer_self.get("mqttfc.codecs", 0.0),
        "mqttfc.codecs.calls": layer_calls.get("mqttfc.codecs", 0),
        "mqttfc.codecs.bytes_saved": gauges.get("codec_bytes_saved", 0),
        "core.handlers.self_s": layer_self.get("core.handlers", 0.0),
        "core.handlers.calls": layer_calls.get("core.handlers", 0),
        "core.aggregation.self_s": layer_self.get("core.aggregation", 0.0),
        "core.aggregation.aggregations": layer_calls.get("core.aggregation", 0),
        "ml.train.self_s": layer_self.get("ml.train", 0.0),
        "ml.train.epochs": calls.get("ml.train/train_epoch", 0),
        "ml.eval.self_s": layer_self.get("ml.eval", 0.0),
        "obs.self_s": layer_self.get("obs", 0.0),
        # Simulated quantities: exact, repeatable, never to be mixed with host time.
        "sim.rounds": sum(len(result.rounds) for result in ledger.results),
        "sim.messages": sum(result.messages_processed for result in ledger.results),
        "sim.traffic_bytes": sum(result.total_traffic_bytes for result in ledger.results),
        "sim.final_time_s": sum(result.final_sim_time_s for result in ledger.results),
        "sim.signature_crc32": zlib.crc32(
            "".join(result.signature for result in ledger.results).encode()
        ),
        "scenarios.sharded.shards2_wall_ratio": _ratio(sharded or 0.0, plain or 0.0),
        "trace.overhead_ratio": _ratio(traced_wall, untraced_wall),
        "trace.sum_ratio": _ratio(
            imported * len(workload.commands) + sum(layer_self.values()), wall_s
        ),
        "trace.spans": len(ledger.spans),
        "trace.targets_patched": patched,
    }
    document = {
        "spans": {
            name: {"calls": calls[name], "self_s": selfs[name]} for name in sorted(selfs)
        },
        "traced_wall_s": traced_wall,
        "untraced_wall_s": untraced_wall,
    }
    return metrics, checks, document


# --------------------------------------------------------------------- main


def environment() -> Dict[str, Any]:
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    head = os.path.join(REPO, ".git", "HEAD")
    revision = None
    if os.path.isfile(head):
        revision = subprocess.run(
            ["git", "-C", REPO, "rev-parse", "HEAD"], capture_output=True, text=True
        ).stdout.strip() or None
    return {
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "blas_threads": int(BLAS_ENV["OPENBLAS_NUM_THREADS"]),
        "git_revision": revision,
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool, spec: Dict[str, Any]) -> Dict[str, Any]:
    """Set up, measure, verify and (``trace``) ledger one workload."""
    workload = build(name, seed)
    root, env, setup_s = set_up_repeatedly(workload)
    try:
        # The traced run spends its time on the in-process passes; two
        # subprocess passes give it the reference walls for its ratios.
        budget, floor = (0.0, 2) if trace else (seconds, MIN_PASSES)
        passes = measure(workload, root, env, budget, floor)
        checks = checked(workload, passes)
        rows = command_rows(workload, passes)
        values: Dict[str, float] = {
            "wall_s": sum(row["wall_s"] for row in rows.values()),
            "cpu_s": sum(row["cpu_s"] for row in rows.values()),
            "peak_rss_mb": max(row["peak_rss_mb"] for row in rows.values()),
            "setup_s": setup_s,
        }
        ledger_document: Dict[str, Any] = {}
        if trace:
            layer_values, layer_checks, ledger_document = traced(workload, root, env, rows, passes[-1])
            values.update(layer_values)
            checks += layer_checks
            for definition in spec["per_layer"]:
                label = definition["name"]
                if label.startswith("cmd."):  # 0 for a command of another workload
                    row = rows.get(label[len("cmd."):-len(".wall_s")])
                    values[label] = row["wall_s"] if row else 0.0
    finally:
        shutil.rmtree(root, ignore_errors=True)

    reported = spec["per_layer"] if trace else spec["end_to_end"]
    failures = [description for description, passed in checks if not passed]
    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "passes": len(passes),
        "correct": not failures,
        "attempted": len(checks),
        "failed": len(failures),
        "failures": failures,
        "metrics": {
            d["name"]: {"value": values[d["name"]], "unit": d["unit"]} for d in reported
        },
        "commands": rows,
        "ledger": ledger_document,
    }


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), default=None,
                        help="one workload (default: all four, one after the other)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"workload seed (default {DEFAULT_SEED}: the goldens' seed)")
    parser.add_argument("--seconds", type=float, default=None,
                        help="measurement time per workload (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1 = also run the traced in-process pass and report per-layer metrics")
    parser.add_argument("--output", default=None, metavar="FILE",
                        help="append each run document to FILE as one JSON line")
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"{SRC}/repro not found: nothing to measure", file=sys.stderr)
        return 1
    sys.path.insert(0, SRC)  # the grid registry for build(), repro.cli for the traced pass
    with open(os.path.join(REPO, "BENCHMARK.json"), "r", encoding="utf-8") as handle:
        spec = json.load(handle)
    seconds = float(spec["run_seconds"]) if args.seconds is None else args.seconds
    names = [args.workload] if args.workload else [w["name"] for w in spec["workloads"]]

    os.makedirs(WORK, exist_ok=True)
    try:
        for name in names:
            document = run_workload(name, args.seed, seconds, bool(args.trace), spec)
            document["environment"] = environment()
            print(f"# {name} seed={args.seed} passes={document['passes']} "
                  f"checks={document['attempted']} failed={document['failed']}")
            for failure in document["failures"]:
                print(f"FAILED {failure}")
            for metric, entry in document["metrics"].items():
                print(f"{metric:44s} {entry['value']:>16.6f} {entry['unit']}")
            if args.output:
                with open(args.output, "a", encoding="utf-8") as handle:
                    handle.write(json.dumps(document, sort_keys=True) + "\n")
            print(json.dumps({key: document[key] for key in ("correct", "attempted", "failed", "metrics")}))
    finally:
        with contextlib.suppress(OSError):
            os.rmdir(WORK)  # only when no concurrent run still uses it
    return 0


if __name__ == "__main__":
    sys.exit(main())
