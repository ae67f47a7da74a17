"""Command-line interface for the SDFLMQ reproduction.

Exposes the experiment harness without writing any Python::

    python -m repro fig7                         # reproduce Fig. 7 (accuracy convergence)
    python -m repro fig8                         # reproduce Fig. 8 (processing delay sweep)
    python -m repro ablation aggregator-fraction # run one of the ablation studies
    python -m repro run --clients 8 --rounds 3 --policy central
    python -m repro list                         # list available ablations
    python -m repro scenario list                # named scenarios (churn/fault workloads)
    python -m repro scenario run heavy-churn --seed 7
    python -m repro scenario sweep --seeds 1 2 3
    python -m repro scenario grid --workers 4 --report out/   # parameter grid, parallel
    python -m repro scenario grid --resume       # restart an interrupted grid from the store
    python -m repro scenario schema              # generated spec field reference
    python -m repro scenario store ls            # content-addressed results store
    python -m repro scenario store show <hash>
    python -m repro scenario store gc --older-than-days 30
    python -m repro scenario serve --port 8765   # JSON API + grid-heatmap dashboard

All commands print the same plain-text tables the benchmark harness emits.
Scenario runs and grids consult the results store (``.repro/results.sqlite``
by default, ``--store``/``REPRO_STORE`` to relocate, ``--no-store`` to
disable) before executing: a previously stored ``(spec, seed)`` is returned
from the store with a byte-identical signature instead of being re-run.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import TYPE_CHECKING, Callable, Dict, Optional, Sequence, TypeVar

from repro.experiments.report import format_series, format_table

# Each handler imports what it runs: a verb that only reads the registry or
# the store never loads numpy, the runtime or the figure harnesses.
if TYPE_CHECKING:
    from repro.scenarios.runner import ScenarioRunner
    from repro.scenarios.store import ResultsStore

__all__ = ["main", "build_parser", "ABLATIONS"]

#: name → the :mod:`repro.experiments.ablations` function returning its rows.
ABLATIONS: Dict[str, str] = {
    "aggregator-fraction": "run_aggregator_fraction_sweep",
    "payload-compression": "run_payload_compression_sweep",
    "role-rearrangement": "run_role_rearrangement",
    "broker-bridging": "run_broker_bridging",
    "topologies": "run_topology_comparison",
    "aggregation-strategies": "run_aggregation_strategies",
}

_Spec = TypeVar("_Spec")


class _UsageError(Exception):
    """A one-line command-line mistake: printed to stderr, exit status 2."""


def build_parser() -> argparse.ArgumentParser:
    """Build the argument parser (exposed for testing and --help generation)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction harness for 'SDFLMQ: A Semi-Decentralized Federated "
        "Learning Framework over MQTT' (IPDPSW/PAISE 2025).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    fig7 = sub.add_parser("fig7", help="accuracy convergence: offline vs SDFL (paper Fig. 7)")
    fig7.add_argument("--fast", action="store_true", help="shrunk configuration (seconds instead of minutes)")
    fig7.add_argument("--seed", type=int, default=42)

    fig8 = sub.add_parser("fig8", help="total processing delay vs client count (paper Fig. 8)")
    fig8.add_argument("--fast", action="store_true", help="only the first two client counts, 3 rounds")
    fig8.add_argument("--seed", type=int, default=7)

    ablation = sub.add_parser("ablation", help="run one ablation study")
    ablation.add_argument("name", choices=sorted(ABLATIONS), help="which ablation to run")

    sub.add_parser("list", help="list available ablations")

    run = sub.add_parser("run", help="run a custom SDFLMQ experiment")
    run.add_argument("--clients", type=int, default=5)
    run.add_argument("--rounds", type=int, default=3)
    run.add_argument("--epochs", type=int, default=3)
    run.add_argument("--policy", choices=["hierarchical", "central"], default="hierarchical")
    run.add_argument("--aggregator-fraction", type=float, default=0.30)
    run.add_argument("--aggregation", default="fedavg")
    run.add_argument("--role-policy", default="static")
    run.add_argument("--partition", choices=["iid", "dirichlet", "shard"], default="iid")
    run.add_argument("--dirichlet-alpha", type=float, default=0.5)
    run.add_argument("--dataset-samples", type=int, default=4000)
    run.add_argument("--client-fraction", type=float, default=0.02)
    run.add_argument("--regions", type=int, default=1)
    run.add_argument("--device-tier", default="laptop")
    run.add_argument("--heterogeneous", action="store_true")
    run.add_argument("--no-train", action="store_true", help="skip real training (delay-only runs)")
    run.add_argument("--seed", type=int, default=42)

    scenario = sub.add_parser(
        "scenario", help="declarative scenarios with churn + fault injection"
    )
    scenario_sub = scenario.add_subparsers(dest="scenario_command", required=True)

    def add_store_options(command: argparse.ArgumentParser) -> None:
        command.add_argument(
            "--store", default=None, metavar="PATH",
            help="results-store sqlite file (default: $REPRO_STORE or .repro/results.sqlite)",
        )
        command.add_argument(
            "--no-store", action="store_true",
            help="execute without consulting or writing the results store",
        )

    scenario_sub.add_parser("list", help="list the named scenario registry")

    scenario_run = scenario_sub.add_parser(
        "run", help="run one named scenario (or a JSON spec file) deterministically"
    )
    scenario_run.add_argument(
        "name", nargs="?", default=None,
        help="registry name (omit when using --spec)",
    )
    scenario_run.add_argument(
        "--spec", default=None, metavar="FILE",
        help="load a ScenarioSpec from a JSON file instead of the registry",
    )
    scenario_run.add_argument(
        "--seed", type=int, default=None, help="override the spec's seed"
    )
    scenario_run.add_argument(
        "--trace", default=None, metavar="DIR",
        help="write the sim-time flight recorder here (Chrome trace_event JSON "
             "+ JSONL + metrics snapshot); forces execution (no store hit)",
    )
    add_store_options(scenario_run)

    scenario_sweep = scenario_sub.add_parser(
        "sweep", help="run a suite of named scenarios across seeds (one summary row each)"
    )
    scenario_sweep.add_argument(
        "names", nargs="*", default=[],
        help="scenario names (default: the whole registry)",
    )
    scenario_sweep.add_argument(
        "--seeds", type=int, nargs="+", default=None,
        help="seeds to sweep (default: each spec's own seed)",
    )
    add_store_options(scenario_sweep)

    scenario_grid = scenario_sub.add_parser(
        "grid",
        help="expand a parameter grid (named or --spec JSON) and run every cell",
    )
    scenario_grid.add_argument(
        "name", nargs="?", default=None,
        help="grid registry name (default: deadline-tier-mix; omit when using --spec)",
    )
    scenario_grid.add_argument(
        "--spec", default=None, metavar="FILE",
        help="load a SweepSpec from a JSON file instead of the registry",
    )
    scenario_grid.add_argument(
        "--workers", type=int, default=1,
        help="worker processes for the cell fan-out (results are byte-identical "
             "for any worker count)",
    )
    scenario_grid.add_argument(
        "--report", default=None, metavar="DIR",
        help="write grid.csv/md, messaging_vs_analytic.csv/md and signatures.txt here",
    )
    scenario_grid.add_argument(
        "--list", action="store_true", dest="list_grids",
        help="list the named grid registry and exit",
    )
    scenario_grid.add_argument(
        "--resume", action="store_true",
        help="restart an interrupted grid: stored cells are reused, only "
             "missing cells execute (requires the results store)",
    )
    scenario_grid.add_argument(
        "--trace", default=None, metavar="DIR",
        help="write per-cell flight recorder files here (forces every cell "
             "to execute)",
    )
    add_store_options(scenario_grid)

    scenario_store = scenario_sub.add_parser(
        "store", help="inspect and maintain the content-addressed results store"
    )
    store_sub = scenario_store.add_subparsers(dest="store_command", required=True)

    store_ls = store_sub.add_parser("ls", help="list stored runs and recorded grids")
    store_ls.add_argument(
        "--scenario", default=None, help="only runs of this scenario name"
    )
    add_store_options(store_ls)

    store_show = store_sub.add_parser(
        "show", help="show one stored run (hash prefix + --seed) or grid (hash/name)"
    )
    store_show.add_argument("prefix", help="spec-hash prefix, sweep-hash prefix, or grid name")
    store_show.add_argument(
        "--seed", type=int, default=None,
        help="look up a stored run at this seed (omit to look up a grid)",
    )
    add_store_options(store_show)

    store_gc = store_sub.add_parser(
        "gc", help="delete stored runs (and grids left unresolvable) by age/scenario"
    )
    store_gc.add_argument(
        "--older-than-days", type=float, default=None, metavar="DAYS",
        help="delete runs not used in the last DAYS days",
    )
    store_gc.add_argument("--scenario", default=None, help="delete runs of this scenario name")
    store_gc.add_argument("--all", action="store_true", dest="delete_all", help="empty the store")
    store_gc.add_argument(
        "--no-vacuum", action="store_true", help="skip the sqlite VACUUM after deleting"
    )
    add_store_options(store_gc)

    scenario_serve = scenario_sub.add_parser(
        "serve", help="serve stored runs/grids over HTTP (JSON API + heatmap dashboard)"
    )
    scenario_serve.add_argument("--host", default="127.0.0.1")
    scenario_serve.add_argument("--port", type=int, default=8765)
    scenario_serve.add_argument(
        "--verbose", action="store_true", help="log every request to stderr"
    )
    scenario_serve.add_argument(
        "--trace-dir", default=None, metavar="DIR",
        help="also serve flight-recorder files from DIR under /api/trace",
    )
    add_store_options(scenario_serve)

    scenario_trace = scenario_sub.add_parser(
        "trace",
        help="summarize a flight-recorder file (Chrome trace_event JSON or JSONL)",
    )
    scenario_trace.add_argument("file", help="a .trace.json or .trace.jsonl file")
    scenario_trace.add_argument(
        "--require-span", action="append", default=[], metavar="NAME",
        help="exit non-zero unless a complete span named NAME is present "
             "(repeatable; the CI obs-smoke assertion)",
    )

    scenario_schema = scenario_sub.add_parser(
        "schema",
        help="print the generated ScenarioSpec/SweepSpec field reference (markdown)",
    )
    scenario_schema.add_argument(
        "--check", default=None, metavar="FILE",
        help="compare the generated reference against FILE and fail on drift "
             "(the CI docs-check mode)",
    )
    return parser


def _cmd_fig7(args: argparse.Namespace) -> int:
    from repro.experiments.fig7_accuracy import Fig7Config, run_fig7

    result = run_fig7(Fig7Config(fast=args.fast, seed=args.seed))
    print("Fig. 7 — accuracy convergence (offline vs SDFLMQ, 5 clients)\n")
    print(format_table(result.as_rows(), precision=2))
    print()
    print(format_series("offline_accuracy", result.offline_accuracy))
    print(format_series("sdfl_accuracy", result.sdfl_accuracy))
    return 0


def _cmd_fig8(args: argparse.Namespace) -> int:
    from repro.experiments.fig8_delay import Fig8Config, run_fig8

    result = run_fig8(Fig8Config(fast=args.fast, seed=args.seed))
    print("Fig. 8 — total processing delay of 10 FL rounds vs number of clients\n")
    print(format_table(result.as_rows(), precision=1))
    return 0


def _cmd_ablation(args: argparse.Namespace) -> int:
    from repro.experiments import ablations

    rows = getattr(ablations, ABLATIONS[args.name])()
    print(f"Ablation: {args.name}\n")
    printable = [
        {k: v for k, v in row.items() if not isinstance(v, dict)} for row in rows
    ]
    print(format_table(printable, precision=3))
    return 0


def _cmd_list(_args: argparse.Namespace) -> int:
    print("Available ablations:")
    for name in sorted(ABLATIONS):
        print(f"  {name}")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    from repro.runtime.experiment import ExperimentConfig, FLExperiment

    config = ExperimentConfig(
        name="cli-run",
        num_clients=args.clients,
        fl_rounds=args.rounds,
        local_epochs=args.epochs,
        dataset_samples=args.dataset_samples,
        client_data_fraction=args.client_fraction,
        partition=args.partition,
        dirichlet_alpha=args.dirichlet_alpha,
        clustering_policy=args.policy,
        aggregator_fraction=args.aggregator_fraction,
        aggregation=args.aggregation,
        role_policy=args.role_policy,
        num_regions=args.regions,
        device_tier=args.device_tier,
        heterogeneous_devices=args.heterogeneous,
        train_for_real=not args.no_train,
        seed=args.seed,
    )
    result = FLExperiment(config).run()
    print(f"SDFLMQ experiment: {args.clients} clients, {args.rounds} rounds, "
          f"{args.policy} clustering, {args.aggregation} aggregation\n")
    print(format_table(result.as_rows(), precision=4))
    print()
    print(f"final accuracy      : {result.final_accuracy:.4f}")
    print(f"total delay (sim)   : {result.total_delay_s:.2f} s")
    print(f"total traffic       : {result.total_traffic_bytes / 1024:.1f} KiB")
    print(f"messages routed     : {result.total_messages}")
    print(f"role changes        : {result.role_changes_total}")
    return 0


def _store_path(args: argparse.Namespace) -> Optional[str]:
    """The results-store path the command should use (None = store disabled)."""
    if getattr(args, "no_store", False):
        return None
    if args.store is not None:
        return args.store
    from repro.scenarios.store import default_store_path

    return default_store_path()


def _make_runner(args: argparse.Namespace) -> ScenarioRunner:
    """A runner wired to the selected results store (owned by the runner)."""
    from repro.scenarios.runner import ScenarioRunner

    return ScenarioRunner(store=_store_path(args))


def _logger(name: str, **context: object):
    """``repro.obs.log.get_logger``, imported by the verbs that log."""
    from repro.obs.log import get_logger

    return get_logger(name, **context)


def _log_store_status(runner: ScenarioRunner, result) -> None:
    """One structured stderr line on cache behaviour.

    Context fields (scenario/grid, seed, workers) are *prefixed* by the
    ``repro.obs.log`` adapter, so the ``store: …`` message text stays a
    fixed substring (the CI store-smoke greps it) and stdout stays
    byte-stable for cached-run comparisons.
    """
    if runner.store is None:
        return
    if hasattr(result, "cached_cells"):
        log = _logger(
            "repro.scenario.grid", grid=result.sweep.name, workers=result.workers
        )
        log.info(
            f"store: {result.cached_cells} cached, {result.executed_cells} executed "
            f"({runner.store.path})"
        )
    else:
        log = _logger(
            "repro.scenario.run", scenario=result.spec.name, seed=result.seed
        )
        status = "hit" if result.from_store else "miss (stored)"
        log.info(f"store: {status} ({runner.store.path})")


def _load_spec_file(args: argparse.Namespace, from_dict: Callable[[object], _Spec]) -> _Spec:
    """The validated spec behind ``--spec FILE`` (``scenario run`` and ``grid``)."""
    from repro.scenarios.spec import ScenarioSpecError

    if args.name is not None:
        raise _UsageError(
            f"give a registry name or --spec FILE, not both "
            f"(got {args.name!r} and --spec {args.spec})"
        )
    try:
        with open(args.spec, "r", encoding="utf-8") as handle:
            return from_dict(json.load(handle))
    except OSError as exc:
        raise _UsageError(f"cannot read spec file {args.spec}: {exc.strerror}") from exc
    except json.JSONDecodeError as exc:
        raise _UsageError(f"{args.spec} is not valid JSON: {exc}") from exc
    except ScenarioSpecError as exc:
        raise _UsageError(f"{args.spec} is not a valid spec: {exc}") from exc


def _cmd_scenario_grid(args: argparse.Namespace) -> int:
    from repro.scenarios.sweep import SweepSpec, grid_names, grid_summaries

    if args.list_grids:
        print("Named grids (python -m repro scenario grid <name>):\n")
        print(format_table(grid_summaries(), precision=2))
        return 0
    if args.spec is not None:
        grid = _load_spec_file(args, SweepSpec.from_dict)
    else:
        grid = args.name if args.name is not None else "deadline-tier-mix"
        if grid not in grid_names():
            print(
                f"unknown grid {grid!r}; available: {', '.join(grid_names())}",
                file=sys.stderr,
            )
            return 2

    if args.resume and _store_path(args) is None:
        print("--resume needs the results store (drop --no-store)", file=sys.stderr)
        return 2

    runner = _make_runner(args)
    try:
        result = runner.run_grid(grid, workers=args.workers, trace_dir=args.trace)
        _log_store_status(runner, result)
        if args.trace is not None:
            _logger("repro.scenario.grid", grid=result.sweep.name).info(
                f"trace: wrote {len(result.cells)} cell flight recorder(s) to {args.trace}"
            )
    finally:
        runner.close()
    sweep = result.sweep
    print(
        f"Grid: {sweep.name} — {len(result.cells)} cell(s) over "
        f"{' x '.join(sweep.axis_paths)}, {result.workers} worker(s), "
        f"{result.elapsed_s:.2f} s wall"
        + (f" ({sweep.duplicates_collapsed} duplicate cell(s) collapsed)"
           if sweep.duplicates_collapsed else "")
        + "\n"
    )
    print(runner.format_grid(result))
    print()
    print("messaging_s (observed makespan) vs total_s (analytic critical path):\n")
    print(runner.format_comparison(result))
    if result.seed_aggregate_rows():
        print()
        print("per-cell mean/stddev across the seed axis:\n")
        print(runner.format_seed_aggregate(result))
    if args.report is not None:
        paths = result.write_report(args.report)
        print()
        for name in sorted(paths):
            print(f"wrote {paths[name]}")
    return 0


def _cmd_scenario_schema(args: argparse.Namespace) -> int:
    from repro.scenarios.schema import schema_markdown

    generated = schema_markdown()
    if args.check is None:
        print(generated, end="")
        return 0
    with open(args.check, "r", encoding="utf-8") as handle:
        committed = handle.read()
    if committed != generated:
        print(
            f"{args.check} is out of date; regenerate it with\n"
            f"  PYTHONPATH=src python -m repro scenario schema > {args.check}",
            file=sys.stderr,
        )
        return 1
    print(f"{args.check} is in sync with the dataclasses")
    return 0


def _open_store(args: argparse.Namespace) -> Optional[ResultsStore]:
    """Open the selected store for the maintenance verbs (None = disabled)."""
    path = _store_path(args)
    if path is None:
        print("this command needs the results store (drop --no-store)", file=sys.stderr)
        return None
    from repro.scenarios.store import ResultsStore

    return ResultsStore(path)


def _cmd_scenario_store(args: argparse.Namespace) -> int:
    from repro.scenarios.store import ResultsStoreError

    store = _open_store(args)
    if store is None:
        return 2
    try:
        if args.store_command == "ls":
            stats = store.stats()
            runs = store.runs(scenario=args.scenario)
            print(
                f"Results store {stats['path']} — {stats['runs']} run(s), "
                f"{stats['grids']} grid(s), {stats['total_hits']} hit(s), "
                f"{stats['size_bytes'] / 1024:.1f} KiB\n"
            )
            print(format_table([run.row() for run in runs], precision=4)
                  if runs else "(no stored runs)")
            grids = store.grids()
            print()
            print(format_table([grid.row() for grid in grids], precision=4)
                  if grids else "(no recorded grids)")
            return 0
        if args.store_command == "show":
            if args.seed is not None:
                run = store.resolve_run(args.prefix, seed=args.seed)
                document = {
                    "spec_hash": run.spec_hash,
                    "seed": run.seed,
                    "scenario": run.scenario,
                    "signature": run.signature,
                    "spec": store.run_spec(run.spec_hash, run.seed),
                    "payload": run.payload,
                }
            else:
                grid = store.resolve_grid(args.prefix)
                document = {
                    "sweep_hash": grid.sweep_hash,
                    "name": grid.name,
                    "axes": grid.axes,
                    "cells": grid.cells,
                }
            print(json.dumps(document, indent=2, sort_keys=True))
            return 0
        # gc
        removed = store.gc(
            older_than_s=(
                args.older_than_days * 86400.0
                if args.older_than_days is not None else None
            ),
            scenario=args.scenario,
            delete_all=args.delete_all,
            vacuum=not args.no_vacuum,
        )
        print(f"gc: removed {removed['runs']} run(s), {removed['grids']} grid(s)")
        return 0
    except ResultsStoreError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    finally:
        store.close()


def _cmd_scenario_serve(args: argparse.Namespace) -> int:
    from repro.scenarios.serve import serve_forever

    store = _open_store(args)
    if store is None:
        return 2
    try:
        stats = store.stats()
        _logger("repro.scenario.serve", host=args.host, port=args.port).info(
            f"serving {stats['runs']} run(s) / {stats['grids']} grid(s) from "
            f"{stats['path']} on http://{args.host}:{args.port}/ (Ctrl-C to stop)"
        )
        serve_forever(
            store,
            host=args.host,
            port=args.port,
            verbose=args.verbose,
            trace_dir=args.trace_dir,
        )
        return 0
    finally:
        store.close()


def _cmd_scenario_trace(args: argparse.Namespace) -> int:
    from repro.obs.tools import summarize_trace, trace_summary_rows

    try:
        summary = summarize_trace(args.file)
    except (OSError, ValueError) as exc:
        print(f"cannot read trace {args.file!r}: {exc}", file=sys.stderr)
        return 2
    print(
        f"Trace: {args.file} — {summary['events']} event(s), "
        f"{summary['spans']} span(s), {summary['instants']} instant(s), "
        f"{summary['anomalies']} anomaly marker(s)\n"
    )
    rows = trace_summary_rows(summary)
    print(format_table(rows, precision=4) if rows else "(no events)")
    missing = [
        name for name in args.require_span if name not in summary["span_names"]
    ]
    if missing:
        print(f"missing required span(s): {', '.join(missing)}", file=sys.stderr)
        return 1
    return 0


def _cmd_scenario(args: argparse.Namespace) -> int:
    from repro.scenarios.registry import scenario_names, scenario_summaries

    if args.scenario_command == "list":
        print("Named scenarios (python -m repro scenario run <name>):\n")
        print(format_table(scenario_summaries(), precision=2))
        return 0
    if args.scenario_command == "grid":
        return _cmd_scenario_grid(args)
    if args.scenario_command == "schema":
        return _cmd_scenario_schema(args)
    if args.scenario_command == "store":
        return _cmd_scenario_store(args)
    if args.scenario_command == "serve":
        return _cmd_scenario_serve(args)
    if args.scenario_command == "trace":
        return _cmd_scenario_trace(args)

    runner = _make_runner(args)
    try:
        if args.scenario_command == "run":
            if args.spec is not None:
                from repro.scenarios.spec import ScenarioSpec

                spec = _load_spec_file(args, ScenarioSpec.from_dict)
            elif args.name is not None:
                if args.name not in scenario_names():
                    print(
                        f"unknown scenario {args.name!r}; "
                        f"available: {', '.join(scenario_names())}",
                        file=sys.stderr,
                    )
                    return 2
                spec = args.name
            else:
                print("scenario run needs a name or --spec FILE", file=sys.stderr)
                return 2
            result = runner.run(spec, seed=args.seed, trace_dir=args.trace)
            _log_store_status(runner, result)
            if args.trace is not None:
                _logger(
                    "repro.scenario.run",
                    scenario=result.spec.name,
                    seed=result.seed,
                ).info(f"trace: wrote flight recorder to {args.trace}")
            print(f"Scenario: {result.spec.name} (seed {result.seed}) — "
                  f"{result.spec.description}\n")
            print(runner.format_rounds(result))
            print()
            print(runner.format_summary([result]))
            # The full determinism fingerprint, printed identically whether
            # the run was fresh or store-served.
            print()
            print(f"signature: {result.signature}")
            return 0

        # sweep
        names = args.names or scenario_names()
        unknown = [n for n in names if n not in scenario_names()]
        if unknown:
            print(f"unknown scenario(s): {', '.join(unknown)}; "
                  f"available: {', '.join(scenario_names())}", file=sys.stderr)
            return 2
        results = runner.run_suite(names, seeds=args.seeds)
        print(f"Scenario sweep: {len(results)} run(s)\n")
        print(runner.format_summary(results))
        return 0
    finally:
        runner.close()


_COMMANDS = {
    "fig7": _cmd_fig7,
    "fig8": _cmd_fig8,
    "ablation": _cmd_ablation,
    "list": _cmd_list,
    "run": _cmd_run,
    "scenario": _cmd_scenario,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except _UsageError as error:
        print(error, file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover - exercised via __main__.py
    sys.exit(main())
