#!/usr/bin/env python3
"""List the functions in ``src/repro`` that no user command enters.

Usage::

    python tools/reach.py

Each command of :func:`chains` runs in its own child process (two at a
time) under a ``sys.setprofile`` hook that records every code object
entered; forked grid workers inherit the hook.  Every process writes
``<pid>.json`` as it leaves, through ``os._exit`` as well: ``python -m
repro`` and pool workers leave that way, so ``atexit`` alone would miss
them.  The merge step prints each function defined under ``src/repro`` that
no process entered, by module with its line count, and exits 1 when there
are more than :data:`BUDGET`.  Only the standard library and the
repository's own dependencies are needed.
"""

from __future__ import annotations

import ast
import atexit
import glob
import json
import os
import re
import runpy
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from typing import Dict, List, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
PACKAGE = os.path.join(SRC, "repro")

#: Never-entered functions allowed; each is named in CHANGES.md as kept on purpose.
BUDGET = 40

#: Commands probed at once (grid commands add two pool workers of their own).
JOBS = 2


def install(outdir: str, prefix: str) -> None:
    """Record every code object under ``prefix`` that this process (or a fork) enters."""
    seen = set()

    def hook(frame, event, arg):
        if event == "call":
            seen.add(frame.f_code)

    def dump() -> None:
        sys.setprofile(None)
        entered = sorted({(c.co_filename, c.co_firstlineno, c.co_name) for c in list(seen)
                          if c.co_filename.startswith(prefix)})
        with open(os.path.join(outdir, f"{os.getpid()}.json"), "w") as handle:
            json.dump(entered, handle)

    real_exit = os._exit

    def exit_after_dump(code: int) -> None:
        dump()
        real_exit(code)

    os._exit = exit_after_dump
    atexit.register(dump)
    sys.setprofile(hook)


def defined(prefix: str) -> Dict[Tuple[str, int], Tuple[str, int]]:
    """``(file, first line) -> (qualified name, line count)`` for every def under ``prefix``."""
    found = {}

    def visit(node, path, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                found[(path, first)] = (scope + child.name, child.end_lineno - first + 1)
                visit(child, path, scope + child.name + ".<locals>.")
            elif isinstance(child, ast.ClassDef):
                visit(child, path, scope + child.name + ".")
            else:
                visit(child, path, scope)

    for path in sorted(glob.glob(os.path.join(prefix, "**", "*.py"), recursive=True)):
        with open(path, encoding="utf-8") as handle:
            visit(ast.parse(handle.read()), path, "")
    return found


def never_entered(outdir: str, prefix: str) -> List[Tuple[str, int, str, int]]:
    """``(file, line, name, lines)`` of each def under ``prefix`` that no dump entered."""
    entered = set()
    for path in glob.glob(os.path.join(outdir, "*.json")):
        with open(path) as handle:
            entered.update(tuple(entry) for entry in json.load(handle))
    return [(path, line, name, lines)
            for (path, line), (name, lines) in sorted(defined(prefix).items())
            if (path, line, name.rsplit(".", 1)[-1]) not in entered]


def child(outdir: str, argv: List[str]) -> None:
    install(outdir, PACKAGE)
    sys.path.insert(0, SRC)
    sys.argv = argv[1:] if argv[0] == "-m" else argv
    try:
        if argv[0] == "-m":
            runpy.run_module(argv[1], run_name="__main__", alter_sys=True)
        else:
            runpy.run_path(argv[0], run_name="__main__")
    except SystemExit as stop:
        if stop.code:
            raise


#: Spec files for ``scenario run --spec``: custom runs reaching what no registry
#: scenario does (FedAvgM, the random role policy, shard partitioning, an
#: untrained run on a tier-mixed fleet under central clustering).
CUSTOM_RUNS = {
    "fedavgm-random.json": {
        "name": "fedavgm-random", "seed": 9,
        "fleet": {"num_clients": 6},
        "topology": {"regions": 2, "role_policy": "random"},
        "training": {"rounds": 2, "local_epochs": 3, "dataset_samples": 600,
                     "client_data_fraction": 0.02, "aggregation": "fedavgm",
                     "round_deadline_s": None},
    },
    "central-shard.json": {
        "name": "central-shard",
        "fleet": {"num_clients": 6,
                  "tier_mix": {"laptop": 0.35, "phone": 0.40, "rpi": 0.20, "server": 0.05}},
        "topology": {"clustering": "central"},
        "training": {"rounds": 2, "local_epochs": 3, "dataset_samples": 4000,
                     "client_data_fraction": 0.02, "partition": "shard",
                     "train_for_real": False, "round_deadline_s": None},
    },
}


def chains(work: str) -> List[Tuple[str, List[List[str]]]]:
    """``(cwd, commands)`` pairs; the commands of one pair run in order."""
    sys.path[:0] = [SRC, os.path.join(ROOT, "benchmarks", "e2e")]
    from workloads import WORKLOADS, build

    from repro.cli import ABLATIONS

    repro = ["-m", "repro"]
    result = []
    os.makedirs(os.path.join(work, "specs"))
    for name in WORKLOADS:
        workload = build(name, 42)
        for file, text in workload.files.items():
            with open(os.path.join(work, "specs", file), "w") as handle:
                handle.write(text)
        commands = [repro + list(command.argv) for command in workload.commands]
        groups = [commands] if name == "grid-cold-warm" else [[command] for command in commands]
        result += [(os.path.join(work, name), group) for group in groups]
    result.append((work, [repro + ["list"]]))
    result += [(work, [repro + ["ablation", name]]) for name in ABLATIONS]
    for file, spec in CUSTOM_RUNS.items():
        path = os.path.join(work, "specs", file)
        with open(path, "w") as handle:
            json.dump(spec, handle)
        result.append((work, [repro + ["scenario", "run", "--spec", path, "--no-store"]]))
    result += [(work, [repro + ["scenario", "schema", "--check",
                                os.path.join(ROOT, "docs", "scenario-spec.md")]]),
               (work, [repro + ["scenario", "sweep", "baseline", "--seeds", "1", "--no-store"]])]
    store = ["--store", "s"]
    smoke = os.path.join(ROOT, "tests", "data", "grid_smoke.json")
    grid = repro + ["scenario", "grid", "--spec", smoke, "--workers", "2"] + store
    result.append((os.path.join(work, "store"), [
        grid + ["--report", "report"], grid + ["--resume"], grid + ["--trace", "cells"],
        repro + ["scenario", "run", "heavy-churn", "--seed", "7", "--trace", "trace"] + store,
        repro + ["scenario", "run", "heavy-churn", "--seed", "7"],
        repro + ["scenario", "trace", "trace/heavy-churn_7.trace.json",
                 "--require-span", "collecting"],
        repro + ["scenario", "store", "ls"] + store,
        repro + ["scenario", "store", "show", "{run}", "--seed", "7"] + store,
        repro + ["scenario", "store", "show", "grid-smoke"] + store,
        repro + ["scenario", "store", "gc", "--scenario", "heavy-churn"] + store,
        repro + ["scenario", "store", "gc", "--all"] + store]))
    examples = sorted(glob.glob(os.path.join(ROOT, "examples", "*.py")))
    result += [(work, [[path]]) for path in examples]
    return result


def run_chain(outdir: str, cwd: str, commands: List[List[str]]) -> None:
    os.makedirs(cwd, exist_ok=True)
    env = dict(os.environ, REPRO_STORE=os.path.join(cwd, "s"))
    stdout = ""
    for argv in commands:
        found = re.search(r"^([0-9a-f]{12})\s+7\s+heavy-churn\b", stdout, re.MULTILINE)
        argv = [arg.replace("{run}", found.group(1) if found else "") for arg in argv]
        done = subprocess.run([sys.executable, os.path.abspath(__file__), "--child", outdir, *argv],
                              cwd=cwd, capture_output=True, text=True, env=env)
        if done.returncode:
            raise RuntimeError(f"{' '.join(argv)} exited {done.returncode}:\n{done.stderr[-2000:]}")
        stdout = done.stdout


def main() -> int:
    if sys.argv[1:2] == ["--child"]:
        child(sys.argv[2], sys.argv[3:])
        return 0
    with tempfile.TemporaryDirectory() as work:
        outdir = os.path.join(work, "profiles")
        os.makedirs(outdir)
        with ThreadPoolExecutor(JOBS) as pool:
            for future in [pool.submit(run_chain, outdir, *chain) for chain in chains(work)]:
                future.result()
        missed = never_entered(outdir, PACKAGE)
    total = len(defined(PACKAGE))
    module = None
    for path, line, name, lines in missed:
        if path != module:
            module = path
            print(os.path.relpath(path, ROOT))
        print(f"  {line:5d}  {name}  ({lines} lines)")
    print(f"never entered: {len(missed)} of {total} functions, "
          f"{sum(entry[3] for entry in missed)} lines (budget {BUDGET})")
    return 1 if len(missed) > BUDGET else 0


if __name__ == "__main__":
    sys.exit(main())
