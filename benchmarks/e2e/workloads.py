"""The four workloads: inputs generated from the seed, the commands a user
types, and the checks on what those commands print and write.

Nothing here measures anything; ``run.py`` does.  A workload is a set of
generated input files plus an ordered list of ``python -m repro …`` commands.
Every command runs with a per-pass directory as its cwd, so paths in ``argv``
are relative: generated specs live in ``../specs/``, a grid's store and report
bundles inside the pass directory itself (each pass starts from a cold store).
"""

from __future__ import annotations

import hashlib
import json
import os
import re
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

__all__ = [
    "Command",
    "DEFAULT_SEED",
    "FLEET_CLIENTS",
    "Sample",
    "WORKLOADS",
    "Workload",
    "build",
    "fingerprint",
    "verify",
]

#: The seed the named grids and their committed goldens use.
DEFAULT_SEED = 42

#: Pinned (not read from the registry) so the benchmark stays the same program
#: of commands when a later PR registers another scenario.
REGISTRY_SCENARIOS = (
    "baseline",
    "bridged-multi-region",
    "degraded-wan",
    "degraded-wan-int8",
    "flash-crowd",
    "heavy-churn",
    "mid-round-flash-crowd",
    "round2-blackout",
    "straggler-heavy",
)

#: grid name → committed golden ``signatures.txt`` (relative to the repo root),
#: compared at :data:`DEFAULT_SEED` and read at run time so a PR that
#: regenerates goldens stays in sync.
GRIDS: Dict[str, Optional[str]] = {
    "deadline-tier-mix": "tests/data/deadline_tier_mix_signatures.txt",
    "wan-fleet-size": None,
    "codec-compare": "tests/data/codec_compare_signatures.txt",
}

#: Fleet size of the generated specs.  Any spec with >= 58 clients currently
#: dies in ``mqtt/network.py`` ``TrafficLog.add`` (index 256 out of bounds);
#: 48 clients with ``role_policy="static"`` stays below the limit.
FLEET_CLIENTS = 48

#: Why each was chosen is recorded in ``BENCHMARK.json`` and the README.
WORKLOADS = ("registry-cli", "grid-cold-warm", "fleet-wire", "fleet-control")


@dataclass(frozen=True)
class Command:
    """One ``python -m repro <argv>`` invocation and what must repeat about it.

    ``check`` selects the :func:`fingerprint`: ``signature`` (the printed run
    signature), ``stdout`` (all of stdout), ``report`` (the bundle written to
    ``report``) or ``store`` (the run/grid counts of ``store ls``).
    """

    label: str
    argv: Tuple[str, ...]
    check: str = "stdout"
    report: str = ""
    grid: str = ""
    warm: bool = False


@dataclass(frozen=True)
class Workload:
    name: str
    seed: int
    files: Dict[str, str]
    commands: Tuple[Command, ...]


@dataclass
class Sample:
    """One finished command: where it ran, what it cost, what it printed."""

    pass_dir: str
    returncode: int
    stdout: str
    stderr: str
    wall_s: float = 0.0
    cpu_s: float = 0.0
    rss_mb: float = 0.0


# --------------------------------------------------------------- generators


def _dump(document: Dict[str, object]) -> str:
    # Insertion order, not sort_keys: a sweep's axis order decides its cell order.
    return json.dumps(document, indent=1) + "\n"


def _fleet_spec(name: str, seed: int, regions: int, **training: object) -> str:
    recipe: Dict[str, object] = {"round_deadline_s": None}
    recipe.update(training)
    return _dump(
        {
            "name": name,
            "description": f"generated by benchmarks/e2e (seed {seed})",
            "seed": seed,
            "fleet": {"num_clients": FLEET_CLIENTS},
            "topology": {"regions": regions, "role_policy": "static"},
            "training": recipe,
        }
    )


def _grid_spec(name: str, seed: int) -> str:
    """The registry grid as a sweep JSON, re-based on ``seed``.

    At :data:`DEFAULT_SEED` this is the registry grid itself (same cells,
    same signatures as the goldens); at any other seed the base seed and a
    ``seed`` axis, if the grid has one, move by the same offset.
    """
    from repro.scenarios.sweep import get_grid

    document = get_grid(name).as_dict()
    base = document["base"]
    offset = seed - int(base["seed"])
    base["seed"] = seed
    axes = document["axes"]
    if "seed" in axes:
        axes["seed"] = [int(value) + offset for value in axes["seed"]]
    return _dump(document)


def _run(name: str, seed: int, spec: str = "") -> Command:
    target = ("--spec", f"../specs/{spec}") if spec else (name,)
    return Command(
        label=f"run.{name}",
        argv=("scenario", "run", *target, "--seed", str(seed), "--no-store"),
        check="signature",
    )


def build(name: str, seed: int) -> Workload:
    """The workload ``name`` with every input derived from ``seed``."""
    files: Dict[str, str] = {}
    commands: List[Command]
    if name == "registry-cli":
        commands = [Command("list", ("scenario", "list"))]
        commands += [_run(scenario, seed) for scenario in REGISTRY_SCENARIOS]
        commands += [
            Command(fig, (fig, "--fast", "--seed", str(seed))) for fig in ("fig7", "fig8")
        ]
    elif name == "grid-cold-warm":
        commands = []
        for phase, warm in (("cold", False), ("warm", True)):
            for grid in GRIDS:
                report = f"{phase}/{grid}"
                commands.append(
                    Command(
                        label=f"grid-{phase}.{grid}",
                        argv=(
                            "scenario", "grid", "--spec", f"../specs/{grid}.json",
                            "--workers", "2", "--store", "store/results.sqlite",
                            "--report", report,
                        ),
                        check="report",
                        report=report,
                        grid=grid,
                        warm=warm,
                    )
                )
        commands.append(
            Command(
                "store-ls",
                ("scenario", "store", "ls", "--store", "store/results.sqlite"),
                check="store",
            )
        )
        files = {f"{grid}.json": _grid_spec(grid, seed) for grid in GRIDS}
    elif name == "fleet-wire":
        wire = dict(rounds=10, train_for_real=True, compression_enabled=True)
        files = {
            "fleet-wire-f32.json": _fleet_spec(
                "fleet-wire-f32", seed, 1, update_codec="none", **wire
            ),
            "fleet-wire-int8.json": _fleet_spec(
                "fleet-wire-int8", seed, 1, update_codec="int8", **wire
            ),
        }
        commands = [
            _run("fleet-wire-f32", seed, "fleet-wire-f32.json"),
            _run("fleet-wire-int8", seed, "fleet-wire-int8.json"),
        ]
    elif name == "fleet-control":
        files = {
            "fleet-control.json": _fleet_spec(
                "fleet-control", seed, 3,
                rounds=30, train_for_real=False, compression_enabled=False,
            )
        }
        commands = [_run("fleet-control", seed, "fleet-control.json")]
    else:
        raise KeyError(f"unknown workload {name!r}; options: {', '.join(WORKLOADS)}")
    return Workload(name=name, seed=seed, files=files, commands=tuple(commands))


# ------------------------------------------------------------------- checks


def _report_digest(directory: str) -> Optional[str]:
    if not os.path.isdir(directory):
        return None
    digest = hashlib.sha256()
    for entry in sorted(os.listdir(directory)):
        digest.update(entry.encode() + b"\0")
        with open(os.path.join(directory, entry), "rb") as handle:
            digest.update(handle.read())
    return digest.hexdigest()


def fingerprint(command: Command, sample: Sample) -> Optional[str]:
    """What must be identical across every sample of ``command`` (None = absent)."""
    if command.check == "signature":
        match = re.search(r"^signature: ([0-9a-f]{64})$", sample.stdout, re.MULTILINE)
        return match.group(1) if match else None
    if command.check == "report":
        return _report_digest(os.path.join(sample.pass_dir, command.report))
    if command.check == "store":
        match = re.search(r"(\d+ run\(s\), \d+ grid\(s\))", sample.stdout)
        return match.group(1) if match else None
    return hashlib.sha256(sample.stdout.encode()).hexdigest() if sample.stdout else None


def verify(
    workload: Workload, passes: Sequence[Dict[str, Sample]], repo_root: str
) -> List[Tuple[str, bool]]:
    """Every output check as ``(description, passed)``; each is one operation.

    ``passes`` holds one ``{label: Sample}`` mapping per pass.  Checked: every
    command's fingerprint is present and repeats across passes; a warm grid
    executes nothing and renders the cold bundle byte for byte; ``store ls``
    sees all three grids; at the default seed the cold ``signatures.txt``
    equals the committed golden.
    """
    checks: List[Tuple[str, bool]] = []
    for command in workload.commands:
        prints = {fingerprint(command, samples[command.label]) for samples in passes}
        checks.append((f"{command.label}: {command.check} repeats", len(prints) == 1 and None not in prints))
    cold = {c.grid: c for c in workload.commands if c.grid and not c.warm}
    for index, samples in enumerate(passes):
        for command in workload.commands:
            sample = samples[command.label]
            if command.warm:
                checks.append(
                    (f"{command.label} pass {index}: 0 executed", ", 0 executed" in sample.stderr)
                )
                checks.append(
                    (
                        f"{command.label} pass {index}: bundle equals cold",
                        fingerprint(command, sample)
                        == fingerprint(cold[command.grid], samples[cold[command.grid].label]),
                    )
                )
            if command.check == "store":
                checks.append(
                    (f"{command.label} pass {index}: {len(GRIDS)} grids", f"{len(GRIDS)} grid(s)" in sample.stdout)
                )
    if workload.seed == DEFAULT_SEED:
        for grid, command in cold.items():
            golden = GRIDS[grid] and os.path.join(repo_root, GRIDS[grid])
            if not golden or not os.path.isfile(golden):
                continue
            written = os.path.join(passes[0][command.label].pass_dir, command.report, "signatures.txt")
            checks.append((f"{command.label}: signatures equal {GRIDS[grid]}", _same_file(written, golden)))
    return checks


def _same_file(first: str, second: str) -> bool:
    try:
        with open(first, "rb") as a, open(second, "rb") as b:
            return a.read() == b.read()
    except OSError:
        return False
