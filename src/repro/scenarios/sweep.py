"""Parameter-grid sweeps expanded from a base scenario spec.

PR 2's ``scenario sweep`` only varied seeds; this module sweeps the spec
*parameters* themselves.  A :class:`SweepSpec` names a base
:class:`~repro.scenarios.spec.ScenarioSpec` (inline or from the registry)
plus one :class:`AxisSpec` per swept parameter — a dotted path into the
spec's nested dict form (``training.round_deadline_s``, ``fleet.tier_mix``,
``network.wan_scale``, ``faults.0.factor``, ``seed`` …) and the values that
axis takes.  Expanding the spec walks the cartesian product of all axes and
builds one fully validated ``ScenarioSpec`` per combination, each wrapped in
a :class:`GridCell` carrying its grid coordinates as metadata.

Like ``ScenarioSpec`` itself, validation is eager and loud: empty axes,
duplicate axis paths, dotted paths that do not resolve inside the spec tree
and cell overrides that fail spec validation all raise
:class:`~repro.scenarios.spec.ScenarioSpecError` at construction time —
before a single experiment starts.  Cells whose overrides collapse to the
same concrete spec are deduplicated (the first combination wins), so a grid
never runs the same simulation twice.

Execution lives in :meth:`repro.scenarios.runner.ScenarioRunner.run_grid`,
which fans the cells out over a worker pool; reporting lives in
:mod:`repro.experiments.report`.

Example
-------
>>> from repro.scenarios import AxisSpec, ScenarioSpec, SweepSpec
>>> sweep = SweepSpec(
...     name="deadline-sweep",
...     base=ScenarioSpec(name="base"),
...     axes=(
...         AxisSpec("training.round_deadline_s", (1.0, 5.0)),
...         AxisSpec("seed", (1, 2)),
...     ),
... )
>>> [cell.coordinates for cell in sweep.cells()]  # doctest: +ELLIPSIS
[{'training.round_deadline_s': 1.0, 'seed': 1}, ...]
>>> len(sweep.cells())
4
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Tuple

from repro.scenarios.registry import get_scenario
from repro.scenarios.spec import (
    FleetSpec,
    NetworkSpec,
    ScenarioSpec,
    ScenarioSpecError,
    TrainingSpec,
)

__all__ = [
    "AxisSpec",
    "GridCell",
    "SweepSpec",
    "apply_override",
    "get_grid",
    "grid_names",
    "grid_summaries",
    "register_grid",
]


def apply_override(tree: Dict[str, object], path: str, value: object) -> None:
    """Set ``path`` (dotted) to ``value`` inside a spec's nested dict form.

    Path segments name dict keys or (for the ``churn``/``faults`` lists)
    integer indices; every intermediate node and the final key must already
    exist in the tree, so a typo'd path fails with
    :class:`ScenarioSpecError` instead of silently adding a field the spec
    loader would then reject with a less helpful message.  Open mappings
    such as ``fleet.tier_mix`` are overridden wholesale (assign a new dict
    to the ``fleet.tier_mix`` path) rather than key by key.
    """
    if not path or path.startswith(".") or path.endswith(".") or ".." in path:
        raise ScenarioSpecError(f"malformed axis path {path!r}")
    parts = path.split(".")
    node: object = tree
    walked: List[str] = []
    for part in parts[:-1]:
        node = _descend(node, part, walked, path)
        walked.append(part)
    leaf = parts[-1]
    if isinstance(node, list):
        index = _list_index(node, leaf, walked, path)
        node[index] = value
    elif isinstance(node, dict):
        if leaf not in node:
            raise ScenarioSpecError(
                f"axis path {path!r} does not resolve: "
                f"{'.'.join(walked) or 'the spec'} has no field {leaf!r} "
                f"(options: {sorted(map(str, node))})"
            )
        node[leaf] = value
    else:
        raise ScenarioSpecError(
            f"axis path {path!r} descends into {'.'.join(walked)!r}, "
            f"which is a {type(node).__name__}, not a mapping or list"
        )


def _descend(node: object, part: str, walked: List[str], path: str) -> object:
    if isinstance(node, list):
        return node[_list_index(node, part, walked, path)]
    if isinstance(node, dict):
        if part not in node:
            raise ScenarioSpecError(
                f"axis path {path!r} does not resolve: "
                f"{'.'.join(walked) or 'the spec'} has no field {part!r} "
                f"(options: {sorted(map(str, node))})"
            )
        return node[part]
    raise ScenarioSpecError(
        f"axis path {path!r} descends into {'.'.join(walked)!r}, "
        f"which is a {type(node).__name__}, not a mapping or list"
    )


def _list_index(node: list, part: str, walked: List[str], path: str) -> int:
    try:
        index = int(part)
    except ValueError:
        raise ScenarioSpecError(
            f"axis path {path!r}: {'.'.join(walked)!r} is a list and needs an "
            f"integer index, got {part!r}"
        ) from None
    if not 0 <= index < len(node):
        raise ScenarioSpecError(
            f"axis path {path!r}: index {index} out of range for "
            f"{'.'.join(walked)!r} (length {len(node)})"
        )
    return index


@dataclass(frozen=True)
class AxisSpec:
    """One swept parameter: a dotted path into the spec tree and its values.

    ``values`` are applied verbatim at ``path`` in the base spec's
    ``as_dict`` form, so they can be scalars, dicts (e.g. a whole
    ``tier_mix``) or lists — anything the spec loader accepts there.
    """

    path: str
    values: Tuple[object, ...]

    def __post_init__(self) -> None:
        if not isinstance(self.values, tuple):
            object.__setattr__(self, "values", tuple(self.values))
        if not self.path:
            raise ScenarioSpecError("axis path must be non-empty")
        if not self.values:
            raise ScenarioSpecError(f"axis {self.path!r} has no values")

    def as_dict(self) -> Dict[str, object]:
        """Plain-dict form (``{"path": ..., "values": [...]}``)."""
        return {"path": self.path, "values": list(self.values)}


@dataclass(frozen=True)
class GridCell:
    """One concrete grid point: a validated spec plus its coordinates.

    ``coordinates`` maps each axis path to the value this cell took on that
    axis, in axis-declaration order — the metadata every downstream metric
    row and report carries so a cell is identifiable without re-deriving it
    from the spec diff.
    """

    index: int
    coordinates: Dict[str, object]
    spec: ScenarioSpec

    def label(self) -> str:
        """Compact ``path=value`` rendering for tables and progress lines."""
        return ", ".join(f"{path}={_compact(value)}" for path, value in self.coordinates.items())


def _compact(value: object) -> str:
    """Render one coordinate value compactly (dicts/lists as minified JSON)."""
    if isinstance(value, (dict, list)):
        return json.dumps(value, sort_keys=True, separators=(",", ":"))
    return str(value)


@dataclass(frozen=True)
class SweepSpec:
    """A parameter grid: a base scenario plus axes of dotted-path overrides.

    Construction eagerly expands and validates every cell of the cartesian
    grid (bad paths and invalid override values surface immediately);
    :meth:`cells` returns the cached expansion.  Axis order is significant:
    the first axis varies slowest, exactly like nested loops, and cell
    indices follow that order deterministically.
    """

    name: str
    base: ScenarioSpec
    axes: Tuple[AxisSpec, ...]
    description: str = ""
    _cells: Tuple[GridCell, ...] = field(init=False, repr=False, compare=False)
    duplicates_collapsed: int = field(init=False, default=0, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.name:
            raise ScenarioSpecError("sweep name must be non-empty")
        if not isinstance(self.axes, tuple):
            object.__setattr__(self, "axes", tuple(self.axes))
        if not self.axes:
            raise ScenarioSpecError(f"sweep {self.name!r} needs at least one axis")
        paths = [axis.path for axis in self.axes]
        duplicates = sorted({p for p in paths if paths.count(p) > 1})
        if duplicates:
            raise ScenarioSpecError(f"duplicate axis path(s): {duplicates}")
        cells, collapsed = self._expand()
        object.__setattr__(self, "_cells", tuple(cells))
        object.__setattr__(self, "duplicates_collapsed", collapsed)

    # ------------------------------------------------------------- expansion

    def _expand(self) -> Tuple[List[GridCell], int]:
        import itertools

        cells: List[GridCell] = []
        seen: Dict[str, int] = {}
        collapsed = 0
        for combo in itertools.product(*(axis.values for axis in self.axes)):
            tree = self.base.as_dict()
            coordinates: Dict[str, object] = {}
            for axis, value in zip(self.axes, combo):
                apply_override(tree, axis.path, value)
                coordinates[axis.path] = value
            try:
                spec = ScenarioSpec.from_dict(tree)
            except ScenarioSpecError as exc:
                raise ScenarioSpecError(
                    f"grid cell {{{', '.join(f'{p}={_compact(v)}' for p, v in coordinates.items())}}}: {exc}"
                ) from exc
            key = json.dumps(spec.as_dict(), sort_keys=True)
            if key in seen:
                collapsed += 1
                continue
            seen[key] = len(cells)
            cells.append(GridCell(index=len(cells), coordinates=coordinates, spec=spec))
        return cells, collapsed

    def cells(self) -> List[GridCell]:
        """The expanded grid, deduplicated, in deterministic index order."""
        return list(self._cells)

    @property
    def axis_paths(self) -> List[str]:
        """The swept dotted paths, in axis-declaration order."""
        return [axis.path for axis in self.axes]

    # ------------------------------------------------------------- dict forms

    def as_dict(self) -> Dict[str, object]:
        """Nested plain-dict form, suitable for ``json.dump``."""
        return {
            "name": self.name,
            "description": self.description,
            "base": self.base.as_dict(),
            "axes": {axis.path: list(axis.values) for axis in self.axes},
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "SweepSpec":
        """Build and validate a sweep from a nested plain dict (JSON-loadable).

        ``base`` is either an inline scenario dict or a registered scenario
        name; ``axes`` maps dotted paths to value lists (insertion order is
        the axis order) or, equivalently, is a list of
        ``{"path": ..., "values": [...]}`` entries.
        """
        if not isinstance(data, Mapping):
            raise ScenarioSpecError(f"sweep spec must be a mapping, got {type(data).__name__}")
        unknown = set(data) - {"name", "description", "base", "axes"}
        if unknown:
            raise ScenarioSpecError(f"unknown sweep field(s): {sorted(unknown)}")
        if "name" not in data:
            raise ScenarioSpecError("sweep spec needs a 'name'")
        if "base" not in data:
            raise ScenarioSpecError("sweep spec needs a 'base' scenario (name or inline spec)")
        base_raw = data["base"]
        if isinstance(base_raw, str):
            try:
                base = get_scenario(base_raw)
            except KeyError as exc:
                raise ScenarioSpecError(str(exc.args[0])) from exc
        else:
            base = ScenarioSpec.from_dict(base_raw)  # type: ignore[arg-type]
        axes_raw = data.get("axes", {})
        if isinstance(axes_raw, Mapping):
            axes = tuple(AxisSpec(path=str(p), values=tuple(v)) for p, v in axes_raw.items())
        elif isinstance(axes_raw, (list, tuple)):
            axes = tuple(
                AxisSpec(path=str(e["path"]), values=tuple(e["values"]))  # type: ignore[index]
                for e in axes_raw
            )
        else:
            raise ScenarioSpecError(
                f"sweep axes must be a mapping or a list, got {type(axes_raw).__name__}"
            )
        return cls(
            name=str(data["name"]),
            description=str(data.get("description", "")),
            base=base,
            axes=axes,
        )


# ------------------------------------------------------------- grid registry

_GRID_BUILDERS: Dict[str, Callable[[], SweepSpec]] = {}
_GRIDS: Dict[str, SweepSpec] = {}  # built sweeps, by registered name


def register_grid(builder: Callable[[], SweepSpec], name: str = "") -> str:
    """Add a named grid to the registry; returns the registered name.

    Mirrors :func:`repro.scenarios.registry.register_scenario` (with
    ``name``, nothing is built until the first :func:`get_grid`), except the
    built sweep itself is cached: ``SweepSpec`` is frozen and expansion
    (validating every cell) is the expensive part, so the builder runs
    exactly once and every ``get_grid`` returns the same immutable value.
    """
    if name:
        _GRIDS.pop(name, None)
    else:
        sweep = builder()
        name = sweep.name
        _GRIDS[name] = sweep
    _GRID_BUILDERS[name] = builder
    return name


def grid_names() -> List[str]:
    """All registered grid names, sorted."""
    return sorted(_GRID_BUILDERS)


def get_grid(name: str) -> SweepSpec:
    """Return the sweep registered as ``name``; raises ``KeyError`` with the options.

    The returned value is shared and immutable; derive variants with
    ``dataclasses.replace`` rather than mutating it.
    """
    sweep = _GRIDS.get(name)
    if sweep is None:
        builder = _GRID_BUILDERS.get(name)
        if builder is None:
            raise KeyError(f"unknown grid {name!r}; available: {', '.join(grid_names())}")
        sweep = _GRIDS[name] = builder()
    return sweep


def grid_summaries() -> List[Dict[str, object]]:
    """One row per registered grid (the ``scenario grid --list`` table)."""
    rows: List[Dict[str, object]] = []
    for name in grid_names():
        sweep = get_grid(name)
        rows.append(
            {
                "name": name,
                "cells": len(sweep.cells()),
                "axes": " x ".join(sweep.axis_paths),
                "base": sweep.base.name,
                "description": sweep.description,
            }
        )
    return rows


# ------------------------------------------------------------------ built-ins


def _fast_base(name: str, **training_overrides) -> ScenarioSpec:
    """A small, CI-speed base scenario shared by the named grids."""
    training = dict(
        rounds=2,
        local_epochs=1,
        dataset_samples=400,
        client_data_fraction=0.05,
        round_deadline_s=5.0,
    )
    training.update(training_overrides)
    return ScenarioSpec(
        name=name,
        seed=42,
        fleet=FleetSpec(num_clients=6),
        training=TrainingSpec(**training),
    )


def _deadline_tier_mix() -> SweepSpec:
    return SweepSpec(
        name="deadline-tier-mix",
        description="round deadline x device-tier mix: who gets cut as deadlines tighten",
        base=_fast_base("deadline-tier-mix-base"),
        axes=(
            AxisSpec("training.round_deadline_s", (0.08, 1.0, 5.0, 30.0)),
            AxisSpec(
                "fleet.tier_mix",
                (
                    {"laptop": 1.0},
                    {"laptop": 0.5, "phone": 0.5},
                    {"laptop": 0.4, "phone": 0.4, "rpi": 0.2},
                ),
            ),
        ),
    )


def _wan_fleet_size() -> SweepSpec:
    base = dataclasses.replace(
        _fast_base("wan-fleet-size-base", round_deadline_s=120.0),
        network=NetworkSpec(),
    )
    return SweepSpec(
        name="wan-fleet-size",
        description="WAN degradation x fleet size: messaging makespan vs the analytic critical path",
        base=base,
        axes=(
            AxisSpec("network.wan_scale", (1.0, 8.0, 32.0)),
            AxisSpec("fleet.num_clients", (4, 6, 8, 10)),
        ),
    )


def _codec_compare() -> SweepSpec:
    return SweepSpec(
        name="codec-compare",
        description="update codec sweep: bytes on the wire vs final accuracy per codec",
        base=_fast_base("codec-compare-base"),
        axes=(
            AxisSpec(
                "training.update_codec",
                ("none", "fp16", "int8", "topk", "delta+int8"),
            ),
            AxisSpec("seed", (42, 47, 52)),
        ),
    )


register_grid(_deadline_tier_mix, name="deadline-tier-mix")
register_grid(_wan_fleet_size, name="wan-fleet-size")
register_grid(_codec_compare, name="codec-compare")
