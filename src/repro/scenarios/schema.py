"""Generated field reference for the scenario and sweep specifications.

``python -m repro scenario schema`` renders the full ``ScenarioSpec`` /
``SweepSpec`` field reference as markdown *from the dataclasses themselves*
— field names, annotated types and defaults are introspected, and each
section's prose is the class docstring — so ``docs/scenario-spec.md`` can
never drift from the code.  The CI ``docs-check`` job regenerates the
document and fails on any diff (``scenario schema --check``).
"""

from __future__ import annotations

import dataclasses
import inspect
from typing import List, Sequence, Tuple, Type

from repro.experiments.report import rows_to_markdown
from repro.scenarios.registry import scenario_summaries
from repro.scenarios.spec import (
    FAULT_KINDS,
    FaultSpec,
    FleetSpec,
    NetworkSpec,
    ScenarioSpec,
    TopologySpec,
    TrainingSpec,
)
from repro.scenarios.sweep import AxisSpec, SweepSpec, grid_summaries
from repro.sim.events import CHURN_ACTIONS, ChurnEvent

__all__ = ["schema_markdown"]

#: (markdown heading, JSON location hint, dataclass) — rendering order.
_SECTIONS: Tuple[Tuple[str, str, Type], ...] = (
    ("ScenarioSpec", "top level", ScenarioSpec),
    ("FleetSpec", "`fleet`", FleetSpec),
    ("TopologySpec", "`topology`", TopologySpec),
    ("NetworkSpec", "`network`", NetworkSpec),
    ("TrainingSpec", "`training`", TrainingSpec),
    ("ChurnEvent", "`churn[]`", ChurnEvent),
    ("FaultSpec", "`faults[]`", FaultSpec),
    ("SweepSpec", "top level (grid files)", SweepSpec),
    ("AxisSpec", "`axes` entries", AxisSpec),
)


def _default_repr(field: dataclasses.Field) -> str:
    if field.default is not dataclasses.MISSING:
        return repr(field.default)
    if field.default_factory is not dataclasses.MISSING:  # type: ignore[misc]
        factory = field.default_factory  # type: ignore[misc]
        name = getattr(factory, "__name__", repr(factory))
        return f"{name}()"
    return "*required*"


def _field_rows(cls: Type) -> List[str]:
    rows = ["| field | type | default |", "|---|---|---|"]
    for field in dataclasses.fields(cls):
        if not field.init:
            continue  # derived/cached attributes are not part of the schema
        annotation = field.type if isinstance(field.type, str) else getattr(
            field.type, "__name__", str(field.type)
        )
        rows.append(f"| `{field.name}` | `{annotation}` | `{_default_repr(field)}` |")
    return rows


def _docstring(cls: Type) -> str:
    doc = inspect.getdoc(cls) or ""
    return doc.strip()


def _registry_table(rows: Sequence[dict], columns: Sequence[str]) -> List[str]:
    return rows_to_markdown(rows, columns=columns).splitlines()


def schema_markdown() -> str:
    """Render the spec field reference (the contents of docs/scenario-spec.md)."""
    lines: List[str] = [
        "<!-- Generated by `python -m repro scenario schema > docs/scenario-spec.md`.",
        "     Do not edit by hand: CI regenerates this file and fails on drift. -->",
        "",
        "# Scenario & sweep specification reference",
        "",
        "A scenario is a nested dict/JSON document loaded with",
        "`ScenarioSpec.from_dict`; a parameter grid is a `SweepSpec` document",
        "loaded with `SweepSpec.from_dict`.  Validation is eager: unknown",
        "fields, bad values, overlapping fault windows and unresolvable sweep",
        "axis paths all raise `ScenarioSpecError` before anything runs.",
        "All times are **simulated seconds** on the experiment timeline.",
        "",
    ]
    for heading, location, cls in _SECTIONS:
        lines.append(f"## `{heading}` — {location}")
        lines.append("")
        doc = _docstring(cls)
        if doc:
            lines.append(doc)
            lines.append("")
        lines.extend(_field_rows(cls))
        lines.append("")
    lines.extend(
        [
            "## Enumerations",
            "",
            f"* **Fault kinds** (`faults[].kind`): {', '.join(f'`{k}`' for k in FAULT_KINDS)}",
            f"* **Churn actions** (`churn[].action`): {', '.join(f'`{a}`' for a in CHURN_ACTIONS)}",
            "",
            "## Named scenario registry",
            "",
            "Built-in scenarios runnable with `python -m repro scenario run <name>`:",
            "",
        ]
    )
    lines.extend(
        _registry_table(
            scenario_summaries(),
            ("name", "clients", "rounds", "regions", "churn_events", "faults", "description"),
        )
    )
    lines.extend(
        [
            "",
            "## Named grid registry",
            "",
            "Built-in parameter grids runnable with `python -m repro scenario grid <name>`:",
            "",
        ]
    )
    lines.extend(
        _registry_table(grid_summaries(), ("name", "cells", "axes", "base", "description"))
    )
    lines.append("")
    return "\n".join(lines)
