"""Structured rendering of experiment results.

The benchmark harness prints the same rows/series the paper reports; these
helpers keep that formatting in one place: fixed-width tables for terminals,
markdown tables for the docs, and CSV for downstream
analysis.  The grid helpers condense a parameter-grid run (see
:mod:`repro.scenarios.sweep`) into per-cell metric rows and write the full
report bundle — including the ``messaging_s`` (observed event-scheduler
makespan) vs ``total_s`` (analytic critical path) comparison the ROADMAP
asks for.

The grid helpers are duck-typed: they accept any sequence of objects with
the :class:`repro.scenarios.runner.CellResult` attributes, which keeps this
module free of imports from the scenario layer.
"""

from __future__ import annotations

import csv
import io
import os
import shutil
import tempfile
from statistics import mean, pstdev
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

__all__ = [
    "format_table",
    "format_series",
    "grid_seed_aggregate_rows",
    "grid_summary_rows",
    "messaging_vs_analytic_rows",
    "rows_to_csv",
    "rows_to_markdown",
    "write_grid_report",
]


def _format_value(value: object, precision: int = 4) -> str:
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, float):
        return f"{value:.{precision}f}"
    return str(value)


def _columns(rows: Sequence[Mapping[str, object]]) -> List[str]:
    """Union of row keys, in first-appearance order."""
    columns: List[str] = []
    for row in rows:
        for key in row:
            if key not in columns:
                columns.append(key)
    return columns


def format_table(rows: Sequence[Mapping[str, object]], precision: int = 4) -> str:
    """Render a list of dict rows as an aligned fixed-width text table."""
    if not rows:
        return "(empty table)"
    columns = _columns(rows)
    rendered = [[_format_value(row.get(col, ""), precision) for col in columns] for row in rows]
    widths = [
        max(len(col), *(len(r[i]) for r in rendered)) for i, col in enumerate(columns)
    ]
    header = "  ".join(col.ljust(widths[i]) for i, col in enumerate(columns))
    separator = "  ".join("-" * widths[i] for i in range(len(columns)))
    body = "\n".join("  ".join(r[i].ljust(widths[i]) for i in range(len(columns))) for r in rendered)
    return "\n".join([header, separator, body])


def format_series(name: str, values: Iterable[float], precision: int = 4) -> str:
    """Render one named numeric series on a single line."""
    rendered = ", ".join(f"{float(v):.{precision}f}" for v in values)
    return f"{name}: [{rendered}]"


def rows_to_markdown(
    rows: Sequence[Mapping[str, object]],
    precision: int = 4,
    columns: Optional[Sequence[str]] = None,
) -> str:
    """Render dict rows as a GitHub-flavoured markdown table.

    ``columns`` selects and orders the rendered columns; by default every
    key that appears in any row is rendered, in first-appearance order.
    """
    if not rows:
        return "(empty table)"
    columns = list(columns) if columns is not None else _columns(rows)
    lines = ["| " + " | ".join(columns) + " |", "|" + "|".join("---" for _ in columns) + "|"]
    for row in rows:
        lines.append("| " + " | ".join(_format_value(row.get(col, ""), precision) for col in columns) + " |")
    return "\n".join(lines)


def rows_to_csv(rows: Sequence[Mapping[str, object]]) -> str:
    """Render dict rows as CSV (RFC 4180 quoting, ``\\n`` line endings).

    Floats are written with ``repr`` so a CSV round-trips bit-exactly — the
    grid determinism checks compare these files byte for byte across worker
    counts.
    """
    buffer = io.StringIO()
    columns = _columns(rows)
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow(
            [repr(v) if isinstance(v, float) else v for v in (row.get(col, "") for col in columns)]
        )
    return buffer.getvalue()


# ------------------------------------------------------------- grid reports


def grid_summary_rows(cells: Sequence[object]) -> List[Dict[str, object]]:
    """One metric row per grid cell (accepts ``CellResult``-shaped objects).

    The leading columns are the cell index and its grid coordinates (one
    column per axis path), so the table reads like the cartesian product it
    came from; the remaining columns are the run's headline metrics.
    """
    rows: List[Dict[str, object]] = []
    for cell in cells:
        row: Dict[str, object] = {"cell": cell.index}
        for path, value in cell.coordinates.items():
            row[path] = value if not isinstance(value, (dict, list)) else _compact_json(value)
        row.update(
            {
                "seed": cell.seed,
                "rounds": cell.rounds_completed,
                "accuracy": cell.final_accuracy,
                "total_s": cell.total_s,
                "messaging_s": cell.messaging_s,
                "planning_s": cell.planning_s,
                "collecting_s": cell.collecting_s,
                "aggregating_s": cell.aggregating_s,
                "messages": cell.messages,
                "traffic_bytes": cell.traffic_bytes,
                "dropped": cell.clients_dropped,
                "admitted": cell.clients_admitted,
                "cut": cell.stragglers_cut,
                "faults": cell.faults_started,
                "signature": cell.signature[:12],
            }
        )
        rows.append(row)
    return rows


def messaging_vs_analytic_rows(cells: Sequence[object]) -> List[Dict[str, object]]:
    """Observed messaging makespan vs the analytic critical path, per cell.

    ``total_s`` sums each round's analytic critical-path delay
    (:class:`~repro.runtime.delay.RoundDelayBreakdown`); ``messaging_s``
    sums the simulated time the event scheduler actually spent moving the
    rounds' messages.  ``messaging_ratio`` is their quotient — how much the
    executed messaging layer adds on top of what the closed-form model
    predicts — which is the comparison the paper's delay experiments need.
    """
    rows: List[Dict[str, object]] = []
    for cell in cells:
        total = float(cell.total_s)
        messaging = float(cell.messaging_s)
        row: Dict[str, object] = {"cell": cell.index}
        for path, value in cell.coordinates.items():
            row[path] = value if not isinstance(value, (dict, list)) else _compact_json(value)
        row.update(
            {
                "analytic_total_s": total,
                "observed_messaging_s": messaging,
                "messaging_ratio": messaging / total if total > 0 else 0.0,
            }
        )
        rows.append(row)
    return rows


def _compact_json(value: object) -> str:
    import json

    return json.dumps(value, sort_keys=True, separators=(",", ":"))


#: Metrics aggregated across seeds: (cell attribute, emit stddev column).
_SEED_AGGREGATE_METRICS: Tuple[Tuple[str, bool], ...] = (
    ("final_accuracy", True),
    ("total_s", True),
    ("messaging_s", True),
    ("collecting_s", True),
    ("messages", False),
    ("traffic_bytes", False),
    ("stragglers_cut", False),
)

#: Column names under which each aggregated metric is reported.
_SEED_AGGREGATE_LABELS: Dict[str, str] = {"final_accuracy": "accuracy"}


def grid_seed_aggregate_rows(cells: Sequence[object]) -> List[Dict[str, object]]:
    """Aggregate a seed-swept grid: one row per non-seed coordinate combo.

    When a grid carries a ``seed`` axis, the per-cell table has one row per
    (cell, seed) — useful for determinism checks, noisy for analysis.  This
    helper groups the cells by their *non-seed* coordinates (in axis order)
    and emits mean/stddev columns (population stddev; a single seed yields
    0.0) for the headline metrics, plus the seed count, so each grid point
    reads as one row with its across-seed variability attached.

    Returns ``[]`` when the cells carry no ``seed`` coordinate — the caller
    can treat the presence of rows as "this grid was seed-swept".
    """
    groups: Dict[Tuple[Tuple[str, object], ...], List[object]] = {}
    for cell in cells:
        if "seed" not in cell.coordinates:
            return []
        key = tuple(
            (path, _freeze(value))
            for path, value in cell.coordinates.items()
            if path != "seed"
        )
        groups.setdefault(key, []).append(cell)

    rows: List[Dict[str, object]] = []
    for key, group in groups.items():
        row: Dict[str, object] = {}
        for path, value in key:
            row[path] = value if not isinstance(value, (dict, list)) else _compact_json(value)
        row["seeds"] = len(group)
        for attribute, with_std in _SEED_AGGREGATE_METRICS:
            values = [float(getattr(cell, attribute)) for cell in group]
            label = _SEED_AGGREGATE_LABELS.get(attribute, attribute)
            row[f"{label}_mean"] = mean(values)
            if with_std:
                row[f"{label}_std"] = pstdev(values)
        rows.append(row)
    return rows


def _freeze(value: object) -> object:
    """Make a coordinate value usable as part of a grouping key."""
    if isinstance(value, (dict, list)):
        return _compact_json(value)
    return value


def write_grid_report(cells: Sequence[object], out_dir: str) -> Dict[str, str]:
    """Write the full grid report bundle into ``out_dir``; return the paths.

    Emits five files: the per-cell summary as ``grid.csv`` + ``grid.md``,
    the messaging-vs-analytic comparison as ``messaging_vs_analytic.csv`` +
    ``messaging_vs_analytic.md``, and ``signatures.txt`` — one
    ``index  sha256`` line per cell, the artefact the CI grid smoke compares
    against its committed golden file.  Grids swept over a ``seed`` axis
    additionally get ``seed_aggregate.csv`` + ``seed_aggregate.md`` — one
    row per non-seed grid point with mean/stddev columns (see
    :func:`grid_seed_aggregate_rows`).  Output is byte-identical for
    byte-identical cell results, regardless of how many workers produced
    them.

    The bundle appears atomically: every file is written into a staging
    directory next to ``out_dir`` which is renamed into place only once the
    bundle is complete, so a crash or Ctrl-C mid-write can never leave a
    partial report dir that downstream tooling reads as a finished one.  A
    pre-existing ``out_dir`` is replaced as a whole (stale files from an
    earlier bundle do not survive into the new one).
    """
    summary = grid_summary_rows(cells)
    comparison = messaging_vs_analytic_rows(cells)
    signatures = "".join(f"{cell.index:03d}  {cell.signature}\n" for cell in cells)
    outputs = {
        "grid.csv": rows_to_csv(summary),
        "grid.md": rows_to_markdown(summary) + "\n",
        "messaging_vs_analytic.csv": rows_to_csv(comparison),
        "messaging_vs_analytic.md": rows_to_markdown(comparison) + "\n",
        "signatures.txt": signatures,
    }
    seed_aggregate = grid_seed_aggregate_rows(cells)
    if seed_aggregate:
        outputs["seed_aggregate.csv"] = rows_to_csv(seed_aggregate)
        outputs["seed_aggregate.md"] = rows_to_markdown(seed_aggregate) + "\n"

    out_dir = os.path.abspath(out_dir)
    parent = os.path.dirname(out_dir)
    if parent:
        os.makedirs(parent, exist_ok=True)
    staging = tempfile.mkdtemp(prefix=f".{os.path.basename(out_dir)}.tmp-", dir=parent or ".")
    try:
        for name, content in outputs.items():
            with open(os.path.join(staging, name), "w", encoding="utf-8", newline="") as handle:
                handle.write(content)
        # os.rename cannot replace a non-empty directory, so move an existing
        # bundle aside first; it is only deleted after the swap succeeded.
        backup: Optional[str] = None
        if os.path.exists(out_dir):
            backup = tempfile.mkdtemp(prefix=f".{os.path.basename(out_dir)}.old-", dir=parent or ".")
            os.rename(out_dir, os.path.join(backup, "bundle"))
        try:
            os.rename(staging, out_dir)
        except OSError:
            if backup is not None:
                os.rename(os.path.join(backup, "bundle"), out_dir)
            raise
        if backup is not None:
            shutil.rmtree(backup, ignore_errors=True)
    except BaseException:
        shutil.rmtree(staging, ignore_errors=True)
        raise
    return {name: os.path.join(out_dir, name) for name in outputs}
