"""HTTP serving of the results store: a JSON API plus a grid-heatmap dashboard.

``python -m repro scenario serve`` turns the content-addressed
:class:`~repro.scenarios.store.ResultsStore` into a small read-only
experiment service on the standard library only (``http.server``):

====================================  =========================================
endpoint                              returns
====================================  =========================================
``GET /``                             static dashboard (grid heatmaps)
``GET /healthz``                      store stats (path, runs, grids, size)
``GET /api/runs``                     every stored run (metadata rows)
``GET /api/runs/<hash>/<seed>``       one run: canonical spec + full payload
``GET /api/grids``                    every recorded grid (metadata rows)
``GET /api/grids/<hash>``             one grid: cells + rebuilt summary rows
``GET /api/grids/<hash>/grid.csv``    the grid's CSV summary, rebuilt from
                                      stored cells (byte-identical to the
                                      ``--report`` bundle's ``grid.csv``)
``GET /api/grids/<hash>/signatures``  the golden-signature file for the grid
``GET /api/metrics``                  per-run unified metric snapshots (index)
``GET /api/metrics/<hash>/<seed>``    one run's full metrics snapshot
``GET /api/trace``                    flight-recorder files in ``--trace-dir``
``GET /api/trace/<file>``             one flight-recorder file's contents
====================================  =========================================

``<hash>`` accepts an unambiguous prefix (and, for grids, the grid name).
The grid endpoints rebuild their rows through the *same* helpers the
``--report`` bundle uses (:func:`repro.experiments.report.grid_summary_rows`
/ :func:`rows_to_csv`), so the dashboard and the committed CSV artefacts can
never drift apart.

The server is read-mostly (hit counters update on run lookups) and threaded;
the shared store serializes access internally.
"""

from __future__ import annotations

import json
import os
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Dict, List, Optional, Tuple
from urllib.parse import urlparse

from repro.experiments.report import grid_summary_rows, rows_to_csv
from repro.scenarios.runner import CellResult
from repro.scenarios.store import ResultsStore, ResultsStoreError, StoredGrid

__all__ = ["create_server", "serve_forever"]


class _BadRequest(Exception):
    """A request the server can read but not accept (answered with 400)."""


def _seed(text: str) -> int:
    """The ``<seed>`` path segment as an int; raises :class:`_BadRequest` otherwise."""
    try:
        return int(text)
    except ValueError:
        raise _BadRequest("seed must be an integer") from None


def _grid_cells(store: ResultsStore, grid: StoredGrid) -> List[CellResult]:
    """Rebuild a recorded grid's ordered cells from the runs table."""
    cells: List[CellResult] = []
    for entry in grid.cells:
        stored = store.get_run(str(entry["spec_hash"]), int(entry["seed"]))
        if stored is None:
            raise ResultsStoreError(
                f"grid {grid.name} references missing run "
                f"{str(entry['spec_hash'])[:12]}…/seed {entry['seed']} (gc'd?)"
            )
        cells.append(
            CellResult.from_payload(
                int(entry["index"]), dict(entry["coordinates"]), stored.payload
            )
        )
    return sorted(cells, key=lambda cell: cell.index)


class StoreRequestHandler(BaseHTTPRequestHandler):
    """Routes GET requests against the server's shared results store."""

    server_version = "repro-results-store/1"
    #: Set by :func:`create_server`.
    store: ResultsStore
    #: Optional flight-recorder directory (``--trace-dir``); set by
    #: :func:`create_server`.  ``None`` disables the ``/api/trace`` routes.
    trace_dir: Optional[str] = None

    # ------------------------------------------------------------- plumbing

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        if getattr(self.server, "verbose", False):  # pragma: no cover
            super().log_message(format, *args)

    def _send(self, status: int, content_type: str, body: bytes) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _json(self, document: object, status: int = 200) -> None:
        body = json.dumps(document, indent=2, sort_keys=True).encode("utf-8")
        self._send(status, "application/json; charset=utf-8", body)

    def _error(self, status: int, message: str) -> None:
        self._json({"error": message}, status=status)

    # -------------------------------------------------------------- routing

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        parts = [p for p in urlparse(self.path).path.split("/") if p]
        try:
            if not parts:
                self._send(200, "text/html; charset=utf-8", DASHBOARD_HTML.encode())
            elif parts == ["healthz"]:
                self._json({"status": "ok", **self.store.stats()})
            elif parts == ["api", "runs"]:
                self._json({"runs": [self._run_meta(r) for r in self.store.runs()]})
            elif parts[:2] == ["api", "runs"] and len(parts) == 4:
                run = self.store.resolve_run(parts[2], seed=_seed(parts[3]))
                self._json(
                    {
                        **self._run_meta(run),
                        "spec": self.store.run_spec(run.spec_hash, run.seed),
                        "payload": run.payload,
                    }
                )
            elif parts == ["api", "grids"]:
                self._json({"grids": [self._grid_meta(g) for g in self.store.grids()]})
            elif parts[:2] == ["api", "grids"] and len(parts) == 3:
                grid = self.store.resolve_grid(parts[2])
                cells = _grid_cells(self.store, grid)
                self._json(
                    {
                        **self._grid_meta(grid),
                        "cells": grid.cells,
                        "summary_rows": grid_summary_rows(cells),
                    }
                )
            elif parts[:2] == ["api", "grids"] and len(parts) == 4 and parts[3] == "grid.csv":
                grid = self.store.resolve_grid(parts[2])
                cells = _grid_cells(self.store, grid)
                body = rows_to_csv(grid_summary_rows(cells)).encode("utf-8")
                self._send(200, "text/csv; charset=utf-8", body)
            elif parts[:2] == ["api", "grids"] and len(parts) == 4 and parts[3] == "signatures":
                grid = self.store.resolve_grid(parts[2])
                cells = _grid_cells(self.store, grid)
                body = "".join(f"{c.index:03d}  {c.signature}\n" for c in cells).encode()
                self._send(200, "text/plain; charset=utf-8", body)
            elif parts == ["api", "metrics"]:
                self._json({"runs": [self._metrics_meta(r) for r in self.store.runs()]})
            elif parts[:2] == ["api", "metrics"] and len(parts) == 4:
                run = self.store.resolve_run(parts[2], seed=_seed(parts[3]))
                self._json(
                    {
                        "spec_hash": run.spec_hash,
                        "seed": run.seed,
                        "scenario": run.scenario,
                        "signature": run.signature,
                        "metrics": run.payload.get("metrics", {}),
                    }
                )
            elif parts == ["api", "trace"]:
                self._json({"trace_dir": self.trace_dir, "files": self._trace_files()})
            elif parts[:2] == ["api", "trace"] and len(parts) == 3:
                self._send_trace_file(parts[2])
            else:
                self._error(404, f"no such endpoint: {self.path}")
        except _BadRequest as exc:
            self._error(400, str(exc))
        except (ResultsStoreError, ValueError) as exc:
            self._error(404, str(exc))
        except BrokenPipeError:  # pragma: no cover - client went away
            pass

    # ------------------------------------------------------------ documents

    @staticmethod
    def _run_meta(run) -> Dict[str, object]:
        return {
            "spec_hash": run.spec_hash,
            "seed": run.seed,
            "scenario": run.scenario,
            "signature": run.signature,
            "rounds_completed": run.payload.get("rounds_completed"),
            "final_accuracy": run.payload.get("final_accuracy"),
            "created_at": run.created_at,
            "last_used_at": run.last_used_at,
            "hits": run.hits,
        }

    @staticmethod
    def _metrics_meta(run) -> Dict[str, object]:
        metrics = run.payload.get("metrics", {})
        return {
            "spec_hash": run.spec_hash,
            "seed": run.seed,
            "scenario": run.scenario,
            "has_metrics": bool(metrics),
            "counters": len(metrics.get("counters", {})),
            "gauges": len(metrics.get("gauges", {})),
            "histograms": len(metrics.get("histograms", {})),
        }

    def _trace_files(self) -> List[Dict[str, object]]:
        if self.trace_dir is None:
            raise ResultsStoreError("server started without --trace-dir")
        if not os.path.isdir(self.trace_dir):
            raise ResultsStoreError(f"trace dir not found: {self.trace_dir}")
        files = []
        for name in sorted(os.listdir(self.trace_dir)):
            path = os.path.join(self.trace_dir, name)
            if os.path.isfile(path) and name.endswith((".json", ".jsonl")):
                files.append({"name": name, "size": os.path.getsize(path)})
        return files

    def _send_trace_file(self, name: str) -> None:
        # The listing is the allow-list: only flat file names that the
        # directory scan itself produced can be fetched (no traversal).
        if name not in {entry["name"] for entry in self._trace_files()}:
            raise ResultsStoreError(f"no such trace file: {name}")
        with open(os.path.join(self.trace_dir, name), "rb") as handle:
            body = handle.read()
        content_type = (
            "application/json; charset=utf-8"
            if name.endswith(".json")
            else "application/x-ndjson; charset=utf-8"
        )
        self._send(200, content_type, body)

    @staticmethod
    def _grid_meta(grid: StoredGrid) -> Dict[str, object]:
        return {
            "sweep_hash": grid.sweep_hash,
            "name": grid.name,
            "axes": grid.axes,
            "cell_count": len(grid.cells),
            "created_at": grid.created_at,
            "updated_at": grid.updated_at,
        }


def create_server(
    store: ResultsStore,
    host: str = "127.0.0.1",
    port: int = 8765,
    verbose: bool = False,
    trace_dir: Optional[str] = None,
) -> ThreadingHTTPServer:
    """Build (but do not start) the results-store HTTP server."""
    handler = type(
        "BoundStoreRequestHandler",
        (StoreRequestHandler,),
        {"store": store, "trace_dir": os.fspath(trace_dir) if trace_dir else None},
    )
    server = ThreadingHTTPServer((host, port), handler)
    server.verbose = verbose  # type: ignore[attr-defined]
    return server


def serve_forever(
    store: ResultsStore,
    host: str = "127.0.0.1",
    port: int = 8765,
    verbose: bool = False,
    trace_dir: Optional[str] = None,
) -> None:
    """Run the server until interrupted (the ``scenario serve`` entry point)."""
    server = create_server(
        store, host=host, port=port, verbose=verbose, trace_dir=trace_dir
    )
    try:
        server.serve_forever()
    except KeyboardInterrupt:  # pragma: no cover - interactive
        pass
    finally:
        server.server_close()


#: The static dashboard: lists recorded grids and renders a per-metric
#: heatmap over the first two grid axes, from the same summary rows the CSV
#: bundle serializes.  Deliberately dependency-free inline HTML/JS.
DASHBOARD_HTML = """<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
<title>repro results store</title>
<style>
  body { font-family: system-ui, sans-serif; margin: 2rem; color: #1a1a2e; }
  h1 { font-size: 1.4rem; } h2 { font-size: 1.1rem; margin-top: 1.5rem; }
  select { font: inherit; padding: 0.2rem; margin-right: 0.75rem; }
  table { border-collapse: collapse; margin-top: 1rem; }
  th, td { border: 1px solid #ccc; padding: 0.35rem 0.6rem; text-align: right; }
  th { background: #f0f0f5; font-weight: 600; }
  td.hm { min-width: 5.5rem; }
  .muted { color: #777; font-size: 0.85rem; }
  #meta a { color: #2a4d8f; }
</style>
</head>
<body>
<h1>repro results store — grid heatmaps</h1>
<p class="muted">Rows are rebuilt from the content-addressed store with the
same helpers that write the <code>--report</code> CSV bundle.</p>
<div>
  <label>grid <select id="grid"></select></label>
  <label>metric <select id="metric"></select></label>
</div>
<div id="meta" class="muted"></div>
<div id="heatmap"></div>
<script>
const NUMERIC = ["accuracy","total_s","messaging_s","planning_s","collecting_s",
                 "aggregating_s","messages","traffic_bytes","dropped","admitted",
                 "cut","faults","rounds"];
let grids = [];

async function getJSON(url) { const r = await fetch(url); return r.json(); }

function colour(t) {
  // light -> saturated blue ramp on normalized [0, 1]
  const l = 95 - 45 * t;
  return `hsl(215 70% ${l}%)`;
}

function render(rows, axes, metric) {
  const yPath = axes[0];
  const xPath = axes.length > 1 ? axes[1] : null;
  const rest = axes.slice(2);
  const key = r => rest.map(p => `${p}=${r[p]}`).join(", ");
  const ys = [...new Set(rows.map(r => `${r[yPath]}` + (rest.length ? " | " + key(r) : "")))];
  const xs = xPath ? [...new Set(rows.map(r => `${r[xPath]}`))] : ["value"];
  const values = rows.map(r => Number(r[metric]));
  const lo = Math.min(...values), hi = Math.max(...values);
  const norm = v => (hi > lo ? (v - lo) / (hi - lo) : 0.5);
  let html = `<table><tr><th>${yPath}${rest.length ? " | " + rest.join(", ") : ""}</th>`;
  html += xs.map(x => `<th>${xPath ? xPath + "=" + x : metric}</th>`).join("") + "</tr>";
  for (const y of ys) {
    html += `<tr><th>${y}</th>`;
    for (const x of xs) {
      const row = rows.find(r =>
        (`${r[yPath]}` + (rest.length ? " | " + key(r) : "")) === y &&
        (!xPath || `${r[xPath]}` === x));
      if (!row) { html += "<td></td>"; continue; }
      const v = Number(row[metric]);
      const text = Number.isInteger(v) ? v : v.toPrecision(5);
      html += `<td class="hm" style="background:${colour(norm(v))}" ` +
              `title="cell ${row.cell} · sig ${row.signature}">${text}</td>`;
    }
    html += "</tr>";
  }
  document.getElementById("heatmap").innerHTML = html + "</table>";
}

async function showGrid() {
  const hash = document.getElementById("grid").value;
  if (!hash) return;
  const doc = await getJSON(`/api/grids/${hash}`);
  const metricSel = document.getElementById("metric");
  const current = metricSel.value;
  const available = NUMERIC.filter(m => doc.summary_rows.length && m in doc.summary_rows[0]);
  metricSel.innerHTML = available.map(m => `<option>${m}</option>`).join("");
  metricSel.value = available.includes(current) ? current : available[0];
  document.getElementById("meta").innerHTML =
    `${doc.cell_count} cells over ${doc.axes.join(" × ")} · ` +
    `<a href="/api/grids/${hash}/grid.csv">grid.csv</a> · ` +
    `<a href="/api/grids/${hash}/signatures">signatures</a>`;
  render(doc.summary_rows, doc.axes, metricSel.value);
}

async function init() {
  grids = (await getJSON("/api/grids")).grids;
  const sel = document.getElementById("grid");
  sel.innerHTML = grids.map(g =>
    `<option value="${g.sweep_hash}">${g.name} (${g.sweep_hash.slice(0, 12)})</option>`).join("");
  sel.onchange = showGrid;
  document.getElementById("metric").onchange = showGrid;
  if (grids.length) showGrid();
  else document.getElementById("meta").textContent =
    "store has no recorded grids yet — run `python -m repro scenario grid` first";
}
init();
</script>
</body>
</html>
"""
