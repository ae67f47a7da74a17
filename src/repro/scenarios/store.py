"""Persistent, content-addressed results store for scenario runs and grids.

Every scenario run is already content-addressed: the canonical JSON form of
its :class:`~repro.scenarios.spec.ScenarioSpec` hashes to a stable SHA-256
(:func:`spec_hash`), and the run's own signature is a deterministic function
of ``(spec, seed)``.  This module persists that mapping — ``(spec_hash,
seed) → result payload`` — in a schema-versioned sqlite database so the
platform never executes the same simulation twice:

* :class:`~repro.scenarios.runner.ScenarioRunner` consults the store before
  executing (``run`` and ``run_grid``); a hit returns the stored plain-data
  payload with a byte-identical signature,
* editing one axis value of a 12-cell grid re-executes only the changed
  cells, and an interrupted sweep resumes from its stored cells
  (``scenario grid --resume``),
* ``scenario store ls|gc|show`` manage the database from the CLI and
  ``scenario serve`` (:mod:`repro.scenarios.serve`) exposes it over HTTP.

The store deliberately holds only *plain data* (the JSON payload a
:class:`~repro.scenarios.runner.CellResult` condenses to — metric scalars,
per-round rows, the signature) plus the canonical spec document, never
pickled objects: payloads round-trip exactly through ``json`` (floats keep
their shortest-repr bit pattern), so a cached result renders byte-identically
to a fresh one.

Grid runs are recorded alongside (``grids`` table: sweep hash → ordered cell
keys), which is what lets ``scenario serve`` rebuild a grid's CSV bundle and
heatmap from stored cells without re-running anything.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Mapping, Optional, Sequence, Union

from repro.scenarios.spec import ScenarioSpec

if TYPE_CHECKING:
    import sqlite3

__all__ = [
    "ResultsStore",
    "ResultsStoreError",
    "StoredGrid",
    "StoredRun",
    "canonical_json",
    "default_store_path",
    "spec_hash",
    "sweep_hash",
]

#: Bump when the sqlite layout changes; the store refuses databases written
#: by a different schema rather than guessing at migrations.
SCHEMA_VERSION = 1

#: Folded into every :func:`spec_hash` / :func:`sweep_hash`.  Bump in any
#: change that moves run signatures for unchanged specs (a wire-format or
#: numerics revision): rows written before it then miss once and age out
#: through ``store gc`` instead of serving the previous revision's results.
#: 2 — PR 14, byte-plane compression changed wire sizes and sim-time delays.
#: 3 — PR 16, aggregates and globals ship in the uploads' dtype (float32);
#: ``compression_enabled`` reaches the coordinator and parameter server.
#: 4 — mantissa planes ride as stored blocks (+0.1 … +2 % wire bytes).
RESULTS_REVISION = 4

#: Environment variable naming the default database location.
STORE_ENV_VAR = "REPRO_STORE"

#: Default database path (relative to the working directory) when neither a
#: CLI flag nor :data:`STORE_ENV_VAR` names one.
DEFAULT_STORE_PATH = os.path.join(".repro", "results.sqlite")


class ResultsStoreError(RuntimeError):
    """The results store is unusable (bad schema, unknown key, bad query)."""


def default_store_path() -> str:
    """The store path the CLI uses: ``$REPRO_STORE`` or ``.repro/results.sqlite``."""
    return os.environ.get(STORE_ENV_VAR) or DEFAULT_STORE_PATH


def canonical_json(data: object) -> str:
    """Deterministic JSON rendering: sorted keys, minimal separators.

    Two plain-data trees that compare equal render identically regardless of
    dict insertion order — the property :func:`spec_hash` needs to be stable
    across ``as_dict``/``from_dict`` round trips and JSON files whose authors
    ordered keys differently.
    """
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


def _content_hash(tree: object) -> str:
    document = f"r{RESULTS_REVISION}:{canonical_json(tree)}"
    return hashlib.sha256(document.encode("utf-8")).hexdigest()


def spec_hash(spec: Union[ScenarioSpec, Mapping[str, object]]) -> str:
    """Content address of a scenario: SHA-256 over :data:`RESULTS_REVISION`
    and the canonical spec JSON.

    Accepts a :class:`ScenarioSpec` or its ``as_dict`` form.  The hash covers
    the *entire* spec (including the seed), so the ``(spec_hash, seed)``
    store key is redundant but self-describing: the seed column is what
    ``store ls`` and the serve API group by.
    """
    return _content_hash(spec.as_dict() if isinstance(spec, ScenarioSpec) else dict(spec))


def sweep_hash(sweep) -> str:
    """Content address of a parameter grid, formed like :func:`spec_hash`."""
    return _content_hash(sweep.as_dict())


@dataclass(frozen=True)
class StoredRun:
    """One stored scenario result (the plain-data payload plus its key)."""

    spec_hash: str
    seed: int
    scenario: str
    signature: str
    payload: Dict[str, object]
    created_at: float
    last_used_at: float
    hits: int

    def row(self) -> Dict[str, object]:
        """One ``store ls`` table row."""
        return {
            "spec_hash": self.spec_hash[:12],
            "seed": self.seed,
            "scenario": self.scenario,
            "rounds": self.payload.get("rounds_completed", ""),
            "accuracy": self.payload.get("final_accuracy", ""),
            "signature": self.signature[:12],
            "hits": self.hits,
            "stored_at": time.strftime("%Y-%m-%d %H:%M:%S", time.localtime(self.created_at)),
        }


@dataclass(frozen=True)
class StoredGrid:
    """One recorded grid run: its sweep hash plus ordered cell keys."""

    sweep_hash: str
    name: str
    axes: List[str]
    cells: List[Dict[str, object]]
    created_at: float
    updated_at: float

    def row(self) -> Dict[str, object]:
        """One ``store ls --grids`` table row."""
        return {
            "sweep_hash": self.sweep_hash[:12],
            "name": self.name,
            "cells": len(self.cells),
            "axes": " x ".join(self.axes),
            "updated_at": time.strftime("%Y-%m-%d %H:%M:%S", time.localtime(self.updated_at)),
        }


#: How long a writer waits on a locked database before erroring (ms).
#: Generous: store writes are small (one JSON payload per commit), so any
#: contention clears in milliseconds — the timeout only bites on a wedged
#: peer holding the lock.
BUSY_TIMEOUT_MS = 10_000

_SCHEMA_STATEMENTS = (
    """
    CREATE TABLE IF NOT EXISTS store_meta (
        key   TEXT PRIMARY KEY,
        value TEXT NOT NULL
    )
    """,
    """
    CREATE TABLE IF NOT EXISTS runs (
        spec_hash    TEXT    NOT NULL,
        seed         INTEGER NOT NULL,
        scenario     TEXT    NOT NULL,
        signature    TEXT    NOT NULL,
        spec_json    TEXT    NOT NULL,
        payload_json TEXT    NOT NULL,
        created_at   REAL    NOT NULL,
        last_used_at REAL    NOT NULL,
        hits         INTEGER NOT NULL DEFAULT 0,
        PRIMARY KEY (spec_hash, seed)
    )
    """,
    "CREATE INDEX IF NOT EXISTS runs_by_scenario ON runs(scenario)",
    """
    CREATE TABLE IF NOT EXISTS grids (
        sweep_hash TEXT PRIMARY KEY,
        name       TEXT NOT NULL,
        axes_json  TEXT NOT NULL,
        cells_json TEXT NOT NULL,
        created_at REAL NOT NULL,
        updated_at REAL NOT NULL
    )
    """,
)


class ResultsStore:
    """A schema-versioned sqlite results store, safe for threaded readers.

    All operations serialize through one internal lock (the serve mode's
    ``ThreadingHTTPServer`` shares a single store across request threads);
    every write commits immediately, so a killed process keeps everything
    stored up to its last completed cell — the property ``--resume`` builds
    on.

    Use as a context manager or call :meth:`close`; a store opened on a
    fresh path creates the database (and its parent directory) eagerly, and
    a database written by a different schema version raises
    :class:`ResultsStoreError` instead of being reinterpreted.
    """

    def __init__(self, path: Union[str, os.PathLike] = DEFAULT_STORE_PATH) -> None:
        import sqlite3  # loaded when a store opens, not by a --no-store run

        self.path = os.fspath(path)
        parent = os.path.dirname(os.path.abspath(self.path))
        os.makedirs(parent, exist_ok=True)
        self._lock = threading.RLock()
        self._connection: Optional[sqlite3.Connection] = sqlite3.connect(
            self.path, check_same_thread=False
        )
        self._connection.row_factory = sqlite3.Row
        # Concurrent-writer posture: WAL lets readers (serve mode, a
        # --resume consult) proceed while another process commits a cell,
        # and the busy timeout turns writer-vs-writer "database is locked"
        # races (parallel grids sharing one store) into short
        # waits instead of hard errors.  journal_mode returns the mode
        # actually in effect — some filesystems refuse WAL — so the
        # fallback is whatever sqlite kept, with the timeout still applied.
        try:
            self._connection.execute("PRAGMA journal_mode=WAL").fetchone()
        except sqlite3.OperationalError:  # pragma: no cover - fs dependent
            pass
        self._connection.execute(f"PRAGMA busy_timeout={BUSY_TIMEOUT_MS}")
        self._initialize()

    # ----------------------------------------------------------- lifecycle

    def _initialize(self) -> None:
        with self._lock, self._db() as db:
            for statement in _SCHEMA_STATEMENTS:
                db.execute(statement)
            row = db.execute(
                "SELECT value FROM store_meta WHERE key = 'schema_version'"
            ).fetchone()
            if row is None:
                db.execute(
                    "INSERT INTO store_meta (key, value) VALUES ('schema_version', ?)",
                    (str(SCHEMA_VERSION),),
                )
            elif int(row["value"]) != SCHEMA_VERSION:
                raise ResultsStoreError(
                    f"{self.path} uses store schema {row['value']}, this build "
                    f"expects {SCHEMA_VERSION}; move the file aside or gc --all it"
                )
            db.commit()

    def _db(self) -> sqlite3.Connection:
        if self._connection is None:
            raise ResultsStoreError(f"store {self.path} is closed")
        return self._connection

    def close(self) -> None:
        """Close the underlying connection (idempotent)."""
        with self._lock:
            if self._connection is not None:
                self._connection.close()
                self._connection = None

    def __enter__(self) -> "ResultsStore":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    # ---------------------------------------------------------------- runs

    def get_run(self, spec_hash: str, seed: int) -> Optional[StoredRun]:
        """Look one run up by its content address; bumps the hit counter."""
        with self._lock:
            db = self._db()
            row = db.execute(
                "SELECT * FROM runs WHERE spec_hash = ? AND seed = ?",
                (spec_hash, int(seed)),
            ).fetchone()
            if row is None:
                return None
            db.execute(
                "UPDATE runs SET hits = hits + 1, last_used_at = ? "
                "WHERE spec_hash = ? AND seed = ?",
                (time.time(), spec_hash, int(seed)),
            )
            db.commit()
            return self._run_from_row(row)

    def put_run(
        self,
        spec_hash: str,
        seed: int,
        spec: Union[ScenarioSpec, Mapping[str, object]],
        signature: str,
        payload: Mapping[str, object],
    ) -> None:
        """Insert or replace one run's payload under ``(spec_hash, seed)``.

        Commits immediately — a crash right after this call still keeps the
        cell, which is what lets interrupted grids resume.
        """
        tree = spec.as_dict() if isinstance(spec, ScenarioSpec) else dict(spec)
        now = time.time()
        with self._lock:
            db = self._db()
            db.execute(
                "INSERT OR REPLACE INTO runs (spec_hash, seed, scenario, signature,"
                " spec_json, payload_json, created_at, last_used_at, hits)"
                " VALUES (?, ?, ?, ?, ?, ?, ?, ?, 0)",
                (
                    spec_hash,
                    int(seed),
                    str(tree.get("name", "")),
                    signature,
                    canonical_json(tree),
                    # NOT canonical/sorted: the payload's key order is the
                    # rendered column order (format_table uses first
                    # appearance), and stored→rendered must be byte-identical
                    # to fresh→rendered.
                    json.dumps(payload),
                    now,
                    now,
                ),
            )
            db.commit()

    def runs(self, scenario: Optional[str] = None) -> List[StoredRun]:
        """Stored runs, newest first (optionally filtered by scenario name)."""
        query = "SELECT * FROM runs"
        params: tuple = ()
        if scenario is not None:
            query += " WHERE scenario = ?"
            params = (scenario,)
        query += " ORDER BY created_at DESC, spec_hash, seed"
        with self._lock:
            rows = self._db().execute(query, params).fetchall()
        return [self._run_from_row(row) for row in rows]

    def run_spec(self, spec_hash: str, seed: int) -> Dict[str, object]:
        """The canonical spec document stored with a run."""
        with self._lock:
            row = self._db().execute(
                "SELECT spec_json FROM runs WHERE spec_hash = ? AND seed = ?",
                (spec_hash, int(seed)),
            ).fetchone()
        if row is None:
            raise ResultsStoreError(f"no stored run {spec_hash[:12]}…/seed {seed}")
        return json.loads(row["spec_json"])

    def resolve_run(self, prefix: str, seed: Optional[int] = None) -> StoredRun:
        """Find exactly one run by spec-hash prefix (CLI ``store show``)."""
        with self._lock:
            rows = self._db().execute(
                "SELECT * FROM runs WHERE spec_hash LIKE ? ORDER BY seed",
                (prefix + "%",),
            ).fetchall()
        matches = [self._run_from_row(row) for row in rows]
        if seed is not None:
            matches = [run for run in matches if run.seed == int(seed)]
        if not matches:
            raise ResultsStoreError(f"no stored run matches {prefix!r}"
                                    + (f" with seed {seed}" if seed is not None else ""))
        if len(matches) > 1:
            keys = ", ".join(f"{m.spec_hash[:12]}/seed={m.seed}" for m in matches[:6])
            raise ResultsStoreError(
                f"{prefix!r} is ambiguous ({len(matches)} matches: {keys}"
                + ("…" if len(matches) > 6 else "") + "); add more digits or --seed"
            )
        return matches[0]

    @staticmethod
    def _run_from_row(row: sqlite3.Row) -> StoredRun:
        return StoredRun(
            spec_hash=row["spec_hash"],
            seed=int(row["seed"]),
            scenario=row["scenario"],
            signature=row["signature"],
            payload=json.loads(row["payload_json"]),
            created_at=float(row["created_at"]),
            last_used_at=float(row["last_used_at"]),
            hits=int(row["hits"]),
        )

    # --------------------------------------------------------------- grids

    def record_grid(
        self,
        sweep_hash: str,
        name: str,
        axes: Sequence[str],
        cells: Sequence[Mapping[str, object]],
    ) -> None:
        """Insert or refresh one grid run's cell index.

        ``cells`` entries carry ``{"index", "coordinates", "spec_hash",
        "seed", "signature"}`` — enough for the serve API to rebuild the
        whole CSV bundle from the ``runs`` table without re-deriving the
        sweep expansion.
        """
        now = time.time()
        with self._lock:
            db = self._db()
            existing = db.execute(
                "SELECT created_at FROM grids WHERE sweep_hash = ?", (sweep_hash,)
            ).fetchone()
            created = float(existing["created_at"]) if existing is not None else now
            db.execute(
                "INSERT OR REPLACE INTO grids (sweep_hash, name, axes_json,"
                " cells_json, created_at, updated_at) VALUES (?, ?, ?, ?, ?, ?)",
                (
                    sweep_hash,
                    name,
                    json.dumps(list(axes)),
                    json.dumps([dict(cell) for cell in cells]),
                    created,
                    now,
                ),
            )
            db.commit()

    def grids(self) -> List[StoredGrid]:
        """Recorded grids, newest first."""
        with self._lock:
            rows = self._db().execute(
                "SELECT * FROM grids ORDER BY updated_at DESC, sweep_hash"
            ).fetchall()
        return [self._grid_from_row(row) for row in rows]

    def resolve_grid(self, prefix: str) -> StoredGrid:
        """Find exactly one grid by sweep-hash prefix or exact name."""
        with self._lock:
            rows = self._db().execute(
                "SELECT * FROM grids WHERE sweep_hash LIKE ? OR name = ?"
                " ORDER BY updated_at DESC",
                (prefix + "%", prefix),
            ).fetchall()
        if not rows:
            raise ResultsStoreError(f"no recorded grid matches {prefix!r}")
        if len(rows) > 1:
            keys = ", ".join(f"{row['name']} ({row['sweep_hash'][:12]})" for row in rows[:6])
            raise ResultsStoreError(
                f"{prefix!r} is ambiguous ({len(rows)} grids: {keys}); use the hash"
            )
        return self._grid_from_row(rows[0])

    @staticmethod
    def _grid_from_row(row: sqlite3.Row) -> StoredGrid:
        return StoredGrid(
            sweep_hash=row["sweep_hash"],
            name=row["name"],
            axes=json.loads(row["axes_json"]),
            cells=json.loads(row["cells_json"]),
            created_at=float(row["created_at"]),
            updated_at=float(row["updated_at"]),
        )

    # ------------------------------------------------------------------ gc

    def gc(
        self,
        older_than_s: Optional[float] = None,
        scenario: Optional[str] = None,
        delete_all: bool = False,
        vacuum: bool = True,
    ) -> Dict[str, int]:
        """Delete stored runs (and grids left referencing them); returns counts.

        Selection is by ``last_used_at`` age and/or scenario name;
        ``delete_all=True`` empties the store.  Grids whose cell keys no
        longer all resolve against the ``runs`` table are dropped too — a
        recorded grid must always be fully rebuildable.
        """
        if not delete_all and older_than_s is None and scenario is None:
            raise ResultsStoreError(
                "gc needs a selector: older_than_s, scenario, or delete_all=True"
            )
        clauses: List[str] = []
        params: List[object] = []
        if not delete_all:
            if older_than_s is not None:
                clauses.append("last_used_at < ?")
                params.append(time.time() - float(older_than_s))
            if scenario is not None:
                clauses.append("scenario = ?")
                params.append(scenario)
        where = (" WHERE " + " AND ".join(clauses)) if clauses else ""
        with self._lock:
            db = self._db()
            removed_runs = db.execute(
                f"DELETE FROM runs{where}", tuple(params)
            ).rowcount
            removed_grids = 0
            for row in db.execute("SELECT sweep_hash, cells_json FROM grids").fetchall():
                cells = json.loads(row["cells_json"])
                complete = all(
                    db.execute(
                        "SELECT 1 FROM runs WHERE spec_hash = ? AND seed = ?",
                        (cell["spec_hash"], int(cell["seed"])),
                    ).fetchone()
                    is not None
                    for cell in cells
                )
                if not complete:
                    db.execute(
                        "DELETE FROM grids WHERE sweep_hash = ?", (row["sweep_hash"],)
                    )
                    removed_grids += 1
            db.commit()
            if vacuum:
                db.execute("VACUUM")
        return {"runs": int(removed_runs), "grids": int(removed_grids)}

    def delete_run(self, spec_hash: str, seed: int) -> bool:
        """Delete one stored run; returns True when it existed."""
        with self._lock:
            db = self._db()
            removed = db.execute(
                "DELETE FROM runs WHERE spec_hash = ? AND seed = ?",
                (spec_hash, int(seed)),
            ).rowcount
            db.commit()
        return bool(removed)

    # ----------------------------------------------------------------- misc

    def stats(self) -> Dict[str, object]:
        """Headline numbers for ``store ls`` and the serve health endpoint."""
        with self._lock:
            db = self._db()
            runs = db.execute("SELECT COUNT(*) AS n FROM runs").fetchone()["n"]
            grids = db.execute("SELECT COUNT(*) AS n FROM grids").fetchone()["n"]
            hits = db.execute("SELECT COALESCE(SUM(hits), 0) AS n FROM runs").fetchone()["n"]
        size = os.path.getsize(self.path) if os.path.exists(self.path) else 0
        return {
            "path": self.path,
            "schema_version": SCHEMA_VERSION,
            "runs": int(runs),
            "grids": int(grids),
            "total_hits": int(hits),
            "size_bytes": int(size),
        }
