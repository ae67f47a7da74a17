"""Content-addressed results store: one plain JSON file per run and per grid.

A run's signature is a deterministic function of ``(spec_hash, seed)``, so
:class:`~repro.scenarios.runner.ScenarioRunner` serves a stored payload instead
of executing it.  The store is a directory of files readable with ``cat``::

    <root>/runs/<spec_hash>-<seed>.json   spec, signature, payload, created_at
    <root>/grids/<sweep_hash>.json        name, axes, ordered cells, timestamps

A write goes to a temp file beside its target, is fsynced and renamed over it;
last-writer-wins is correct because runs are deterministic.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import re
import sys
import tempfile
import time
from dataclasses import dataclass
from typing import ClassVar, Dict, Iterator, List, Mapping, Optional, Sequence, Type, Union

from repro.scenarios.spec import ScenarioSpec

__all__ = ["ResultsStore", "ResultsStoreError", "StoredGrid", "StoredRun", "canonical_json",
           "default_store_path", "spec_hash", "sweep_hash"]

#: Folded into every content hash.  Bump in any change that moves run
#: signatures for unchanged specs: older files then miss once and age out
#: through ``store gc``.  2 — byte-plane compression; 3 — float32 aggregates
#: and globals; 4 — mantissa planes as stored blocks.
RESULTS_REVISION = 4

DEFAULT_STORE_PATH = os.path.join(".repro", "store")

#: What a content key or hash prefix must be before it reaches a path.
_HEX = re.compile(r"[0-9a-f]+")
_STAMP = "%Y-%m-%d %H:%M:%S"


class ResultsStoreError(RuntimeError):
    """The results store is unusable (a file in its place, unknown key, bad query)."""


def default_store_path() -> str:
    """The store directory the CLI uses: ``$REPRO_STORE`` or ``.repro/store``."""
    return os.environ.get("REPRO_STORE") or DEFAULT_STORE_PATH


def canonical_json(data: object) -> str:
    """Sorted keys, minimal separators: equal trees render identically."""
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


def _content_hash(tree: object) -> str:
    document = f"r{RESULTS_REVISION}:{canonical_json(tree)}"
    return hashlib.sha256(document.encode("utf-8")).hexdigest()


def spec_hash(spec: Union[ScenarioSpec, Mapping[str, object]]) -> str:
    """SHA-256 over :data:`RESULTS_REVISION` and the canonical spec JSON."""
    return _content_hash(spec.as_dict() if isinstance(spec, ScenarioSpec) else dict(spec))


def sweep_hash(sweep) -> str:
    """Content address of a parameter grid, formed like :func:`spec_hash`."""
    return _content_hash(sweep.as_dict())


@dataclass(frozen=True)
class StoredRun:
    """One stored scenario result (its spec and plain-data payload plus its key)."""

    #: Subdirectory, file-name pattern, required keys (field order) and types.
    DIR: ClassVar[str] = "runs"
    FILE: ClassVar["re.Pattern[str]"] = re.compile(r"[0-9a-f]+--?[0-9]+\.json")
    KEYS: ClassVar[Dict[str, object]] = {"spec_hash": str, "seed": int, "signature": str,
                                         "spec": dict, "payload": dict, "created_at": (int, float)}
    spec_hash: str
    seed: int
    signature: str
    spec: Dict[str, object]
    payload: Dict[str, object]
    created_at: float

    @property
    def scenario(self) -> str:
        return str(self.spec.get("name", ""))

    def file_name(self) -> str:
        return f"{self.spec_hash}-{self.seed}.json"

    def row(self) -> Dict[str, object]:
        """One ``store ls`` row; blank accuracy when the spec trains nothing."""
        trained = self.spec.get("training", {}).get("train_for_real", True)
        accuracy = self.payload.get("final_accuracy") if trained else None
        return {"spec_hash": self.spec_hash[:12], "seed": self.seed, "scenario": self.scenario,
                "rounds": self.payload.get("rounds_completed", ""),
                "accuracy": "" if accuracy is None else accuracy, "signature": self.signature[:12],
                "stored_at": time.strftime(_STAMP, time.localtime(self.created_at))}


@dataclass(frozen=True)
class StoredGrid:
    """One recorded grid run: its sweep hash plus ordered cell keys."""

    DIR: ClassVar[str] = "grids"
    FILE: ClassVar["re.Pattern[str]"] = re.compile(r"[0-9a-f]+\.json")
    KEYS: ClassVar[Dict[str, object]] = {"sweep_hash": str, "name": str, "axes": list,
                                         "cells": list, "created_at": (int, float),
                                         "updated_at": (int, float)}
    sweep_hash: str
    name: str
    axes: List[str]
    cells: List[Dict[str, object]]
    created_at: float
    updated_at: float

    def file_name(self) -> str:
        return f"{self.sweep_hash}.json"

    def row(self) -> Dict[str, object]:
        """One ``store ls --grids`` table row."""
        return {"sweep_hash": self.sweep_hash[:12], "name": self.name, "cells": len(self.cells),
                "axes": " x ".join(self.axes),
                "updated_at": time.strftime(_STAMP, time.localtime(self.updated_at))}


_Entry = Union[StoredRun, StoredGrid]


def _load(path: str, kind: Type[_Entry]) -> _Entry:
    """The entry stored at ``path``; ``ValueError`` if the store did not write it."""
    with open(path, "r", encoding="utf-8") as handle:
        document = json.load(handle)
    if not isinstance(document, dict) or not all(
            isinstance(document.get(key), types) for key, types in kind.KEYS.items()):
        raise ValueError(f"not a stored {kind.__name__}: a key is missing or mistyped")
    entry = kind(**{key: document[key] for key in kind.KEYS})
    if entry.file_name() != os.path.basename(path):
        raise ValueError(f"it holds the key of {entry.file_name()}")
    return entry


def _only(matches: List[_Entry], what: str, query: str, labels: List[str], hint: str) -> _Entry:
    """The one entry a ``store show`` query matched, else a typed error."""
    if not matches:
        raise ResultsStoreError(f"no {what} matches {query}")
    if len(matches) > 1:
        shown = ", ".join(labels[:6]) + ("…" if len(labels) > 6 else "")
        raise ResultsStoreError(f"{query} is ambiguous ({len(matches)} matches: {shown}); {hint}")
    return matches[0]


class ResultsStore:
    """The store directory at ``path``, created on open; a file there is refused.
    Each write lands whole, so a killed grid keeps every finished cell."""

    def __init__(self, path: Union[str, os.PathLike] = DEFAULT_STORE_PATH) -> None:
        self.path = os.fspath(path)
        if os.path.exists(self.path) and not os.path.isdir(self.path):
            raise ResultsStoreError(
                f"{self.path} is a file, not a results store directory; move the file aside")
        try:
            for kind in (StoredRun, StoredGrid):
                os.makedirs(os.path.join(self.path, kind.DIR), exist_ok=True)
        except OSError as exc:  # a file as parent, or in the place of runs/ or grids/
            raise ResultsStoreError(f"cannot open results store {self.path}: {exc}") from exc

    def _path(self, kind: Type[_Entry], key: str, seed: Optional[int] = None) -> str:
        if not (isinstance(key, str) and _HEX.fullmatch(key)):
            raise ResultsStoreError(f"{key!r} is not a lowercase-hex content key")
        name = key if seed is None else f"{key}-{int(seed)}"
        return os.path.join(self.path, kind.DIR, name + ".json")

    @staticmethod
    def _write(path: str, document: Mapping[str, object]) -> None:
        """Replace ``path`` by ``document`` whole: temp file, fsync, rename."""
        descriptor, temp = tempfile.mkstemp(dir=os.path.dirname(path), prefix=".", suffix=".tmp")
        try:  # as readable as the directory holding it, not mkstemp's owner-only 0600
            os.fchmod(descriptor, os.stat(os.path.dirname(path)).st_mode & 0o666)
            with os.fdopen(descriptor, "w", encoding="utf-8") as handle:
                # NOT key-sorted: the payload's key order is the rendered column
                # order, so stored→rendered stays byte-identical to fresh→rendered.
                handle.write(json.dumps(document))
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(temp, path)
        except BaseException:
            os.unlink(temp)
            raise

    def _names(self, kind: Type[_Entry]) -> List[str]:
        """The names of the entry files of ``kind``, temp files left out."""
        return sorted(filter(kind.FILE.fullmatch, os.listdir(os.path.join(self.path, kind.DIR))))

    def _scan(self, kind: Type[_Entry], prefix: str = "") -> Iterator[_Entry]:
        """Every entry of ``kind`` whose file name starts with ``prefix``; a
        file the store did not write is skipped with one stderr line."""
        for name in self._names(kind):
            if name.startswith(prefix):
                path = os.path.join(self.path, kind.DIR, name)
                try:
                    yield _load(path, kind)
                except (OSError, ValueError) as exc:
                    print(f"store: skipping {path} ({exc})", file=sys.stderr)

    def get_run(self, spec_hash: str, seed: int) -> Optional[StoredRun]:
        """The run stored under its content address, or None for a missing or
        bad file.  A hit refreshes the mtime, which ``gc`` reads as last use."""
        path = self._path(StoredRun, spec_hash, seed)
        try:
            run = _load(path, StoredRun)
        except (OSError, ValueError):
            return None
        with contextlib.suppress(OSError):  # a read-only store still serves
            os.utime(path)
        return run

    def put_run(self, spec_hash: str, seed: int, spec: Union[ScenarioSpec, Mapping[str, object]],
                signature: str, payload: Mapping[str, object]) -> None:
        """Write (or replace) one run's file under ``(spec_hash, seed)``."""
        self._write(self._path(StoredRun, spec_hash, seed), {
            "spec_hash": spec_hash, "seed": int(seed), "signature": signature,
            "spec": spec.as_dict() if isinstance(spec, ScenarioSpec) else dict(spec),
            "payload": dict(payload), "created_at": time.time()})

    def runs(self) -> List[StoredRun]:
        """Stored runs, newest first."""
        return sorted(self._scan(StoredRun), key=lambda run: (-run.created_at, run.spec_hash, run.seed))

    def resolve_run(self, prefix: str, seed: Optional[int] = None) -> StoredRun:
        """Find exactly one run by spec-hash prefix (CLI ``store show``)."""
        found = self._scan(StoredRun, prefix) if _HEX.fullmatch(prefix) else ()
        matches = sorted((run for run in found if seed is None or run.seed == int(seed)),
                         key=lambda run: run.seed)
        query = repr(prefix) + ("" if seed is None else f" with seed {seed}")
        return _only(matches, "stored run", query,
                     [f"{run.spec_hash[:12]}/seed={run.seed}" for run in matches],
                     "add more digits or --seed")

    def record_grid(self, sweep_hash: str, name: str, axes: Sequence[str],
                    cells: Sequence[Mapping[str, object]]) -> None:
        """Write (or refresh) one grid's ordered cells, each with its run key."""
        path = self._path(StoredGrid, sweep_hash)
        now = time.time()
        try:
            created = _load(path, StoredGrid).created_at
        except (OSError, ValueError):
            created = now
        self._write(path, {
            "sweep_hash": sweep_hash, "name": name, "axes": list(axes),
            "cells": [dict(cell) for cell in cells], "created_at": created, "updated_at": now})

    def grids(self) -> List[StoredGrid]:
        """Recorded grids, newest first."""
        return sorted(self._scan(StoredGrid), key=lambda grid: (-grid.updated_at, grid.sweep_hash))

    def resolve_grid(self, prefix: str) -> StoredGrid:
        """Find exactly one grid by sweep-hash prefix or exact name."""
        matches = [grid for grid in self.grids() if grid.name == prefix
                   or (_HEX.fullmatch(prefix) and grid.sweep_hash.startswith(prefix))]
        return _only(matches, "recorded grid", repr(prefix),
                     [f"{grid.name} ({grid.sweep_hash[:12]})" for grid in matches], "use the hash")

    def gc(self, older_than_s: Optional[float] = None, scenario: Optional[str] = None,
           delete_all: bool = False) -> Dict[str, int]:
        """Delete runs by time since last use (mtime) and/or scenario, or all of
        them, then every grid with a cell left unresolved; returns the counts."""
        if not delete_all and older_than_s is None and scenario is None:
            raise ResultsStoreError(
                "gc needs a selector: older_than_s, scenario, or delete_all=True")
        cutoff = None if older_than_s is None else time.time() - float(older_than_s)
        removed, kept = {"runs": 0, "grids": 0}, set()
        for run in self._scan(StoredRun):
            path = self._path(StoredRun, run.spec_hash, run.seed)
            if delete_all or ((cutoff is None or os.path.getmtime(path) < cutoff)
                              and (scenario is None or run.scenario == scenario)):
                os.remove(path)
                removed["runs"] += 1
            else:
                kept.add((run.spec_hash, run.seed))
        for grid in self._scan(StoredGrid):  # a cell that lacks its key resolves to nothing
            if not all(isinstance(cell, dict) and (cell.get("spec_hash"), cell.get("seed")) in kept
                       for cell in grid.cells):
                os.remove(self._path(StoredGrid, grid.sweep_hash))
                removed["grids"] += 1
        return removed

    def stats(self) -> Dict[str, object]:
        """File counts and bytes on disk, unread files included (``store ls``
        prints the bytes beside the counts of the entries it loaded)."""
        runs, grids = self._names(StoredRun), self._names(StoredGrid)
        size = sum(os.path.getsize(os.path.join(self.path, kind.DIR, name))
                   for kind, names in ((StoredRun, runs), (StoredGrid, grids)) for name in names)
        return {"path": self.path, "runs": len(runs), "grids": len(grids), "size_bytes": size}
