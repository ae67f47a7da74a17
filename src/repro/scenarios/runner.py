"""Deterministic execution of declarative scenarios and parameter grids.

:class:`ScenarioRunner` takes a :class:`~repro.scenarios.spec.ScenarioSpec`
(or a registry name), compiles it, and drives the experiment round by round —
admitting flash-crowd joiners and post-crash rejoiners at round boundaries —
then condenses the run into metric rows rendered through
:mod:`repro.experiments.report`.

Every result carries a *signature*: a SHA-256 over the scheduler's delivery
trace (every dispatched message's topic, endpoints and due time) and the
final global model parameters.  Two runs of the same spec with the same seed
must produce byte-identical signatures — that is the determinism contract
the scenario tests and the CLI acceptance check pin.

:meth:`ScenarioRunner.run_grid` extends the contract to parameter grids
(:class:`~repro.scenarios.sweep.SweepSpec`): cells are independent
simulations, so they fan out over a ``multiprocessing`` pool, and because
each cell is deterministic and results are ordered by cell index, a
1-worker and an N-worker run of the same grid are byte-identical.

Both entry points optionally consult a content-addressed
:class:`~repro.scenarios.store.ResultsStore` *before* executing: a stored
``(spec_hash, seed)`` payload is returned as-is (byte-identical signature,
identical metric rows), so re-running a grid after editing one axis value
re-executes only the changed cells, and an interrupted sweep resumes from
the cells that completed before the kill.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.experiments.report import (
    format_table,
    grid_seed_aggregate_rows,
    grid_summary_rows,
    messaging_vs_analytic_rows,
    write_grid_report,
)
from repro.scenarios.registry import get_scenario
from repro.scenarios.spec import ScenarioSpec
from repro.scenarios.store import ResultsStore, spec_hash, sweep_hash
from repro.scenarios.sweep import SweepSpec, get_grid

# The execution stack (numpy, the runtime, the compiler, obs.attach) loads
# where a run executes — ``execute_scenario`` and, so forked workers inherit
# it, ``_worker_pool`` — never on the store-hit path.
if TYPE_CHECKING:
    from multiprocessing.pool import Pool

    from repro.obs.trace import Tracer
    from repro.runtime.experiment import FLExperiment, RoundResult
    from repro.scenarios.compiler import CompiledScenario

__all__ = [
    "CellResult",
    "GridResult",
    "ScenarioResult",
    "ScenarioRunner",
    "execute_scenario",
]

#: Version stamp inside every stored payload, independent of the store's file
#: layout: bump when the payload key set changes incompatibly.
PAYLOAD_SCHEMA = 1


def _plain(value: object) -> object:
    """Recursively coerce a metric tree to JSON-native types.

    Metric rows occasionally carry numpy scalars (``np.float64`` *is* a
    ``float`` but ``np.int64`` is not an ``int``); storing plain natives
    keeps payloads ``json``-serializable and makes the stored→rendered text
    byte-identical to the fresh→rendered text.
    """
    import numpy as np  # only executed results reach here

    def plain(value: object) -> object:
        if isinstance(value, np.integer):
            return int(value)
        if isinstance(value, np.floating):
            return float(value)
        if isinstance(value, np.bool_):
            return bool(value)
        if isinstance(value, dict):
            return {str(key): plain(item) for key, item in value.items()}
        if isinstance(value, (list, tuple)):
            return [plain(item) for item in value]
        return value

    return plain(value)


def _stored_accuracy(payload: Mapping[str, object], trained: bool) -> Optional[float]:
    """A stored run's final accuracy; ``None`` for a timing-only run.

    Keyed off the spec rather than the payload: a timing-only payload holds
    ``null`` here, but one an older revision stored holds the untrained
    model's number, and both must render alike.
    """
    value = payload["final_accuracy"]
    return float(value) if trained and value is not None else None


def _stored_round_rows(
    payload: Mapping[str, object], trained: bool
) -> List[Dict[str, object]]:
    """A stored run's per-round rows, without accuracy for a timing-only run."""
    rows = [dict(row) for row in payload["round_rows"]]
    if not trained:
        for row in rows:
            row.pop("accuracy", None)
    return rows


@dataclass
class ScenarioResult:
    """Outcome of one scenario run.

    ``seed`` is the *effective* seed the simulation actually used — the
    runner threads a ``--seeds`` override through the spec before compiling,
    so ``result.seed``, ``result.spec.seed``, the summary row and the
    signature always agree.
    """

    spec: ScenarioSpec
    seed: int
    rounds: List[RoundResult] = field(default_factory=list)
    signature: str = ""
    clients_dropped: int = 0
    clients_admitted: int = 0
    stragglers_cut: int = 0
    faults_started: int = 0
    messages_processed: int = 0
    deliveries_dropped: int = 0
    total_traffic_bytes: int = 0
    final_sim_time_s: float = 0.0
    #: The executed experiment, for post-hoc inspection (fleet, event log,
    #: resource high-water marks).  Excluded from equality/repr noise.
    experiment: Optional[FLExperiment] = field(default=None, repr=False, compare=False)
    #: When the result came out of a :class:`ResultsStore` instead of an
    #: execution, this holds the stored plain-data payload and the
    #: rounds-derived accessors below read from it (``rounds`` stays empty —
    #: a cached result has no :class:`RoundResult` objects to rebuild).
    stored_payload: Optional[Dict[str, object]] = field(
        default=None, repr=False, compare=False
    )
    #: Unified metrics snapshot (``repro.obs.MetricsRegistry.snapshot()``)
    #: taken after the last round; persisted in the store payload (``scenario
    #: store show``) and written beside a ``--trace`` run's flight recorder.
    metrics: Dict[str, object] = field(default_factory=dict, repr=False, compare=False)

    @property
    def from_store(self) -> bool:
        """True when this result was served from the results store."""
        return self.stored_payload is not None

    @property
    def rounds_completed(self) -> int:
        """Completed round count (survives the store round trip)."""
        if self.stored_payload is not None:
            return int(self.stored_payload["rounds_completed"])
        return len(self.rounds)

    @property
    def trained(self) -> bool:
        """False for a timing-only run, which measures no accuracy."""
        return self.spec.training.train_for_real

    @property
    def final_accuracy(self) -> Optional[float]:
        """Test accuracy after the last completed round (0.0 if none ran).

        ``None`` for a timing-only run.
        """
        if self.stored_payload is not None:
            return _stored_accuracy(self.stored_payload, self.trained)
        if not self.trained:
            return None
        return self.rounds[-1].test_accuracy if self.rounds else 0.0

    @property
    def total_delay_s(self) -> float:
        """Summed analytic round delays."""
        if self.stored_payload is not None:
            return float(self.stored_payload["total_delay_s"])
        return float(sum(r.delay.total_s for r in self.rounds))

    @property
    def total_messaging_s(self) -> float:
        """Summed observed messaging makespans (the event-scheduler view)."""
        if self.stored_payload is not None:
            return float(self.stored_payload["total_messaging_s"])
        return float(sum(r.delay.messaging_s for r in self.rounds))

    @property
    def total_planning_s(self) -> float:
        """Summed per-round time spent in the PLANNING phase."""
        if self.stored_payload is not None:
            return float(self.stored_payload["total_planning_s"])
        return float(sum(r.planning_s for r in self.rounds))

    @property
    def total_collecting_s(self) -> float:
        """Summed per-round time spent in the COLLECTING phase."""
        if self.stored_payload is not None:
            return float(self.stored_payload["total_collecting_s"])
        return float(sum(r.collecting_s for r in self.rounds))

    @property
    def total_aggregating_s(self) -> float:
        """Summed per-round time spent in the AGGREGATING phase."""
        if self.stored_payload is not None:
            return float(self.stored_payload["total_aggregating_s"])
        return float(sum(r.aggregating_s for r in self.rounds))

    def round_rows(self) -> List[Dict[str, object]]:
        """Per-round metric rows (rendered by ``format_table``).

        A timing-only run has no ``accuracy`` column.
        """
        if self.stored_payload is not None:
            return _stored_round_rows(self.stored_payload, self.trained)
        rows: List[Dict[str, object]] = []
        for result in self.rounds:
            row: Dict[str, object] = {
                "round": result.round_index,
                "participants": result.participants,
            }
            if self.trained:
                row["accuracy"] = result.test_accuracy
            row.update(
                {
                    "round_delay_s": result.delay.total_s,
                    "messaging_s": result.delay.messaging_s,
                    "planning_s": result.planning_s,
                    "collecting_s": result.collecting_s,
                    "aggregating_s": result.aggregating_s,
                    "messages": result.messages_routed,
                    "traffic_bytes": result.traffic_bytes,
                    "roles_changed": result.roles_changed,
                    "stragglers_cut": result.stragglers_cut,
                }
            )
            rows.append(row)
        return rows

    def summary_row(self) -> Dict[str, object]:
        """One-line summary row (the ``scenario sweep`` table format).

        A timing-only run has no ``final_accuracy`` column.
        """
        row: Dict[str, object] = {
            "scenario": self.spec.name,
            "seed": self.seed,
            "rounds": self.rounds_completed,
        }
        if self.trained:
            row["final_accuracy"] = self.final_accuracy
        row.update(
            {
                "total_delay_s": self.total_delay_s,
                "sim_time_s": self.final_sim_time_s,
                "messages": self.messages_processed,
                "traffic_bytes": self.total_traffic_bytes,
                "dropped": self.clients_dropped,
                "admitted": self.clients_admitted,
                "cut": self.stragglers_cut,
                "faults": self.faults_started,
                "signature": self.signature[:12],
            }
        )
        return row

    # ------------------------------------------------------- store payloads

    def to_payload(self) -> Dict[str, object]:
        """Condense to the plain-data payload the results store persists.

        The payload carries everything a cached result must reproduce —
        metric scalars, per-round rows and the signature — as JSON-native
        values, so storing and re-loading it renders byte-identically to the
        fresh result.
        """
        return _plain(
            {
                "payload_schema": PAYLOAD_SCHEMA,
                "scenario": self.spec.name,
                "seed": int(self.seed),
                "signature": self.signature,
                "rounds_completed": self.rounds_completed,
                "final_accuracy": self.final_accuracy,
                "total_delay_s": self.total_delay_s,
                "total_messaging_s": self.total_messaging_s,
                "total_planning_s": self.total_planning_s,
                "total_collecting_s": self.total_collecting_s,
                "total_aggregating_s": self.total_aggregating_s,
                "sim_time_s": float(self.final_sim_time_s),
                "messages": int(self.messages_processed),
                "traffic_bytes": int(self.total_traffic_bytes),
                "deliveries_dropped": int(self.deliveries_dropped),
                "clients_dropped": int(self.clients_dropped),
                "clients_admitted": int(self.clients_admitted),
                "stragglers_cut": int(self.stragglers_cut),
                "faults_started": int(self.faults_started),
                "round_rows": self.round_rows(),
                "metrics": self.metrics,
            }
        )

    @classmethod
    def from_payload(
        cls, spec: ScenarioSpec, payload: Mapping[str, object]
    ) -> "ScenarioResult":
        """Rebuild a (store-served) result from its plain-data payload."""
        payload = dict(payload)
        return cls(
            spec=spec,
            seed=int(payload["seed"]),
            rounds=[],
            signature=str(payload["signature"]),
            clients_dropped=int(payload["clients_dropped"]),
            clients_admitted=int(payload["clients_admitted"]),
            stragglers_cut=int(payload["stragglers_cut"]),
            faults_started=int(payload["faults_started"]),
            messages_processed=int(payload["messages"]),
            deliveries_dropped=int(payload.get("deliveries_dropped", 0)),
            total_traffic_bytes=int(payload["traffic_bytes"]),
            final_sim_time_s=float(payload["sim_time_s"]),
            experiment=None,
            stored_payload=payload,
            metrics=dict(payload.get("metrics", {})),
        )


@dataclass
class CellResult:
    """Slim, picklable outcome of one grid cell.

    Grid cells run in worker processes, so the result deliberately carries
    only plain data — metric scalars, the per-round rows and the signature —
    never the executed experiment.  ``coordinates`` is the cell's grid
    metadata (axis path → value, in axis order).
    """

    index: int
    coordinates: Dict[str, object]
    scenario: str
    seed: int
    signature: str
    rounds_completed: int
    #: ``None`` for a timing-only cell (see :attr:`ScenarioResult.final_accuracy`).
    final_accuracy: Optional[float]
    total_s: float
    messaging_s: float
    planning_s: float
    collecting_s: float
    aggregating_s: float
    sim_time_s: float
    messages: int
    traffic_bytes: int
    clients_dropped: int
    clients_admitted: int
    stragglers_cut: int
    faults_started: int
    round_rows: List[Dict[str, object]] = field(default_factory=list)
    metrics: Dict[str, object] = field(default_factory=dict)

    @classmethod
    def from_scenario(
        cls, index: int, coordinates: Dict[str, object], result: ScenarioResult
    ) -> "CellResult":
        """Condense a full :class:`ScenarioResult` into the picklable cell form."""
        return cls(
            index=index,
            coordinates=dict(coordinates),
            scenario=result.spec.name,
            seed=result.seed,
            signature=result.signature,
            rounds_completed=len(result.rounds),
            final_accuracy=result.final_accuracy,
            total_s=result.total_delay_s,
            messaging_s=result.total_messaging_s,
            planning_s=result.total_planning_s,
            collecting_s=result.total_collecting_s,
            aggregating_s=result.total_aggregating_s,
            sim_time_s=result.final_sim_time_s,
            messages=result.messages_processed,
            traffic_bytes=result.total_traffic_bytes,
            clients_dropped=result.clients_dropped,
            clients_admitted=result.clients_admitted,
            stragglers_cut=result.stragglers_cut,
            faults_started=result.faults_started,
            round_rows=result.round_rows(),
            metrics=dict(result.metrics),
        )

    # ------------------------------------------------------- store payloads

    def to_payload(self) -> Dict[str, object]:
        """The store payload (same shape :meth:`ScenarioResult.to_payload` emits).

        ``index`` and ``coordinates`` are grid-relative metadata, not
        content, so they stay out of the payload — the same ``(spec_hash,
        seed)`` entry serves every grid (and every single run) that lands on
        this spec.
        """
        return _plain(
            {
                "payload_schema": PAYLOAD_SCHEMA,
                "scenario": self.scenario,
                "seed": int(self.seed),
                "signature": self.signature,
                "rounds_completed": int(self.rounds_completed),
                "final_accuracy": self.final_accuracy,
                "total_delay_s": float(self.total_s),
                "total_messaging_s": float(self.messaging_s),
                "total_planning_s": float(self.planning_s),
                "total_collecting_s": float(self.collecting_s),
                "total_aggregating_s": float(self.aggregating_s),
                "sim_time_s": float(self.sim_time_s),
                "messages": int(self.messages),
                "traffic_bytes": int(self.traffic_bytes),
                "clients_dropped": int(self.clients_dropped),
                "clients_admitted": int(self.clients_admitted),
                "stragglers_cut": int(self.stragglers_cut),
                "faults_started": int(self.faults_started),
                "round_rows": self.round_rows,
                "metrics": self.metrics,
            }
        )

    @classmethod
    def from_payload(
        cls,
        index: int,
        coordinates: Dict[str, object],
        payload: Mapping[str, object],
        trained: bool = True,
    ) -> "CellResult":
        """Rebuild a grid cell from a stored payload plus its grid position.

        ``trained`` is the cell spec's ``training.train_for_real``.
        """
        return cls(
            index=index,
            coordinates=dict(coordinates),
            scenario=str(payload["scenario"]),
            seed=int(payload["seed"]),
            signature=str(payload["signature"]),
            rounds_completed=int(payload["rounds_completed"]),
            final_accuracy=_stored_accuracy(payload, trained),
            total_s=float(payload["total_delay_s"]),
            messaging_s=float(payload["total_messaging_s"]),
            planning_s=float(payload["total_planning_s"]),
            collecting_s=float(payload["total_collecting_s"]),
            aggregating_s=float(payload["total_aggregating_s"]),
            sim_time_s=float(payload["sim_time_s"]),
            messages=int(payload["messages"]),
            traffic_bytes=int(payload["traffic_bytes"]),
            clients_dropped=int(payload["clients_dropped"]),
            clients_admitted=int(payload["clients_admitted"]),
            stragglers_cut=int(payload["stragglers_cut"]),
            faults_started=int(payload["faults_started"]),
            round_rows=_stored_round_rows(payload, trained),
            metrics=dict(payload.get("metrics", {})),
        )


@dataclass
class GridResult:
    """Outcome of one parameter-grid run: ordered cells plus run metadata.

    ``cached_cells``/``executed_cells`` split the grid between store hits
    and actual executions (``used_store`` says whether a store was consulted
    at all) — re-running an unchanged grid against a warm store reports
    ``executed_cells == 0``.
    """

    sweep: SweepSpec
    cells: List[CellResult]
    workers: int
    elapsed_s: float = 0.0
    used_store: bool = False
    cached_cells: int = 0
    executed_cells: int = 0

    def summary_rows(self) -> List[Dict[str, object]]:
        """Per-cell metric rows (see :func:`grid_summary_rows`)."""
        return grid_summary_rows(self.cells)

    def comparison_rows(self) -> List[Dict[str, object]]:
        """messaging-vs-analytic rows (see :func:`messaging_vs_analytic_rows`)."""
        return messaging_vs_analytic_rows(self.cells)

    def seed_aggregate_rows(self) -> List[Dict[str, object]]:
        """Across-seed mean/stddev rows; empty unless the grid has a seed axis."""
        return grid_seed_aggregate_rows(self.cells)

    def write_report(self, out_dir: str) -> Dict[str, str]:
        """Write the CSV/markdown/signature bundle (see :func:`write_grid_report`)."""
        return write_grid_report(self.cells, out_dir)


def _run_grid_cell(
    payload: Tuple[int, Dict[str, object], Dict[str, object], Optional[str]]
) -> CellResult:
    """Worker entry point: run one grid cell from its JSON-safe payload.

    Top-level (picklable) so it works under both ``fork`` and ``spawn``
    start methods; the payload is ``(index, coordinates, spec_dict,
    trace_dir)``.  With a trace directory the cell writes its own flight
    recorder files (prefixed ``cell-<index>``), exactly like a single run.
    """
    index, coordinates, spec_dict, trace_dir = payload
    result = ScenarioRunner().run(
        ScenarioSpec.from_dict(spec_dict),
        trace_dir=trace_dir,
        trace_prefix=f"cell-{index:03d}_" if trace_dir else "",
    )
    cell = CellResult.from_scenario(index, coordinates, result)
    # A deployment is a web of reference cycles: free it at the cell boundary,
    # so a long-lived worker holds one cell's memory rather than however many
    # the collector's phase lets pile up.
    del result
    gc.collect()
    return cell


# ------------------------------------------------------------ execution core


def _dump_flight_recorder(
    trace_dir: Union[str, os.PathLike], stem: str, tracer: Tracer
) -> str:
    """Dump the ring buffer on anomaly (deadline restart, crash, stuck round).

    Overwrites the previous dump: the ring is cumulative, so the last
    anomaly's dump contains every retained event.
    """
    os.makedirs(trace_dir, exist_ok=True)
    path = os.path.join(os.fspath(trace_dir), f"{stem}.anomaly.trace.json")
    with open(path, "w") as handle:
        handle.write(tracer.chrome_json())
    return path


def _write_trace_files(
    trace_dir: Union[str, os.PathLike],
    stem: str,
    tracer: Tracer,
    metrics: Mapping[str, object],
) -> Dict[str, str]:
    """Write the run's Chrome trace, JSONL trace and metrics snapshot."""
    os.makedirs(trace_dir, exist_ok=True)
    base = os.fspath(trace_dir)
    paths = {
        "chrome": os.path.join(base, f"{stem}.trace.json"),
        "jsonl": os.path.join(base, f"{stem}.trace.jsonl"),
        "metrics": os.path.join(base, f"{stem}.metrics.json"),
    }
    with open(paths["chrome"], "w") as handle:
        handle.write(tracer.chrome_json())
    with open(paths["jsonl"], "w") as handle:
        handle.write(tracer.to_jsonl())
    with open(paths["metrics"], "w") as handle:
        json.dump(metrics, handle, sort_keys=True, indent=2)
        handle.write("\n")
    return paths


def _signature(compiled: CompiledScenario) -> str:
    """SHA-256 over the dispatch-order trace digest and the final global model."""
    import numpy as np

    experiment = compiled.experiment
    digest = hashlib.sha256()
    digest.update((experiment.scheduler.trace_digest or "no-trace").encode())
    survivors = experiment.participants()
    if survivors:
        state = experiment.client_models[survivors[0].client_id].network.parameters()
        for key in sorted(state):
            digest.update(key.encode())
            digest.update(np.ascontiguousarray(state[key]).tobytes())
    return digest.hexdigest()


def execute_scenario(
    spec: ScenarioSpec,
    trace_dir: Union[str, os.PathLike, None] = None,
    trace_prefix: str = "",
) -> ScenarioResult:
    """Compile and drive one spec to completion (no store).

    The execution core of :meth:`ScenarioRunner.run`: compile → attach
    metrics/tracer → admission-aware round loop → signature.
    """
    from repro.obs.attach import attach_experiment_metrics, attach_experiment_tracer
    from repro.obs.metrics import MetricsRegistry
    from repro.obs.trace import Tracer
    from repro.scenarios.compiler import compile_scenario

    effective_seed = spec.seed
    compiled = compile_scenario(spec)
    experiment = compiled.experiment

    registry = MetricsRegistry()
    attach_experiment_metrics(experiment, registry, injector=compiled.injector)
    tracer: Optional[Tracer] = None
    if trace_dir is not None:
        tracer = Tracer()
        attach_experiment_tracer(experiment, tracer, injector=compiled.injector)
        stem = f"{trace_prefix}{spec.name}_{effective_seed}"
        tracer.dump_hook = lambda kind: _dump_flight_recorder(trace_dir, stem, tracer)

    rounds: List[RoundResult] = []
    session = experiment.coordinator.session(experiment.config.session_id)
    try:
        for round_index in range(spec.training.rounds):
            for client_id in compiled.due_admissions(experiment.clock.now()):
                experiment.admit_client(client_id)
            if not session.is_active:
                break
            rounds.append(experiment.run_round(round_index))
    except RuntimeError as error:
        if tracer is not None:
            # Stuck round: record the anomaly (which dumps the flight
            # recorder) before propagating.
            tracer.note_anomaly("stuck-round", args={"error": str(error)})
        raise

    result = ScenarioResult(
        spec=spec,
        seed=effective_seed,
        rounds=rounds,
        signature=_signature(compiled),
        clients_dropped=experiment.coordinator.clients_dropped,
        clients_admitted=experiment.clients_admitted,
        stragglers_cut=experiment.stragglers_cut_total,
        faults_started=compiled.injector.faults_started,
        messages_processed=experiment.scheduler.messages_processed,
        deliveries_dropped=experiment.scheduler.deliveries_dropped,
        total_traffic_bytes=experiment._total_traffic_bytes(),
        final_sim_time_s=float(experiment.clock.now()),
        experiment=experiment,
        metrics=_plain(registry.snapshot()),
    )
    if tracer is not None:
        _write_trace_files(
            trace_dir,
            f"{trace_prefix}{spec.name}_{effective_seed}",
            tracer,
            result.metrics,
        )
    return result


class ScenarioRunner:
    """Runs one scenario, a named suite, or a parameter grid deterministically.

    Grid cells fan out over a *persistent* ``multiprocessing`` pool: the
    first ``run_grid`` call spins the workers up, and later calls with the
    same worker count reuse them.  Under the ``spawn`` start method each
    worker re-imports the full stack on startup, so many-grid sessions
    (sweep studies, notebooks, the CLI looping over registry grids) would
    otherwise pay that import once per grid — with the persistent pool they
    pay it once per session.  Call :meth:`close` (or use the runner as a
    context manager) to release the workers early; they are daemonic, so an
    exiting interpreter reaps them regardless.

    ``store`` attaches a content-addressed results cache — a
    :class:`~repro.scenarios.store.ResultsStore` instance or the path of its
    directory.  With a store attached, :meth:`run` and :meth:`run_grid` consult
    it before executing and persist every fresh result into it; the
    ``store_hits``/``store_misses`` counters track the split.

    Example
    -------
    >>> from repro.scenarios import ScenarioRunner
    >>> runner = ScenarioRunner(store=".repro/store")  # doctest: +SKIP
    >>> result = runner.run("baseline", seed=7)       # doctest: +SKIP
    >>> result.seed, result.signature == runner.run("baseline", seed=7).signature
    (7, True)                                          # doctest: +SKIP
    >>> grid = runner.run_grid("deadline-tier-mix", workers=4)  # doctest: +SKIP
    >>> grid.signatures() == runner.run_grid("deadline-tier-mix").signatures()
    True                                               # doctest: +SKIP
    """

    def __init__(
        self, store: Union[ResultsStore, str, os.PathLike, None] = None
    ) -> None:
        self._pool: Optional[Pool] = None
        self._pool_workers = 0
        self._store: Optional[ResultsStore] = (
            ResultsStore(store) if isinstance(store, (str, os.PathLike)) else store
        )
        #: Results served from / missed in the attached store (cumulative).
        self.store_hits = 0
        self.store_misses = 0

    @property
    def store(self) -> Optional[ResultsStore]:
        """The attached results store, if any."""
        return self._store

    # ----------------------------------------------------------- worker pool

    def _worker_pool(self, workers: int) -> Pool:
        """The persistent pool, (re)built when the worker count changes."""
        if self._pool is not None and self._pool_workers == workers:
            return self._pool
        self._shutdown_pool(graceful=True)
        import multiprocessing

        # Load the execution stack before forking: the workers inherit it
        # instead of each importing (and paying CPU for) it themselves.
        import repro.obs.attach  # noqa: F401
        import repro.scenarios.compiler  # noqa: F401

        methods = multiprocessing.get_all_start_methods()
        context = multiprocessing.get_context("fork" if "fork" in methods else "spawn")
        # Frozen, the inherited objects stay out of the workers' per-cell
        # collections (and their pages stay shared with this process).
        gc.freeze()
        try:
            self._pool = context.Pool(processes=workers)
        finally:
            gc.unfreeze()
        self._pool_workers = workers
        return self._pool

    def _shutdown_pool(self, graceful: bool) -> None:
        """Tear the pool down: gracefully (finish in-flight cells, then join)
        or hard (``terminate`` — error paths and ``__del__`` only, where
        in-flight work is already lost or the interpreter is going away)."""
        if self._pool is None:
            return
        if graceful:
            self._pool.close()
        else:
            self._pool.terminate()
        self._pool.join()
        self._pool = None
        self._pool_workers = 0

    def close(self) -> None:
        """Gracefully shut down the worker pool (idempotent).

        Uses ``close()`` + ``join()`` so in-flight grid cells run to
        completion (and, with a store attached, get persisted) instead of
        being killed mid-simulation; hard ``terminate()`` is reserved for
        ``__del__`` and error paths.
        """
        self._shutdown_pool(graceful=True)

    def __enter__(self) -> "ScenarioRunner":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - GC timing dependent
        try:
            self._shutdown_pool(graceful=False)
        except Exception:
            pass

    def run(
        self,
        scenario: Union[str, ScenarioSpec],
        seed: Optional[int] = None,
        use_store: bool = True,
        trace_dir: Union[str, os.PathLike, None] = None,
        trace_prefix: str = "",
    ) -> ScenarioResult:
        """Compile and execute ``scenario`` (a spec or a registry name).

        ``seed`` overrides the spec's seed, so one spec sweeps cleanly over
        seeds; the override is threaded through the spec *before* compiling,
        so the result's ``seed``, its spec, the summary row and the
        signature all reflect the effective seed.  The same (spec, effective
        seed) pair always yields an identical delivery order, final model
        state, and therefore signature.

        With a store attached (and ``use_store`` left on), the run is first
        looked up by its content address; a hit skips execution entirely and
        returns the stored payload — same signature byte for byte, same
        metric rows, ``result.from_store`` set, ``result.experiment`` None.

        ``trace_dir`` attaches the sim-time flight recorder and writes
        ``<prefix><scenario>_<seed>.trace.json`` (Chrome ``trace_event``),
        ``….trace.jsonl`` and ``….metrics.json`` into the directory after
        the run.  Tracing is determinism-neutral (the signature is
        byte-identical with it on or off) but forces execution: a store hit
        cannot reproduce a trace, so the lookup is skipped (the fresh result
        is still persisted).
        """
        spec = get_scenario(scenario) if isinstance(scenario, str) else scenario
        if seed is not None:
            spec = spec.with_seed(seed)
        # Single source of truth for every seed-bearing artefact below: the
        # spec the experiment was actually compiled from.
        effective_seed = spec.seed
        content_key: Optional[str] = None
        if self._store is not None and use_store:
            content_key = spec_hash(spec)
            if trace_dir is None:
                stored = self._store.get_run(content_key, effective_seed)
                if stored is not None:
                    self.store_hits += 1
                    return ScenarioResult.from_payload(spec, stored.payload)
            self.store_misses += 1
        result = execute_scenario(spec, trace_dir=trace_dir, trace_prefix=trace_prefix)
        if content_key is not None:
            self._store.put_run(
                content_key, effective_seed, spec, result.signature, result.to_payload()
            )
        return result

    def run_suite(
        self,
        names: Sequence[str],
        seeds: Optional[Sequence[int]] = None,
    ) -> List[ScenarioResult]:
        """Run every (scenario, seed) combination; returns the results in order.

        Suite results drop their ``experiment`` handle — a sweep only reads
        the metric rows, and keeping every deployment (datasets, per-client
        models, brokers) alive would grow memory linearly with the sweep.
        """
        results: List[ScenarioResult] = []
        for name in names:
            for seed in seeds if seeds is not None else (None,):
                result = self.run(name, seed=seed)
                result.experiment = None
                results.append(result)
        return results

    # ------------------------------------------------------------------ grids

    def run_grid(
        self,
        grid: Union[str, SweepSpec],
        workers: int = 1,
        use_store: bool = True,
        trace_dir: Union[str, os.PathLike, None] = None,
    ) -> GridResult:
        """Execute every cell of a parameter grid; returns ordered results.

        ``grid`` is a :class:`~repro.scenarios.sweep.SweepSpec` or a name
        from the grid registry.  With ``workers > 1`` the (independent,
        deterministic) cells fan out over the runner's persistent
        ``multiprocessing`` pool (kept alive across ``run_grid`` calls so a
        many-grid session does not re-import the stack per grid per worker);
        each cell's signature depends only on its spec, and results are
        assembled in cell-index order regardless of completion order, so a
        1-worker and an N-worker run of the same grid produce byte-identical
        reports — the grid determinism tests and the CI smoke pin exactly
        that.

        With a store attached, every cell is first looked up by content
        address — only the misses execute (editing one axis value of a
        12-cell grid re-runs only the changed cells) — and every executed
        cell is persisted *as it completes*, so a sweep killed mid-grid
        resumes from its stored cells on the next invocation
        (``scenario grid --resume``).
        """
        sweep = get_grid(grid) if isinstance(grid, str) else grid
        cells = sweep.cells()
        workers = max(1, int(workers))
        store = self._store if use_store else None
        start = time.perf_counter()

        cached: List[CellResult] = []
        pending: List = cells
        hashes: Dict[int, str] = {}
        if store is not None:
            for cell in cells:
                hashes[cell.index] = spec_hash(cell.spec)
            if trace_dir is None:
                pending = []
                for cell in cells:
                    stored = store.get_run(hashes[cell.index], cell.spec.seed)
                    if stored is not None:
                        cached.append(
                            CellResult.from_payload(
                                cell.index,
                                dict(cell.coordinates),
                                stored.payload,
                                trained=cell.spec.training.train_for_real,
                            )
                        )
                    else:
                        pending.append(cell)
            # Tracing forces execution (a cached cell has no trace to
            # replay), so the consult is skipped and every cell is pending;
            # fresh results are still persisted below.
            self.store_hits += len(cached)
            self.store_misses += len(pending)

        spec_by_index = {cell.index: cell.spec for cell in pending}
        trace_base = os.fspath(trace_dir) if trace_dir is not None else None
        payloads = [
            (cell.index, dict(cell.coordinates), cell.spec.as_dict(), trace_base)
            for cell in pending
        ]
        executed: List[CellResult] = []

        def record(result: CellResult) -> None:
            executed.append(result)
            if store is not None:
                # Commit each cell the moment it lands: an interrupted sweep
                # keeps everything that finished (the --resume contract).
                store.put_run(
                    hashes[result.index],
                    result.seed,
                    spec_by_index[result.index],
                    result.signature,
                    result.to_payload(),
                )

        if not payloads:
            pass
        elif workers == 1 or len(payloads) <= 1:
            for payload in payloads:
                record(_run_grid_cell(payload))
        else:
            # Never spawn more workers than there are cells — idle processes
            # still pay the full interpreter + import cost under spawn.
            pool_size = min(workers, len(payloads))
            pool = self._worker_pool(pool_size)
            try:
                # Unordered: results are persisted as they arrive and sorted
                # below, so completion order never reaches the caller.
                for result in pool.imap_unordered(_run_grid_cell, payloads, chunksize=1):
                    record(result)
            except BaseException:
                # In-flight cells are unrecoverable here — hard-stop the pool
                # (the graceful close()+join() path would block on them).
                self._shutdown_pool(graceful=False)
                raise
        elapsed = time.perf_counter() - start

        results = sorted(cached + executed, key=lambda cell: cell.index)
        if store is not None:
            store.record_grid(
                sweep_hash(sweep),
                sweep.name,
                sweep.axis_paths,
                [
                    {
                        "index": cell.index,
                        "coordinates": cell.coordinates,
                        "spec_hash": hashes[cell.index],
                        "seed": cell.seed,
                        "signature": cell.signature,
                    }
                    for cell in results
                ],
            )
        return GridResult(
            sweep=sweep,
            cells=results,
            workers=workers,
            elapsed_s=elapsed,
            used_store=store is not None,
            cached_cells=len(cached),
            executed_cells=len(executed),
        )

    # -------------------------------------------------------------- rendering

    @staticmethod
    def format_rounds(result: ScenarioResult, precision: int = 4) -> str:
        """Per-round table for one scenario run."""
        return format_table(result.round_rows(), precision=precision)

    @staticmethod
    def format_summary(results: Sequence[ScenarioResult], precision: int = 4) -> str:
        """Summary table over several runs (one row each)."""
        return format_table([r.summary_row() for r in results], precision=precision)

    @staticmethod
    def format_grid(grid: GridResult, precision: int = 4) -> str:
        """Per-cell summary table for one grid run."""
        return format_table(grid.summary_rows(), precision=precision)

    @staticmethod
    def format_comparison(grid: GridResult, precision: int = 4) -> str:
        """messaging-vs-analytic comparison table for one grid run."""
        return format_table(grid.comparison_rows(), precision=precision)

    @staticmethod
    def format_seed_aggregate(grid: GridResult, precision: int = 4) -> str:
        """Across-seed mean/stddev table (empty-grid text without a seed axis)."""
        return format_table(grid.seed_aggregate_rows(), precision=precision)
