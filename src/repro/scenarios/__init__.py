"""Declarative scenario engine with fault injection.

This package turns the event-driven runtime into a scenario *library*: a
:class:`ScenarioSpec` (a plain dataclass tree, loadable from dict/JSON)
describes fleet composition, broker topology, link conditions, a churn
timeline and a fault-injection plan; the compiler wires it into a live
:class:`~repro.runtime.experiment.FLExperiment`; the runner executes it
deterministically (same spec + seed ⇒ identical delivery order, final model
state and result signature) and reports per-scenario metric rows.

* :mod:`repro.scenarios.spec` — the declarative specification tree,
* :mod:`repro.scenarios.sweep` — parameter grids (``SweepSpec`` axes over
  dotted spec paths, expanded into validated cells + named grid registry),
* :mod:`repro.scenarios.faults` — timed fault execution on the scheduler,
* :mod:`repro.scenarios.compiler` — spec → wired experiment,
* :mod:`repro.scenarios.registry` — the nine named built-ins (``baseline``,
  ``heavy-churn``, ``straggler-heavy``, ``degraded-wan``,
  ``degraded-wan-int8``, ``bridged-multi-region``, ``flash-crowd``,
  ``round2-blackout``, ``mid-round-flash-crowd``),
* :mod:`repro.scenarios.runner` — deterministic execution (single runs and
  multiprocessing grid fan-out) + reporting,
* :mod:`repro.scenarios.schema` — generated spec field reference (docs).
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "repro.scenarios.compiler": (
            "CompiledScenario", "build_experiment_config", "compile_scenario",
        ),
        "repro.scenarios.faults": ("FaultInjector",),
        "repro.scenarios.registry": (
            "get_scenario", "register_scenario", "scenario_names", "scenario_summaries",
        ),
        "repro.scenarios.runner": ("CellResult", "GridResult", "ScenarioResult", "ScenarioRunner"),
        "repro.scenarios.schema": ("schema_markdown",),
        "repro.scenarios.store": (
            "ResultsStore", "ResultsStoreError", "canonical_json", "default_store_path",
            "spec_hash", "sweep_hash",
        ),
        "repro.scenarios.spec": (
            "FAULT_KINDS", "FaultSpec", "FleetSpec", "NetworkSpec", "ScenarioSpec",
            "ScenarioSpecError", "TopologySpec", "TrainingSpec",
        ),
        "repro.scenarios.sweep": (
            "AxisSpec", "GridCell", "SweepSpec", "get_grid", "grid_names", "grid_summaries",
            "register_grid",
        ),
    },
)
