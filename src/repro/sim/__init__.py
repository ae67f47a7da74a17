"""Device, time and resource simulation.

The paper's evaluation runs on real machines and reads system stats through
``psutil`` / ``tracemalloc``.  This package provides the simulated equivalent:

* :class:`SimulationClock` — explicit logical time advanced by cost models;
* :class:`DeviceProfile` / :class:`DeviceFleet` — heterogeneous edge-device
  characteristics (compute speed, memory capacity, bandwidth) and their
  round-to-round drift;
* :class:`CostModel` — converts work (training samples, parameters received,
  aggregation fan-in) into seconds of simulated processing time, including the
  memory-overflow penalty the paper's motivation section describes;
* :class:`ResourceAccountant` — per-device memory accounting with high-water
  marks (the ``tracemalloc`` substitute);
* :class:`EventLog` — a timestamped record of everything that happened in an
  experiment, used by the harness to compute per-round and total delays.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "repro.sim.clock": ("SimulationClock",),
        "repro.sim.device": ("DeviceProfile", "DeviceStats", "DeviceFleet"),
        "repro.sim.tiers": ("DEVICE_TIERS",),
        "repro.sim.costs": ("CostModel",),
        "repro.sim.resources": ("ResourceAccountant", "MemoryOverflowEvent"),
        "repro.sim.events": (
            "CHURN_ACTIONS", "ChurnEvent", "ChurnSchedule", "EventLog", "SimEvent",
        ),
    },
)
