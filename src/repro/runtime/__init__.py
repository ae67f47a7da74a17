"""Deterministic experiment runtime.

The runtime drives a complete SDFLMQ deployment inside one process:

* :class:`EventScheduler` — time-ordered discrete-event kernel draining
  deliveries from a heap keyed by ``(deliver_at, sequence)`` while advancing
  the simulation clock;
* :class:`MessagePump` — API-compatible facade over the scheduler so the
  publish/subscribe choreography progresses deterministically;
* :class:`CriticalPathDelayModel` — converts one round's topology, device
  fleet and payload sizes into the simulated *total processing delay* the
  paper reports (Fig. 8), by walking the aggregation tree's critical path;
* :class:`FLExperiment` — end-to-end orchestration of a federated learning
  run (dataset partitioning, broker + coordinator + parameter server + client
  construction, per-round training/upload/aggregation/global-update cycle,
  metric and delay collection).
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "repro.runtime.scheduler": ("EventScheduler",),
        "repro.runtime.pump": ("MessagePump",),
        "repro.runtime.delay": ("CriticalPathDelayModel", "RoundDelayBreakdown"),
        "repro.runtime.experiment": (
            "ExperimentConfig", "FLExperiment", "ExperimentResult", "RoundResult",
        ),
    },
)
