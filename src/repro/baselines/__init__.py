"""Baselines the paper compares against (explicitly or implicitly).

* :mod:`repro.baselines.offline` — local ("offline") training of a single
  model on a centralized data fraction; the comparison line in Fig. 7.
* :mod:`repro.baselines.centralized` — classic server-orchestrated FedAvg
  without any MQTT machinery; used by the topology ablation to sanity-check
  that SDFLMQ's hierarchical FedAvg matches a reference implementation.
* :mod:`repro.baselines.gossip` — fully decentralized (peer-to-peer gossip)
  FL, the third topology in the paper's Fig. 1, including its sequential-
  communication delay model.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "repro.baselines.offline": ("OfflineTrainingBaseline", "OfflineResult"),
        "repro.baselines.centralized": ("CentralizedFedAvgBaseline", "CentralizedResult"),
        "repro.baselines.gossip": ("GossipFLBaseline", "GossipResult"),
    },
)
