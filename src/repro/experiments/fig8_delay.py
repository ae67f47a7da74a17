"""Fig. 8 reproduction: total processing delay vs number of clients.

The paper's second evaluation runs 10 FL rounds with 5/10/15/20 contributing
clients under two aggregation topologies:

* *SDFL with 2-layer hierarchical aggregation* — 30 % of the clients act as
  aggregators, arranged root → intermediate aggregators → trainers;
* *SDFL with central aggregation* — a single cluster with one aggregator.

and reports the total processing delay of the 10 rounds.  The observed shape:
both curves grow with the client count, the hierarchical arrangement carries a
modest overhead at small scale (an extra aggregation level), and the gap
closes as the client count grows because the lone central aggregator becomes
the bottleneck (serialized reception of every model plus per-model processing,
``aggregate_fixed_s`` per contribution).  Memory plays no part here: no
aggregator in a ``fig8`` run buffers more than it holds, so the cost model's
overflow penalty never fires.

The reproduction runs the real SDFLMQ stack (messages, clustering, role
management) with ``train_for_real=False`` — the numerics of training do not
affect the delay metric, which is computed by the critical-path model from the
actual topology, payload sizes and device profiles.  The cost model below is
calibrated so one round with 5 clients lands in the high-single-digit-seconds
range on phone-class devices, matching the order of magnitude the paper
reports; absolute values are not expected to match the authors' testbed.
"""

from __future__ import annotations

import ctypes
import gc
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.runtime.experiment import ExperimentConfig, ExperimentResult, FLExperiment
from repro.sim.costs import CostModel
from repro.utils.validation import require_positive

__all__ = ["Fig8Config", "Fig8Result", "run_fig8", "FIG8_COST_MODEL"]

#: Cost model calibrated for the Fig. 8 workload: per-model aggregation
#: handling (deserialize, validate, reduce, re-serialize in a Python runtime
#: on a constrained device) dominates, which is what produces the linear
#: growth with client count that the paper reports.
FIG8_COST_MODEL = CostModel(
    train_time_per_sample_s=2.0e-3,
    aggregate_time_per_param_s=6.0e-9,
    aggregate_fixed_s=0.25,
    serialize_time_per_byte_s=5.0e-9,
    overflow_penalty_factor=3.0,
    coordinator_decision_s=0.02,
)


@dataclass(frozen=True)
class Fig8Config:
    """Parameters of the Fig. 8 reproduction."""

    client_counts: Tuple[int, ...] = (5, 10, 15, 20)
    fl_rounds: int = 10
    local_epochs: int = 5
    dataset_samples: int = 15000
    client_data_fraction: float = 0.04
    aggregator_fraction: float = 0.30
    device_tier: str = "phone"
    seed: int = 7
    fast: bool = False

    def effective(self) -> "Fig8Config":
        """Return the configuration actually used (shrunk when ``fast``)."""
        if not self.fast:
            return self
        return Fig8Config(
            client_counts=tuple(self.client_counts[:2]) or (5, 10),
            fl_rounds=min(self.fl_rounds, 3),
            local_epochs=self.local_epochs,
            dataset_samples=min(self.dataset_samples, 3000),
            client_data_fraction=self.client_data_fraction,
            aggregator_fraction=self.aggregator_fraction,
            device_tier=self.device_tier,
            seed=self.seed,
            fast=True,
        )


@dataclass
class Fig8Result:
    """Delay series for both topologies across the client-count sweep."""

    client_counts: List[int]
    hierarchical_total_delay_s: List[float]
    central_total_delay_s: List[float]
    hierarchical_results: List[ExperimentResult] = field(default_factory=list)
    central_results: List[ExperimentResult] = field(default_factory=list)

    def as_rows(self) -> List[Dict[str, object]]:
        """Row per client count: the two series the paper plots."""
        rows = []
        for i, n in enumerate(self.client_counts):
            rows.append(
                {
                    "num_clients": n,
                    "hierarchical_total_delay_s": self.hierarchical_total_delay_s[i],
                    "central_total_delay_s": self.central_total_delay_s[i],
                    "gap_s": self.hierarchical_total_delay_s[i] - self.central_total_delay_s[i],
                }
            )
        return rows

    @property
    def gaps(self) -> List[float]:
        """Hierarchical minus central delay at each client count."""
        return [
            h - c for h, c in zip(self.hierarchical_total_delay_s, self.central_total_delay_s)
        ]


def _experiment_config(num_clients: int, policy: str, config: Fig8Config) -> ExperimentConfig:
    return ExperimentConfig(
        name=f"fig8-{policy}-{num_clients}",
        num_clients=num_clients,
        fl_rounds=config.fl_rounds,
        local_epochs=config.local_epochs,
        dataset_samples=config.dataset_samples,
        client_data_fraction=config.client_data_fraction,
        clustering_policy=policy,
        aggregator_fraction=config.aggregator_fraction,
        device_tier=config.device_tier,
        train_for_real=False,
        seed=config.seed,
    )


#: glibc's ``mallopt`` parameter number for ``M_MMAP_THRESHOLD``.
_M_MMAP_THRESHOLD = -3


def _fix_mmap_threshold() -> None:
    """Serve every allocation of 128 KiB or more from its own mapping (glibc).

    glibc raises its mmap threshold whenever a mapped block is freed, so after
    the first experiment the next one's arrays land on the heap, and the
    sweep's peak RSS then depends on heap layout alone: one unused module
    constant moved ``fig8 --fast`` between 64 and 68 MiB.  With the threshold
    fixed, each experiment's arrays go back to the OS when they are freed.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError):  # not glibc
        return
    mallopt.argtypes = [ctypes.c_int, ctypes.c_int]
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, 128 * 1024)


def run_fig8(config: Fig8Config | None = None) -> Fig8Result:
    """Run the full client-count sweep for both aggregation topologies."""
    config = (config or Fig8Config()).effective()
    for count in config.client_counts:
        require_positive(count, "client count")
    _fix_mmap_threshold()

    totals: Dict[str, List[float]] = {"hierarchical": [], "central": []}
    results: Dict[str, List[ExperimentResult]] = {"hierarchical": [], "central": []}
    for num_clients in config.client_counts:
        for policy in totals:
            result = FLExperiment(
                _experiment_config(num_clients, policy, config), cost_model=FIG8_COST_MODEL
            ).run()
            totals[policy].append(result.total_delay_s)
            results[policy].append(result)
            # A finished experiment is cyclic garbage holding its dataset: free it
            # before the next one is built, not whenever the GC gets to it (peak
            # RSS of the sweep read 71 or 77 MiB depending on that timing).
            gc.collect()

    return Fig8Result(
        client_counts=list(config.client_counts),
        hierarchical_total_delay_s=totals["hierarchical"],
        central_total_delay_s=totals["central"],
        hierarchical_results=results["hierarchical"],
        central_results=results["central"],
    )
