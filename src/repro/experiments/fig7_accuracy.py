"""Fig. 7 reproduction: accuracy convergence, offline training vs SDFL.

The paper's first evaluation compares the round-by-round test accuracy of

* *offline training* — one pipeline training the MLP on 5 % of MNIST, and
* *2-layer hierarchical SDFL with 5 clients* — each client holding 1 % of
  MNIST, FedAvg aggregation, 5 local epochs per round,

over 10 FL rounds.  The reported take-away is that the federated run converges
to ≈90 %, close to (slightly below) the offline curve (≈93 %).

This module runs both sides on the synthetic-digits stand-in dataset with the
same relative data budgets (5 clients × 1 % vs a single 5 % pipeline) and
returns the two accuracy series.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.baselines.offline import OfflineTrainingBaseline
from repro.ml.data import train_test_split
from repro.ml.datasets import SyntheticDigitsConfig, synthetic_digits
from repro.runtime.experiment import TEST_FRACTION, ExperimentConfig, FLExperiment
from repro.utils.rng import SeedSequenceFactory
from repro.utils.validation import require_positive

__all__ = ["Fig7Config", "Fig7Result", "run_fig7"]


@dataclass(frozen=True)
class Fig7Config:
    """Parameters of the Fig. 7 reproduction.

    ``fast`` shrinks the dataset and round count so the experiment finishes in
    a couple of seconds (used by the test suite); the default configuration
    matches the paper's setup (10 rounds, 5 clients, 5 local epochs).
    """

    num_clients: int = 5
    fl_rounds: int = 10
    local_epochs: int = 5
    dataset_samples: int = 8000
    offline_data_fraction: float = 0.05
    client_data_fraction: float = 0.01
    learning_rate: float = 1e-3
    batch_size: int = 32
    seed: int = 42
    fast: bool = False

    def effective(self) -> "Fig7Config":
        """Return the configuration actually used (shrunk when ``fast``)."""
        if not self.fast:
            return self
        return Fig7Config(
            num_clients=self.num_clients,
            fl_rounds=min(self.fl_rounds, 3),
            local_epochs=min(self.local_epochs, 2),
            dataset_samples=min(self.dataset_samples, 2500),
            offline_data_fraction=self.offline_data_fraction,
            client_data_fraction=max(self.client_data_fraction, 0.02),
            learning_rate=self.learning_rate,
            batch_size=self.batch_size,
            seed=self.seed,
            fast=True,
        )


@dataclass
class Fig7Result:
    """The two accuracy series of Fig. 7 plus context for the report."""

    rounds: List[int]
    offline_accuracy: List[float]
    sdfl_accuracy: List[float]
    offline_train_samples: int
    sdfl_samples_per_client: Dict[str, int] = field(default_factory=dict)

    def as_rows(self) -> List[Dict[str, object]]:
        """Row-per-round table: the series the paper plots."""
        return [
            {
                "round": r,
                "offline_accuracy_pct": 100.0 * self.offline_accuracy[i],
                "sdfl_accuracy_pct": 100.0 * self.sdfl_accuracy[i],
            }
            for i, r in enumerate(self.rounds)
        ]

    @property
    def final_gap(self) -> float:
        """Final-round accuracy gap (offline − SDFL), in accuracy fraction."""
        return self.offline_accuracy[-1] - self.sdfl_accuracy[-1]


def run_fig7(config: Fig7Config | None = None) -> Fig7Result:
    """Run both sides of the Fig. 7 comparison and return the series."""
    config = (config or Fig7Config()).effective()
    require_positive(config.fl_rounds, "fl_rounds")
    seeds = SeedSequenceFactory(config.seed)

    # --- SDFL side: the full SDFLMQ stack ---------------------------------
    fl_config = ExperimentConfig(
        name="fig7-sdfl",
        num_clients=config.num_clients,
        fl_rounds=config.fl_rounds,
        local_epochs=config.local_epochs,
        batch_size=config.batch_size,
        learning_rate=config.learning_rate,
        dataset_samples=config.dataset_samples,
        client_data_fraction=config.client_data_fraction,
        clustering_policy="hierarchical",
        aggregator_fraction=0.30,
        aggregation="fedavg",
        train_for_real=True,
        seed=config.seed,
    )
    experiment = FLExperiment(fl_config)
    fl_result = experiment.run()

    # --- Offline side: same model, 5x the data in one pipeline ------------
    dataset = synthetic_digits(
        SyntheticDigitsConfig(num_samples=config.dataset_samples, seed=seeds.seed("dataset"))
    )
    train_set, test_set = train_test_split(
        dataset, test_fraction=TEST_FRACTION, rng=seeds.generator("split")
    )
    offline = OfflineTrainingBaseline(
        train_set=train_set,
        test_set=test_set,
        data_fraction=config.offline_data_fraction,
        rounds=config.fl_rounds,
        local_epochs=config.local_epochs,
        batch_size=config.batch_size,
        learning_rate=config.learning_rate,
        seed=config.seed,
    )
    offline_result = offline.run()

    return Fig7Result(
        rounds=list(range(1, config.fl_rounds + 1)),
        offline_accuracy=offline_result.accuracies,
        sdfl_accuracy=fl_result.accuracies,
        offline_train_samples=offline_result.num_train_samples,
        sdfl_samples_per_client={
            cid: len(ds) for cid, ds in experiment.client_datasets.items()
        },
    )
