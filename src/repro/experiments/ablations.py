"""Ablation studies for the design choices the paper calls out.

None of these correspond to a numbered figure in the paper, but each isolates
one mechanism the paper describes and motivates:

* aggregator fraction (the paper fixes 30 % without justification),
* payload batching + zlib compression (paper §IV),
* per-round role rearrangement under memory drift (paper §III.E.5–6),
* broker bridging vs a single broker (paper §III.F),
* the three FL topologies of Fig. 1 (centralized / decentralized / SDFL),
* aggregation strategies under non-IID data (the "various techniques" the
  aggregation class is designed to host).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.baselines.centralized import CentralizedFedAvgBaseline
from repro.baselines.gossip import GossipFLBaseline
from repro.core.aggregation import ModelContribution, get_aggregator
from repro.experiments.fig8_delay import FIG8_COST_MODEL
from repro.ml.data import ArrayDataset, train_test_split
from repro.ml.datasets import SyntheticDigitsConfig, synthetic_digits
from repro.ml.models import ClassifierModel, make_paper_mlp
from repro.ml.partition import dirichlet_partition
from repro.ml.state import state_dict_nbytes
from repro.mqttfc import compression, serialization
from repro.mqttfc.batching import BatchEncoder
from repro.runtime.experiment import ExperimentConfig, FLExperiment
from repro.utils.rng import SeedSequenceFactory
from repro.utils.timing import Stopwatch

__all__ = [
    "run_aggregator_fraction_sweep",
    "run_payload_compression_sweep",
    "run_role_rearrangement",
    "run_broker_bridging",
    "run_topology_comparison",
    "run_aggregation_strategies",
]


# --------------------------------------------------------------------------
# Aggregator fraction sweep
# --------------------------------------------------------------------------

def run_aggregator_fraction_sweep(
    fractions: Sequence[float] = (0.1, 0.2, 0.3, 0.4, 0.5),
    num_clients: int = 20,
    fl_rounds: int = 3,
    seed: int = 11,
) -> List[Dict[str, object]]:
    """Sweep the fraction of clients acting as aggregators at fixed scale.

    Returns one row per fraction with the total simulated delay, the number
    of aggregators selected and the peak per-device buffered memory — the
    trade-off the paper's 30 % choice sits on.
    """
    rows: List[Dict[str, object]] = []
    for fraction in fractions:
        config = ExperimentConfig(
            name=f"aggfrac-{fraction}",
            num_clients=num_clients,
            fl_rounds=fl_rounds,
            dataset_samples=3000,
            client_data_fraction=0.02,
            clustering_policy="hierarchical",
            aggregator_fraction=float(fraction),
            device_tier="phone",
            train_for_real=False,
            seed=seed,
        )
        experiment = FLExperiment(config, cost_model=FIG8_COST_MODEL)
        result = experiment.run()
        topology = experiment.coordinator.session(config.session_id).topology
        rows.append(
            {
                "aggregator_fraction": float(fraction),
                "num_aggregators": len(result.rounds[0].aggregator_ids),
                "levels": topology.num_levels if topology is not None else 0,
                "total_delay_s": result.total_delay_s,
                "peak_buffered_bytes": result.peak_aggregator_memory_bytes,
                "traffic_bytes": result.total_traffic_bytes,
            }
        )
    return rows


# --------------------------------------------------------------------------
# Payload batching + compression
# --------------------------------------------------------------------------

def run_payload_compression_sweep(
    hidden_widths: Sequence[int] = (32, 64, 128, 256),
    chunk_bytes: int = 64 * 1024,
    seed: int = 3,
) -> List[Dict[str, object]]:
    """Measure wire size and chunk count with and without zlib compression.

    One row per model size, reporting raw state-dict bytes, encoded bytes,
    compressed bytes, the compression ratio and the number of MQTT chunks the
    batching layer produces at the given chunk size.
    """
    from repro.ml.models import make_mlp  # local import to keep module top-level lean

    rows: List[Dict[str, object]] = []
    encoder = BatchEncoder(chunk_bytes=chunk_bytes)
    for width in hidden_widths:
        network = make_mlp(input_dim=784, hidden_dims=(int(width),), num_classes=10, seed=seed)
        state = {k: np.asarray(v, dtype=np.float32) for k, v in network.state_dict().items()}
        raw_bytes = state_dict_nbytes(state)
        encoded = serialization.encode_payload_frame(
            {"state": state, "round_index": 0, "sender": "client_000"}
        )

        stopwatch = Stopwatch()
        with stopwatch:
            compressed = compression.compress_frame(encoded).tobytes()
        uncompressed = compression.compress_frame(
            encoded, compression.CompressionConfig(enabled=False)
        ).tobytes()

        rows.append(
            {
                "hidden_width": int(width),
                "parameters": int(network.num_parameters),
                "state_bytes": int(raw_bytes),
                "encoded_bytes": encoded.nbytes,
                "compressed_bytes": len(compressed),
                "compression_ratio": len(compressed) / len(uncompressed),
                "chunks_compressed": len(encoder.split(compressed)),
                "chunks_uncompressed": len(encoder.split(uncompressed)),
                "compress_time_s": stopwatch.elapsed,
            }
        )
    return rows


# --------------------------------------------------------------------------
# Role rearrangement under memory drift
# --------------------------------------------------------------------------

def run_role_rearrangement(
    num_clients: int = 12,
    fl_rounds: int = 6,
    memory_pressure: float = 0.85,
    device_memory_bytes: int = 1_200_000,
    seed: int = 23,
) -> List[Dict[str, object]]:
    """Compare static aggregator placement with memory-aware rearrangement.

    Devices are given deliberately tight memory (≈1.2 MB) so that a poorly
    placed aggregator overflows when buffering its cluster's models; the
    memory-aware policy moves aggregation to the devices with the most free
    memory each round.  One row per policy with the total delay, overflow
    events and number of role changes.
    """
    rows: List[Dict[str, object]] = []
    for policy, rebalance in (("static", False), ("memory_aware", True), ("round_robin", True)):
        config = ExperimentConfig(
            name=f"rearrange-{policy}",
            num_clients=num_clients,
            fl_rounds=fl_rounds,
            dataset_samples=3000,
            client_data_fraction=0.02,
            clustering_policy="central",
            device_tier="phone",
            memory_pressure=memory_pressure,
            device_memory_override_bytes=device_memory_bytes,
            role_policy=policy,
            rebalance_every_round=rebalance,
            train_for_real=False,
            seed=seed,
        )
        result = FLExperiment(config, cost_model=FIG8_COST_MODEL).run()
        rows.append(
            {
                "policy": policy,
                "rebalance_every_round": rebalance,
                "total_delay_s": result.total_delay_s,
                "overflow_events": int(sum(r.overflow_events for r in result.rounds)),
                "role_changes": result.role_changes_total,
                "final_accuracy": result.final_accuracy,
            }
        )
    return rows


# --------------------------------------------------------------------------
# Broker bridging
# --------------------------------------------------------------------------

def run_broker_bridging(
    num_clients: int = 12,
    num_regions: int = 3,
    fl_rounds: int = 3,
    seed: int = 5,
) -> List[Dict[str, object]]:
    """Single broker vs regional brokers joined by bridges (paper §III.F).

    Reports, for each deployment, the per-broker share of routed messages and
    payload bytes — bridging's benefit is spreading broker load across
    regions while the FL choreography stays unchanged.
    """
    rows: List[Dict[str, object]] = []
    for regions in (1, num_regions):
        config = ExperimentConfig(
            name=f"bridging-{regions}",
            num_clients=num_clients,
            fl_rounds=fl_rounds,
            dataset_samples=2000,
            client_data_fraction=0.02,
            clustering_policy="hierarchical",
            num_regions=regions,
            train_for_real=False,
            seed=seed,
        )
        experiment = FLExperiment(config, cost_model=FIG8_COST_MODEL)
        result = experiment.run()
        per_broker_delivered = {b.name: b.stats.bytes_delivered for b in experiment.brokers}
        busiest = max(per_broker_delivered.values()) if per_broker_delivered else 0
        total_delivered = sum(per_broker_delivered.values()) or 1
        rows.append(
            {
                "num_regions": regions,
                "total_messages": result.total_messages,
                "total_traffic_bytes": result.total_traffic_bytes,
                "busiest_broker_delivery_share": busiest / total_delivered,
                "bridged_messages": int(
                    sum(b.forwarded_local_to_remote + b.forwarded_remote_to_local for b in experiment.bridges)
                ),
                "final_accuracy": result.final_accuracy,
                "per_broker_delivered_bytes": per_broker_delivered,
            }
        )
    return rows


# --------------------------------------------------------------------------
# FL topology comparison (Fig. 1 of the paper)
# --------------------------------------------------------------------------

def _shared_dataset(
    num_clients: int, dataset_samples: int, client_fraction: float, seed: int
) -> Tuple[Dict[str, ArrayDataset], ArrayDataset]:
    """Build per-client shards + test set the same way FLExperiment does."""
    seeds = SeedSequenceFactory(seed)
    dataset = synthetic_digits(SyntheticDigitsConfig(num_samples=dataset_samples, seed=seeds.seed("dataset")))
    train_set, test_set = train_test_split(dataset, test_fraction=0.15, rng=seeds.generator("split"))
    per_client = max(1, int(round(len(train_set) * client_fraction)))
    needed = min(len(train_set), per_client * num_clients)
    selection = seeds.generator("selection").choice(len(train_set), size=needed, replace=False)
    pool = train_set.subset(selection)
    from repro.ml.partition import iid_partition

    parts = iid_partition(pool, num_clients, rng=seeds.generator("partition"))
    shards = {f"client_{i:03d}": pool.subset(part) for i, part in enumerate(parts)}
    return shards, test_set


def run_topology_comparison(
    num_clients: int = 6,
    fl_rounds: int = 4,
    local_epochs: int = 3,
    dataset_samples: int = 4000,
    client_fraction: float = 0.02,
    seed: int = 31,
) -> List[Dict[str, object]]:
    """Compare centralized FL, decentralized gossip FL and SDFLMQ.

    All three run on the same client shards and the same model; the row
    reports final accuracy and the simulated total delay (for the baselines
    the delay uses the same cost model the SDFL delay figure uses).
    """
    shards, test_set = _shared_dataset(num_clients, dataset_samples, client_fraction, seed)

    rows: List[Dict[str, object]] = []

    centralized = CentralizedFedAvgBaseline(
        shards, test_set, rounds=fl_rounds, local_epochs=local_epochs, seed=seed
    ).run()
    rows.append(
        {
            "topology": "centralized_fedavg",
            "final_accuracy": centralized.final_accuracy,
            "total_delay_s": float("nan"),
        }
    )

    # "Fully decentralized" = every peer exchanges with every other peer; the
    # sequential per-peer exchanges are exactly the cost the paper attributes
    # to the P2P topology.
    gossip = GossipFLBaseline(
        shards, test_set, rounds=fl_rounds, local_epochs=local_epochs,
        neighbours=max(1, num_clients - 1), seed=seed,
    ).run()
    rows.append(
        {
            "topology": "decentralized_gossip",
            "final_accuracy": gossip.final_accuracy,
            "total_delay_s": gossip.total_delay_s,
        }
    )

    sdfl_config = ExperimentConfig(
        name="topology-sdfl",
        num_clients=num_clients,
        fl_rounds=fl_rounds,
        local_epochs=local_epochs,
        dataset_samples=dataset_samples,
        client_data_fraction=client_fraction,
        clustering_policy="hierarchical",
        seed=seed,
    )
    sdfl = FLExperiment(sdfl_config).run()
    rows.append(
        {
            "topology": "sdflmq_hierarchical",
            "final_accuracy": sdfl.final_accuracy,
            "total_delay_s": sdfl.total_delay_s,
        }
    )
    return rows


# --------------------------------------------------------------------------
# Aggregation strategies under non-IID data
# --------------------------------------------------------------------------

def run_aggregation_strategies(
    strategies: Sequence[str] = ("fedavg", "mean", "median", "trimmed_mean"),
    alphas: Sequence[float] = (10.0, 0.5, 0.1),
    num_clients: int = 8,
    rounds: int = 3,
    local_epochs: int = 3,
    dataset_samples: int = 3000,
    seed: int = 17,
) -> List[Dict[str, object]]:
    """Final accuracy of each aggregation strategy across non-IID severities.

    Uses a direct (in-memory) FedAvg-style loop rather than the full MQTT
    stack so the sweep stays fast; the aggregation implementations are exactly
    the ones SDFLMQ clients use.
    """
    seeds = SeedSequenceFactory(seed)
    dataset = synthetic_digits(SyntheticDigitsConfig(num_samples=dataset_samples, seed=seeds.seed("dataset")))
    train_set, test_set = train_test_split(dataset, test_fraction=0.15, rng=seeds.generator("split"))

    rows: List[Dict[str, object]] = []
    for alpha in alphas:
        parts = dirichlet_partition(
            train_set, num_clients, alpha=float(alpha), rng=seeds.generator("partition", alpha),
            min_samples_per_client=2,
        )
        shards = {f"client_{i:03d}": train_set.subset(p) for i, p in enumerate(parts)}
        for strategy_name in strategies:
            strategy = get_aggregator(strategy_name)
            global_model = ClassifierModel(
                make_paper_mlp(input_dim=test_set.num_features, num_classes=test_set.num_classes, seed=seed)
            )
            for round_index in range(rounds):
                contributions: List[ModelContribution] = []
                reference = global_model.state_dict()
                for client_id, shard in shards.items():
                    local = ClassifierModel(
                        make_paper_mlp(
                            input_dim=test_set.num_features, num_classes=test_set.num_classes, seed=seed
                        )
                    )
                    local.load_state_dict(reference)
                    local.fit(
                        shard,
                        epochs=local_epochs,
                        batch_size=32,
                        lr=1e-3,
                        rng=seeds.generator("fit", client_id, round_index, strategy_name),
                    )
                    contributions.append(
                        ModelContribution(
                            state=local.state_dict(),
                            weight=float(len(shard)),
                            sender_id=client_id,
                            round_index=round_index,
                        )
                    )
                global_model.load_state_dict(strategy.aggregate(contributions))
            rows.append(
                {
                    "dirichlet_alpha": float(alpha),
                    "strategy": strategy_name,
                    "final_accuracy": global_model.accuracy(test_set),
                }
            )
    return rows
