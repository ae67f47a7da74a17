"""Client data partitioners.

The paper assigns each of the 5 FL clients 1 % of MNIST.  These helpers
produce the index sets for each client under three standard FL regimes:

* :func:`iid_partition` — uniformly random, equally sized shards;
* :func:`dirichlet_partition` — label distribution per client drawn from a
  Dirichlet(α); small α ⇒ strongly non-IID;
* :func:`shard_partition` — the classic FedAvg "sort by label and deal out
  shards" pathological non-IID split.

All partitioners return ``list[np.ndarray]`` of row indices into the dataset,
so they compose with :meth:`repro.ml.data.ArrayDataset.subset`.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.ml.data import ArrayDataset
from repro.utils.validation import require_positive

__all__ = ["iid_partition", "dirichlet_partition", "shard_partition"]


def iid_partition(
    dataset: ArrayDataset, num_clients: int, rng: Optional[np.random.Generator] = None
) -> List[np.ndarray]:
    """Split the dataset into ``num_clients`` equal IID shards."""
    require_positive(num_clients, "num_clients")
    rng = rng or np.random.default_rng(0)
    n = len(dataset)
    if n < num_clients:
        raise ValueError(f"cannot split {n} samples across {num_clients} clients")
    order = rng.permutation(n)
    return [np.sort(part) for part in np.array_split(order, num_clients)]


def dirichlet_partition(
    dataset: ArrayDataset,
    num_clients: int,
    alpha: float = 0.5,
    rng: Optional[np.random.Generator] = None,
    min_samples_per_client: int = 1,
) -> List[np.ndarray]:
    """Label-skewed split where each class is divided by a Dirichlet(α) draw.

    Smaller ``alpha`` concentrates each class on fewer clients (more
    heterogeneity); ``alpha → ∞`` approaches IID.
    """
    require_positive(num_clients, "num_clients")
    require_positive(alpha, "alpha")
    require_positive(min_samples_per_client, "min_samples_per_client", strict=False)
    rng = rng or np.random.default_rng(0)
    labels = dataset.labels
    num_classes = dataset.num_classes

    for _attempt in range(100):
        client_indices: List[List[int]] = [[] for _ in range(num_clients)]
        for cls in range(num_classes):
            cls_idx = np.flatnonzero(labels == cls)
            if len(cls_idx) == 0:
                continue
            rng.shuffle(cls_idx)
            proportions = rng.dirichlet(np.full(num_clients, alpha))
            # Convert proportions to cut points over this class's samples.
            cuts = (np.cumsum(proportions)[:-1] * len(cls_idx)).astype(int)
            for client, part in enumerate(np.split(cls_idx, cuts)):
                client_indices[client].extend(part.tolist())
        sizes = [len(ix) for ix in client_indices]
        if min(sizes) >= min_samples_per_client:
            return [np.sort(np.asarray(ix, dtype=np.intp)) for ix in client_indices]
    raise RuntimeError(
        "dirichlet_partition failed to satisfy min_samples_per_client after 100 attempts; "
        "increase alpha or reduce the number of clients"
    )


def shard_partition(
    dataset: ArrayDataset,
    num_clients: int,
    shards_per_client: int = 2,
    rng: Optional[np.random.Generator] = None,
) -> List[np.ndarray]:
    """Pathological non-IID split: sort by label, deal contiguous shards to clients."""
    require_positive(num_clients, "num_clients")
    require_positive(shards_per_client, "shards_per_client")
    rng = rng or np.random.default_rng(0)
    n = len(dataset)
    total_shards = num_clients * shards_per_client
    if n < total_shards:
        raise ValueError(f"need at least {total_shards} samples for {total_shards} shards, have {n}")
    order = np.argsort(dataset.labels, kind="stable")
    shards = np.array_split(order, total_shards)
    shard_ids = rng.permutation(total_shards)
    partitions: List[np.ndarray] = []
    for client in range(num_clients):
        ids = shard_ids[client * shards_per_client : (client + 1) * shards_per_client]
        merged = np.concatenate([shards[s] for s in ids])
        partitions.append(np.sort(merged))
    return partitions
