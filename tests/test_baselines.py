"""Tests for the offline, centralized-FedAvg and gossip baselines."""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines.centralized import CentralizedFedAvgBaseline
from repro.baselines.gossip import GossipFLBaseline
from repro.baselines.offline import OfflineTrainingBaseline
from repro.ml.partition import iid_partition


@pytest.fixture(scope="module")
def shards_and_test(digits_split_module):
    train, test = digits_split_module
    parts = iid_partition(train, 4, rng=np.random.default_rng(0))
    shards = {f"client_{i:03d}": train.subset(p) for i, p in enumerate(parts)}
    return shards, test


@pytest.fixture(scope="module")
def digits_split_module():
    from repro.ml.data import train_test_split
    from repro.ml.datasets import SyntheticDigitsConfig, synthetic_digits

    dataset = synthetic_digits(SyntheticDigitsConfig(num_samples=800, side=16, seed=5))
    return train_test_split(dataset, test_fraction=0.25, rng=np.random.default_rng(1))


class TestOfflineBaseline:
    def test_accuracy_trajectory_improves(self, digits_split_module):
        train, test = digits_split_module
        baseline = OfflineTrainingBaseline(train, test, data_fraction=0.5, rounds=3, local_epochs=2, seed=0)
        result = baseline.run()
        assert len(result.accuracies) == 3
        assert result.accuracies[-1] >= result.accuracies[0]
        assert result.accuracies[-1] > 0.5
        assert result.num_train_samples == len(baseline.train_subset)

    def test_data_fraction_controls_subset_size(self, digits_split_module):
        train, test = digits_split_module
        small = OfflineTrainingBaseline(train, test, data_fraction=0.05, rounds=1, seed=0)
        large = OfflineTrainingBaseline(train, test, data_fraction=0.5, rounds=1, seed=0)
        assert len(small.train_subset) < len(large.train_subset)

    def test_deterministic_given_seed(self, digits_split_module):
        train, test = digits_split_module
        a = OfflineTrainingBaseline(train, test, data_fraction=0.2, rounds=2, local_epochs=1, seed=7).run()
        b = OfflineTrainingBaseline(train, test, data_fraction=0.2, rounds=2, local_epochs=1, seed=7).run()
        assert a.accuracies == b.accuracies

    def test_invalid_fraction_rejected(self, digits_split_module):
        train, test = digits_split_module
        with pytest.raises(ValueError):
            OfflineTrainingBaseline(train, test, data_fraction=1.5)


class TestCentralizedFedAvg:
    def test_learns_and_tracks_rounds(self, shards_and_test):
        shards, test = shards_and_test
        baseline = CentralizedFedAvgBaseline(shards, test, rounds=3, local_epochs=2, seed=0)
        result = baseline.run()
        assert len(result.accuracies) == 3
        assert result.accuracies[-1] > 0.5
        assert result.accuracies[-1] >= result.accuracies[0]
        assert result.client_samples == {cid: len(ds) for cid, ds in shards.items()}

    def test_requires_clients(self, shards_and_test):
        _, test = shards_and_test
        with pytest.raises(ValueError):
            CentralizedFedAvgBaseline({}, test)

    def test_single_round_callable(self, shards_and_test):
        shards, test = shards_and_test
        baseline = CentralizedFedAvgBaseline(shards, test, rounds=1, local_epochs=1, seed=0)
        loss = baseline.run_round(0)
        assert loss > 0


class TestGossipBaseline:
    def test_learns_and_reports_delay(self, shards_and_test):
        shards, test = shards_and_test
        baseline = GossipFLBaseline(shards, test, rounds=2, local_epochs=2, neighbours=2, seed=0)
        result = baseline.run()
        assert len(result.accuracies) == 2
        assert result.accuracies[-1] > 0.4
        assert result.total_delay_s > 0
        assert all(d > 0 for d in result.round_delays_s)

    def test_neighbours_clamped_to_fleet_size(self, shards_and_test):
        shards, test = shards_and_test
        baseline = GossipFLBaseline(shards, test, rounds=1, local_epochs=1, neighbours=50, seed=0)
        assert baseline.neighbours == len(shards) - 1

    def test_gossip_mixes_models(self, shards_and_test):
        """After one round with full neighbourhood, all peers hold identical models."""
        shards, test = shards_and_test
        baseline = GossipFLBaseline(shards, test, rounds=1, local_epochs=1,
                                    neighbours=len(shards) - 1, seed=0)
        baseline.run_round(0)
        states = [baseline.models[cid].state_dict() for cid in baseline.client_ids]
        for other in states[1:]:
            for key in states[0]:
                np.testing.assert_allclose(other[key], states[0][key])

    def test_requires_clients(self, shards_and_test):
        _, test = shards_and_test
        with pytest.raises(ValueError):
            GossipFLBaseline({}, test)
