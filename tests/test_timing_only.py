"""Timing-only runs (``train_for_real=False``) allocate only what they read.

Such a run draws labels without pixels, evaluates nothing and reports no
accuracy; its sample counts, delays, bytes and signature are those of the
full draw.  Dataset synthesis works in place, so its transient peak stays
near twice the dataset.
"""

from __future__ import annotations

import hashlib
import json
import tracemalloc

import numpy as np
import pytest

from repro.experiments.report import grid_seed_aggregate_rows, grid_summary_rows
from repro.ml.datasets import SyntheticDigitsConfig, synthetic_digits
from repro.ml.models import ClassifierModel
from repro.runtime.experiment import ExperimentConfig, FLExperiment, draw_split
from repro.scenarios.runner import CellResult, ScenarioResult, ScenarioRunner
from repro.scenarios.spec import ScenarioSpec

#: A small timing-only spec: two bridged regions, Dirichlet partition,
#: deadline-driven rounds.
TIMING_ONLY = {
    "name": "timing-only",
    "seed": 5,
    "fleet": {"num_clients": 6},
    "topology": {"regions": 2},
    "training": {
        "rounds": 3,
        "dataset_samples": 1200,
        "client_data_fraction": 0.05,
        "partition": "dirichlet",
        "train_for_real": False,
    },
}

#: What :data:`TIMING_ONLY` produced when it still drew pixels and evaluated
#: every round: per round ``(participants, total_s, messaging_s,
#: traffic_bytes, messages)``, the per-client sample counts and the signature.
PINNED_ROUNDS = [
    (6, 0.31706585776470586, 0.08599225799999999, 703637, 32),
    (6, 0.30506585776470585, 0.08599177199999986, 703633, 32),
    (6, 0.30506585776470585, 0.08587594199999993, 697301, 30),
]
PINNED_SAMPLES = {
    "client_000": 42, "client_001": 29, "client_002": 32,
    "client_003": 82, "client_004": 56, "client_005": 65,
}
PINNED_SIGNATURE = "49eacd35b3f40e7917be849e566d3c67fd77c5eb0f27b787f2faac1b0883c501"

#: sha256 of the standardized feature bytes of ``synthetic_digits`` (seed 7)
#: as written by the out-of-place synthesis.
PINNED_FEATURES = {
    800: "bb94958659b40c1eeacb9100d3cda4070d2eae46306790f372685aa685fae5fe",
    2500: "19400f1602bcab5d1367145fc0c880a5a9537b8eb0c330de815a50113939c382",
}


class TestLabelsOnlyDraw:
    @pytest.mark.parametrize("num_samples", [800, 2500])
    def test_features_are_the_out_of_place_bytes(self, num_samples):
        dataset = synthetic_digits(SyntheticDigitsConfig(num_samples=num_samples))
        digest = hashlib.sha256(dataset.features.tobytes()).hexdigest()
        assert digest == PINNED_FEATURES[num_samples]

    @pytest.mark.parametrize("seed", [0, 7, 123])
    @pytest.mark.parametrize("num_samples", [50, 800, 3001])
    def test_labels_equal_the_full_draw(self, seed, num_samples):
        config = SyntheticDigitsConfig(num_samples=num_samples, seed=seed)
        full = synthetic_digits(config)
        labels_only = synthetic_digits(config, pixels=False)
        assert labels_only.features.shape == (num_samples, 0)
        assert np.array_equal(labels_only.labels, full.labels)
        assert labels_only.labels.dtype == full.labels.dtype

    @pytest.mark.parametrize("partition", ["iid", "dirichlet", "shard"])
    @pytest.mark.parametrize(
        "seed,dataset_samples,num_clients", [(1, 600, 4), (42, 2000, 9), (9, 3000, 13)]
    )
    def test_client_partitions_equal_the_full_draw(
        self, partition, seed, dataset_samples, num_clients
    ):
        def config(train_for_real):
            return ExperimentConfig(
                num_clients=num_clients, dataset_samples=dataset_samples,
                client_data_fraction=0.05, partition=partition,
                train_for_real=train_for_real, seed=seed,
            )

        def build(config, split=None):
            experiment = FLExperiment(config, split=split)
            experiment._build_datasets()
            return experiment

        full, labels_only = build(config(True)), build(config(False))
        # A split handed over (fig7's shared one) partitions like a drawn one.
        handed = build(config(True), split=draw_split(config(True)))
        for other in (labels_only, handed):
            assert list(other.client_datasets) == list(full.client_datasets)
            for client_id, dataset in full.client_datasets.items():
                assert np.array_equal(other.client_datasets[client_id].labels, dataset.labels)
            assert np.array_equal(other.test_set.labels, full.test_set.labels)
        for client_id, dataset in full.client_datasets.items():
            assert np.array_equal(handed.client_datasets[client_id].features, dataset.features)

    def test_synthesis_peak_stays_near_twice_the_dataset(self):
        synthetic_digits(SyntheticDigitsConfig(num_samples=10))  # warm imports and caches
        tracemalloc.start()
        try:
            dataset = synthetic_digits(SyntheticDigitsConfig(num_samples=2500))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * dataset.features.nbytes


class TestTimingOnlyExperiment:
    def test_evaluates_nothing_and_holds_no_pixels(self, monkeypatch):
        def refuse(self, dataset):
            raise AssertionError("a timing-only run evaluated the model")

        monkeypatch.setattr(ClassifierModel, "evaluate", refuse)
        experiment = FLExperiment(ExperimentConfig(
            num_clients=4, fl_rounds=2, dataset_samples=600,
            client_data_fraction=0.05, train_for_real=False, seed=3,
        ))
        result = experiment.run()
        assert experiment.test_set.num_features == 0
        assert all(ds.num_features == 0 for ds in experiment.client_datasets.values())
        assert result.final_accuracy is None
        assert all(r.test_accuracy is None and r.test_loss is None for r in result.rounds)

    def test_a_trained_run_still_evaluates(self):
        result = FLExperiment(ExperimentConfig(
            num_clients=3, fl_rounds=1, local_epochs=1, dataset_samples=600,
            client_data_fraction=0.05, seed=3,
        )).run()
        assert 0.0 <= result.final_accuracy <= 1.0

    def test_delays_bytes_participants_and_signature_are_pinned(self):
        result = ScenarioRunner().run(ScenarioSpec.from_dict(TIMING_ONLY))
        assert result.signature == PINNED_SIGNATURE
        assert [
            (r.participants, r.delay.total_s, r.delay.messaging_s,
             r.traffic_bytes, r.messages_routed)
            for r in result.rounds
        ] == PINNED_ROUNDS
        samples = {cid: len(ds) for cid, ds in result.experiment.client_datasets.items()}
        assert samples == PINNED_SAMPLES


class TestNoAccuracyIsRendered:
    @pytest.fixture(scope="class")
    def fresh(self):
        return ScenarioRunner().run(ScenarioSpec.from_dict(TIMING_ONLY))

    def test_fresh_rows_and_payload(self, fresh):
        assert fresh.final_accuracy is None
        assert all("accuracy" not in row for row in fresh.round_rows())
        assert "final_accuracy" not in fresh.summary_row()
        payload = json.loads(json.dumps(fresh.to_payload()))
        assert payload["final_accuracy"] is None

    def test_a_row_stored_with_an_accuracy_renders_like_a_fresh_run(self, fresh):
        # A timing-only payload as an earlier revision stored it: the
        # untrained model's accuracy in the summary and in every round row.
        payload = json.loads(json.dumps(fresh.to_payload()))
        payload["final_accuracy"] = 0.103
        for row in payload["round_rows"]:
            row["accuracy"] = 0.103
        served = ScenarioResult.from_payload(fresh.spec, payload)
        assert served.round_rows() == fresh.round_rows()
        assert served.summary_row() == fresh.summary_row()
        assert ScenarioRunner.format_rounds(served) == ScenarioRunner.format_rounds(fresh)

        cell = CellResult.from_payload(0, {"seed": 5}, payload, trained=False)
        fresh_cell = CellResult.from_scenario(0, {"seed": 5}, fresh)
        assert cell.final_accuracy is None
        assert cell.round_rows == fresh_cell.round_rows
        assert grid_summary_rows([cell]) == grid_summary_rows([fresh_cell])

    def test_grid_rows_drop_accuracy_only_when_no_cell_has_one(self, fresh):
        timing = CellResult.from_scenario(0, {"seed": 5}, fresh)
        trained = CellResult.from_scenario(1, {"seed": 6}, fresh)
        trained.final_accuracy = 0.5
        assert "accuracy" not in grid_summary_rows([timing])[0]
        mixed = grid_summary_rows([timing, trained])
        assert [row["accuracy"] for row in mixed] == ["", 0.5]
        assert list(mixed[0]) == list(mixed[1])
        aggregate = grid_seed_aggregate_rows([timing])
        assert "accuracy_mean" not in aggregate[0] and "accuracy_std" not in aggregate[0]

