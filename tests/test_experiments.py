"""Tests for the experiment harness (fig7, fig8, ablations, report rendering)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.experiments import ablations
from repro.experiments.fig7_accuracy import Fig7Config, run_fig7
from repro.experiments.fig8_delay import Fig8Config, run_fig8
from repro.experiments.report import format_series, format_table, rows_to_markdown


class TestReportRendering:
    def test_format_table_alignment_and_columns(self):
        rows = [{"a": 1, "b": 2.34567}, {"a": 10, "c": "xyz"}]
        table = format_table(rows, precision=2)
        lines = table.splitlines()
        assert lines[0].split() == ["a", "b", "c"]
        assert "2.35" in table
        assert "xyz" in table

    def test_format_table_empty(self):
        assert format_table([]) == "(empty table)"

    def test_format_series(self):
        assert format_series("acc", [0.5, 0.75], precision=2) == "acc: [0.50, 0.75]"

    def test_markdown_table(self):
        markdown = rows_to_markdown([{"x": 1, "y": 2}], precision=0)
        lines = markdown.splitlines()
        assert lines[0] == "| x | y |"
        assert lines[1] == "|---|---|"
        assert lines[2] == "| 1 | 2 |"

    def test_markdown_empty(self):
        assert rows_to_markdown([]) == "(empty table)"


class TestFig7:
    @pytest.fixture(scope="class")
    def result(self):
        return run_fig7(Fig7Config(fast=True, seed=5))

    def test_series_lengths_match_rounds(self, result):
        assert len(result.rounds) == len(result.offline_accuracy) == len(result.sdfl_accuracy)
        assert result.rounds[0] == 1

    def test_accuracies_are_probabilities(self, result):
        for value in result.offline_accuracy + result.sdfl_accuracy:
            assert 0.0 <= value <= 1.0

    def test_both_curves_improve_from_round_one(self, result):
        assert result.sdfl_accuracy[-1] >= result.sdfl_accuracy[0]
        assert result.offline_accuracy[-1] >= result.offline_accuracy[0]

    def test_offline_uses_more_data_than_each_client(self, result):
        per_client = list(result.sdfl_samples_per_client.values())
        assert result.offline_train_samples > max(per_client)
        assert len(per_client) == 5

    def test_rows_have_percentage_columns(self, result):
        rows = result.as_rows()
        assert {"round", "offline_accuracy_pct", "sdfl_accuracy_pct"} <= set(rows[0])
        assert rows[-1]["offline_accuracy_pct"] <= 100.0

    def test_final_gap_is_the_last_round_difference(self, result):
        assert result.final_gap == result.offline_accuracy[-1] - result.sdfl_accuracy[-1]
        rows = result.as_rows()
        assert result.final_gap * 100.0 == pytest.approx(
            rows[-1]["offline_accuracy_pct"] - rows[-1]["sdfl_accuracy_pct"]
        )

    def test_fast_flag_shrinks_configuration(self):
        effective = Fig7Config(fast=True).effective()
        assert effective.fl_rounds <= 3
        assert effective.dataset_samples <= 2500


class TestFig8:
    @pytest.fixture(scope="class")
    def result(self):
        return run_fig8(Fig8Config(fast=True, seed=2))

    def test_series_cover_client_counts(self, result):
        assert len(result.client_counts) == 2
        assert len(result.hierarchical_total_delay_s) == 2
        assert len(result.central_total_delay_s) == 2

    def test_delays_positive_and_growing_with_clients(self, result):
        assert all(d > 0 for d in result.hierarchical_total_delay_s)
        assert all(d > 0 for d in result.central_total_delay_s)
        assert result.hierarchical_total_delay_s[1] > result.hierarchical_total_delay_s[0]
        assert result.central_total_delay_s[1] > result.central_total_delay_s[0]

    def test_gap_closes_with_scale(self, result):
        """The paper's headline observation: the hierarchical-minus-central gap
        shrinks as the number of clients grows."""
        gaps = result.gaps
        assert gaps[1] < gaps[0]

    def test_rows_structure(self, result):
        rows = result.as_rows()
        assert rows[0]["num_clients"] == result.client_counts[0]
        assert "hierarchical_total_delay_s" in rows[0]
        assert "central_total_delay_s" in rows[0]

    def test_fast_flag_shrinks_sweep(self):
        assert len(Fig8Config(fast=True).effective().client_counts) == 2


class TestAblations:
    def test_aggregator_fraction_sweep(self):
        rows = ablations.run_aggregator_fraction_sweep(fractions=(0.2, 0.4), num_clients=8, fl_rounds=1)
        assert len(rows) == 2
        assert rows[0]["num_aggregators"] <= rows[1]["num_aggregators"]
        assert all(r["total_delay_s"] > 0 for r in rows)

    def test_payload_compression_sweep(self):
        rows = ablations.run_payload_compression_sweep(hidden_widths=(16, 64))
        assert len(rows) == 2
        assert rows[1]["parameters"] > rows[0]["parameters"]
        for row in rows:
            assert row["compressed_bytes"] <= row["encoded_bytes"] + 1
            assert row["chunks_compressed"] <= row["chunks_uncompressed"]
            assert 0 < row["compression_ratio"] <= 1.0 + 1e-9

    def test_role_rearrangement(self):
        rows = ablations.run_role_rearrangement(num_clients=6, fl_rounds=2)
        policies = {row["policy"] for row in rows}
        assert policies == {"static", "memory_aware", "round_robin"}
        static = next(r for r in rows if r["policy"] == "static")
        adaptive = next(r for r in rows if r["policy"] == "memory_aware")
        assert static["role_changes"] == 0
        assert adaptive["total_delay_s"] <= static["total_delay_s"] * 1.5
        # Timing-only: nothing is trained, so no accuracy is reported.
        assert all("final_accuracy" not in row for row in rows)

    def test_broker_bridging(self):
        rows = ablations.run_broker_bridging(num_clients=6, num_regions=3, fl_rounds=1)
        assert [row["num_regions"] for row in rows] == [1, 3]
        single, bridged = rows
        assert single["bridged_messages"] == 0
        assert bridged["bridged_messages"] > 0
        assert bridged["busiest_broker_delivery_share"] < single["busiest_broker_delivery_share"]
        assert single["busiest_broker_delivery_share"] == pytest.approx(1.0)
        assert all("final_accuracy" not in row for row in rows)

    def test_topology_comparison(self):
        rows = ablations.run_topology_comparison(
            num_clients=4, fl_rounds=1, local_epochs=1, dataset_samples=1200, client_fraction=0.05
        )
        topologies = {row["topology"] for row in rows}
        assert topologies == {"centralized_fedavg", "decentralized_gossip", "sdflmq_hierarchical"}
        for row in rows:
            assert 0.0 <= row["final_accuracy"] <= 1.0

    def test_aggregation_strategies(self):
        rows = ablations.run_aggregation_strategies(
            strategies=("fedavg", "median"), alphas=(10.0,), num_clients=4, rounds=1,
            local_epochs=1, dataset_samples=900,
        )
        assert len(rows) == 2
        assert {row["strategy"] for row in rows} == {"fedavg", "median"}
        assert all(0.0 <= row["final_accuracy"] <= 1.0 for row in rows)
