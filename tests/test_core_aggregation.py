"""Tests for aggregation strategies, including hierarchical composition."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.aggregation import (
    AggregationError,
    CoordinateMedian,
    FedAvg,
    FedAvgMomentum,
    ModelContribution,
    TrimmedMean,
    UniformAverage,
    available_aggregators,
    get_aggregator,
)

from _support import states_allclose


def _state(value, shape=(3, 2)):
    return {"w": np.full(shape, float(value)), "b": np.full(shape[1], float(value) / 2)}


def _random_state(rng, shapes=(("w", (4, 3)), ("b", (3,)))):
    return {name: rng.normal(size=shape) for name, shape in shapes}


class TestModelContribution:
    def test_positive_weight_required(self):
        with pytest.raises(AggregationError):
            ModelContribution(_state(1), weight=0)


class TestRegistry:
    def test_available(self):
        assert set(available_aggregators()) == {"fedavg", "mean", "median", "trimmed_mean", "fedavgm"}

    def test_get_by_name_case_insensitive(self):
        assert isinstance(get_aggregator("FedAvg"), FedAvg)

    def test_unknown_rejected(self):
        with pytest.raises(AggregationError):
            get_aggregator("blockchain")

    def test_kwargs_forwarded(self):
        strategy = get_aggregator("trimmed_mean", trim_ratio=0.25)
        assert strategy.trim_ratio == 0.25


class TestFedAvg:
    def test_equal_weights_is_plain_mean(self):
        result = FedAvg().aggregate([ModelContribution(_state(0)), ModelContribution(_state(2))])
        assert states_allclose(result, _state(1))

    def test_weighting_by_samples(self):
        result = FedAvg().aggregate(
            [ModelContribution(_state(0), weight=1), ModelContribution(_state(4), weight=3)]
        )
        assert states_allclose(result, _state(3))

    def test_single_contribution_identity(self):
        state = _random_state(np.random.default_rng(0))
        result = FedAvg().aggregate([ModelContribution(state, weight=7)])
        assert states_allclose(result, state)

    def test_empty_rejected(self):
        with pytest.raises(AggregationError):
            FedAvg().aggregate([])

    def test_shape_mismatch_rejected(self):
        with pytest.raises(AggregationError):
            FedAvg().aggregate(
                [ModelContribution(_state(1)), ModelContribution({"w": np.zeros((2, 2)), "b": np.zeros(2)})]
            )

    def test_matches_manual_weighted_mean(self):
        rng = np.random.default_rng(3)
        states = [_random_state(rng) for _ in range(5)]
        weights = [1.0, 2.0, 3.0, 4.0, 5.0]
        result = FedAvg().aggregate(
            [ModelContribution(s, weight=w) for s, w in zip(states, weights)]
        )
        expected_w = np.average([s["w"] for s in states], axis=0, weights=weights)
        np.testing.assert_allclose(result["w"], expected_w)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=2, max_value=8), st.integers(min_value=0, max_value=10_000))
    def test_hierarchical_composition_is_exact(self, num_clients, seed):
        """FedAvg of FedAvgs (weights summed) equals flat FedAvg — the invariant
        that lets SDFLMQ split aggregation across a hierarchy."""
        rng = np.random.default_rng(seed)
        contributions = [
            ModelContribution(_random_state(rng), weight=float(rng.integers(1, 50)))
            for _ in range(num_clients)
        ]
        flat = FedAvg().aggregate(contributions)

        split = rng.integers(1, num_clients) if num_clients > 1 else 1
        group_a, group_b = contributions[:split], contributions[split:]
        partials = []
        for group in (group_a, group_b):
            if not group:
                continue
            partials.append(
                ModelContribution(
                    FedAvg().aggregate(group), weight=sum(c.weight for c in group)
                )
            )
        hierarchical = FedAvg().aggregate(partials)
        for key in flat:
            np.testing.assert_allclose(hierarchical[key], flat[key], rtol=1e-10, atol=1e-12)

    def test_result_dtype_float64(self):
        result = FedAvg().aggregate([ModelContribution({"w": np.zeros((2, 2), dtype=np.float32)})])
        assert result["w"].dtype == np.float64


class TestRobustStrategies:
    def test_uniform_average_ignores_weights(self):
        result = UniformAverage().aggregate(
            [ModelContribution(_state(0), weight=100), ModelContribution(_state(2), weight=1)]
        )
        assert states_allclose(result, _state(1))

    def test_median_resists_outlier(self):
        contributions = [ModelContribution(_state(1)) for _ in range(4)]
        contributions.append(ModelContribution(_state(1e6)))  # poisoned update
        result = CoordinateMedian().aggregate(contributions)
        assert states_allclose(result, _state(1))

    def test_mean_is_pulled_by_outlier(self):
        contributions = [ModelContribution(_state(1)) for _ in range(4)]
        contributions.append(ModelContribution(_state(1e6)))
        result = UniformAverage().aggregate(contributions)
        assert result["w"].max() > 1000

    def test_trimmed_mean_drops_extremes(self):
        contributions = [ModelContribution(_state(v)) for v in (1, 1, 1, 1, 1, 1, 1, 1, -1e6, 1e6)]
        result = TrimmedMean(trim_ratio=0.1).aggregate(contributions)
        assert states_allclose(result, _state(1))

    def test_trimmed_mean_small_group_falls_back_to_mean(self):
        result = TrimmedMean(trim_ratio=0.4).aggregate(
            [ModelContribution(_state(0)), ModelContribution(_state(2))]
        )
        assert states_allclose(result, _state(1))

    def test_trimmed_mean_invalid_ratio(self):
        with pytest.raises(ValueError):
            TrimmedMean(trim_ratio=0.5)


class TestFedAvgMomentum:
    def test_first_round_is_plain_average(self):
        strategy = FedAvgMomentum(momentum=0.9)
        result = strategy.aggregate([ModelContribution(_state(2)), ModelContribution(_state(4))])
        assert states_allclose(result, _state(3))

    def test_momentum_accelerates_consistent_direction(self):
        strategy = FedAvgMomentum(momentum=0.9)
        strategy.aggregate([ModelContribution(_state(1))])
        second = strategy.aggregate([ModelContribution(_state(2))])
        third = strategy.aggregate([ModelContribution(_state(3))])
        # With momentum the third step overshoots the plain target of 3.
        assert third["w"].mean() > 3.0
        assert second["w"].mean() >= 1.9

    def test_invalid_momentum(self):
        with pytest.raises(ValueError):
            FedAvgMomentum(momentum=1.5)


class TestStreamingEquivalence:
    """PR-5 streaming accumulation vs the matrix reference path."""

    def _reference(self, strategy, contributions):
        from repro.core.aggregation import _stack_contributions
        from repro.ml.state import unflatten_state_dict

        matrix, weights, spec = _stack_contributions(contributions)
        return unflatten_state_dict(strategy.reduce(matrix, weights), spec)

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(min_value=1, max_value=12),
        st.sampled_from(["float32", "float64"]),
        st.booleans(),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_fedavg_streaming_matches_matrix(self, num, dtype, uniform_weights, seed):
        rng = np.random.default_rng(seed)
        contributions = [
            ModelContribution(
                {
                    "w": rng.normal(size=(5, 4)).astype(dtype),
                    "b": rng.normal(size=7).astype(dtype),
                },
                weight=1.0 if uniform_weights else float(rng.uniform(0.1, 90.0)),
                sender_id=f"c{i}",
            )
            for i in range(num)
        ]
        streaming = FedAvg().aggregate(contributions)
        reference = self._reference(FedAvg(), contributions)
        for name in reference:
            # Bit-identical for realistic fan-ins; a tiny reassociation bound
            # covers numpy's pairwise summation kicking in at large K.
            np.testing.assert_allclose(streaming[name], reference[name], rtol=0, atol=1e-9)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=1, max_value=9), st.integers(min_value=0, max_value=2**32 - 1))
    def test_uniform_mean_streaming_matches_matrix(self, num, seed):
        rng = np.random.default_rng(seed)
        contributions = [
            ModelContribution({"w": rng.normal(size=(3, 3)), "b": rng.normal(size=2)})
            for _ in range(num)
        ]
        streaming = UniformAverage().aggregate(contributions)
        reference = self._reference(UniformAverage(), contributions)
        for name in reference:
            np.testing.assert_array_equal(streaming[name], reference[name])

    def test_small_fanin_is_bit_identical(self):
        """The scenario goldens rely on bitwise identity at realistic fan-ins."""
        rng = np.random.default_rng(3)
        for num in range(1, 8):
            contributions = [
                ModelContribution(
                    {"w": rng.normal(size=(6, 5)).astype(np.float32)},
                    weight=float(rng.uniform(1, 40)),
                )
                for _ in range(num)
            ]
            streaming = FedAvg().aggregate(contributions)
            reference = self._reference(FedAvg(), contributions)
            assert np.array_equal(streaming["w"], reference["w"])

    def test_momentum_streaming_matches_matrix(self):
        rng = np.random.default_rng(5)
        stream_strategy = FedAvgMomentum(momentum=0.8)
        matrix_strategy = FedAvgMomentum(momentum=0.8)
        for _round in range(4):
            contributions = [
                ModelContribution({"w": rng.normal(size=(4, 2))}, weight=float(w))
                for w in rng.uniform(1, 10, size=3)
            ]
            streaming = stream_strategy.aggregate(contributions)
            reference = self._reference(matrix_strategy, contributions)
            assert np.array_equal(streaming["w"], reference["w"])

    def test_streaming_shape_mismatch_raises(self):
        contributions = [
            ModelContribution({"w": np.zeros((2, 2))}),
            ModelContribution({"w": np.zeros((2, 3))}, sender_id="bad"),
        ]
        with pytest.raises(AggregationError, match="mismatched parameter shapes"):
            FedAvg().aggregate(contributions)

    def test_streaming_missing_leaf_raises(self):
        contributions = [
            ModelContribution({"w": np.zeros((2, 2)), "b": np.zeros(2)}),
            ModelContribution({"w": np.zeros((2, 2))}, sender_id="bad"),
        ]
        with pytest.raises(AggregationError, match="mismatched parameter shapes"):
            FedAvg().aggregate(contributions)

    def test_streaming_rejects_empty(self):
        with pytest.raises(AggregationError):
            FedAvg().aggregate([])

    def test_streaming_does_not_mutate_inputs(self):
        rng = np.random.default_rng(9)
        states = [{"w": rng.normal(size=(3, 3))} for _ in range(4)]
        copies = [{k: v.copy() for k, v in s.items()} for s in states]
        FedAvg().aggregate([ModelContribution(s, weight=i + 1.0) for i, s in enumerate(states)])
        for original, copied in zip(states, copies):
            assert np.array_equal(original["w"], copied["w"])


class TestContributionNbytesCache:
    def test_nbytes_cached_at_construction(self):
        from repro.ml.state import state_dict_nbytes

        state = {"w": np.zeros((10, 10), dtype=np.float32), "b": np.zeros(10)}
        contribution = ModelContribution(state)
        assert contribution.nbytes == state_dict_nbytes(state)

    def test_buffer_accounting_uses_cached_nbytes(self):
        """add/replace/take/drain balance byte accounting via the cached value."""
        from repro.core.aggregation import ContributionBuffer

        class Accountant:
            def __init__(self):
                self.allocated = 0

            def allocate(self, _owner, nbytes):
                self.allocated += nbytes

            def release(self, _owner, nbytes):
                self.allocated -= nbytes

        accountant = Accountant()
        buffer = ContributionBuffer("me", resources=accountant)
        peer = ModelContribution({"w": np.zeros(100)}, sender_id="peer", round_index=0)
        own = ModelContribution({"w": np.zeros(100)}, sender_id="me", round_index=0)
        assert buffer.add(peer, min_epoch=0, charge_memory=True)
        assert buffer.add(own, min_epoch=0, charge_memory=False)
        assert buffer.buffered_bytes == peer.nbytes + own.nbytes
        assert accountant.allocated == peer.nbytes

        # Replacement (same sender, same round) releases the old charge once.
        replacement = ModelContribution({"w": np.ones(100)}, sender_id="peer", round_index=0)
        assert buffer.add(replacement, min_epoch=0, charge_memory=True)
        assert accountant.allocated == replacement.nbytes

        batch = buffer.take(0, 2)
        assert batch is not None and len(batch) == 2
        assert buffer.buffered_bytes == 0
        assert accountant.allocated == 0
