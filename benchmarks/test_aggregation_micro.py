"""Streaming-vs-matrix microbench for the aggregation reduction.

PR 5 replaced the mean-family reductions' K×D matrix build with a streaming
in-place weighted accumulation (one preallocated accumulator + one scratch
vector, contributions multiply-added in roster order).  This bench pins:

* numerical equivalence against the matrix reference path (bit-identical for
  the small fan-ins the scenarios produce; < 1e-9 worst case otherwise), and
* the streaming reduce time beside the matrix path's, printed.
"""

from __future__ import annotations

import time

import numpy as np
from conftest import emit, fast_mode

from repro.core.aggregation import FedAvg, ModelContribution, _stack_contributions
from repro.ml.state import unflatten_state_dict

NUM_CONTRIBUTIONS = 8 if fast_mode() else 24
PARAMS = 100_000 if fast_mode() else 1_000_000


def _contributions(num_contributions: int, params: int) -> list:
    """``num_contributions`` model contributions of ~``params`` parameters."""
    rng = np.random.default_rng(11)
    rows = params // 128
    return [
        ModelContribution(
            {
                "w": rng.normal(size=(rows, 128)).astype(np.float32),
                "b": rng.normal(size=128).astype(np.float32),
            },
            weight=float(rng.uniform(1, 40)),
            sender_id=f"client_{i:03d}",
        )
        for i in range(num_contributions)
    ]


def test_streaming_matches_matrix_reference():
    contributions = _contributions(NUM_CONTRIBUTIONS, PARAMS)
    streaming = FedAvg().aggregate(contributions)
    matrix, weights, spec = _stack_contributions(contributions)
    reference = unflatten_state_dict(np.average(matrix, axis=0, weights=weights), spec)
    worst = 0.0
    for name in reference:
        worst = max(worst, float(np.abs(streaming[name] - reference[name]).max()))
    assert worst < 1e-9


def test_streaming_reduce_time(benchmark):
    contributions = _contributions(NUM_CONTRIBUTIONS, PARAMS)
    aggregator = FedAvg()

    def reduce_once():
        start = time.perf_counter()
        result = aggregator.aggregate(contributions)
        return result, time.perf_counter() - start

    result, elapsed = benchmark.pedantic(reduce_once, rounds=3, iterations=1)
    assert set(result) == {"w", "b"}

    # Reference matrix path timed once for the printed comparison.
    start = time.perf_counter()
    matrix, weights, spec = _stack_contributions(contributions)
    unflatten_state_dict(np.average(matrix, axis=0, weights=weights), spec)
    matrix_s = time.perf_counter() - start

    emit(
        "Aggregation — streaming in-place reduce vs matrix build",
        f"contributions:    {NUM_CONTRIBUTIONS} x {PARAMS:,} params\n"
        f"streaming reduce: {elapsed * 1e3:.2f} ms\n"
        f"matrix reduce:    {matrix_s * 1e3:.2f} ms\n"
        f"scratch memory:   2 x D float64 (vs K x D matrix)",
    )
    assert elapsed < 10.0  # generous wall guard, not a perf assertion
