"""Ablation bench: per-round role rearrangement under memory drift (`abl_rearrange`).

The paper motivates dynamic role management with devices whose memory capacity
changes over time: "if the machine does not delegate its role to another
client with more memory, then the memory overflow can further delay the
learning process" (§III.E.6).  This bench gives the devices deliberately tight
memory and strong round-to-round drift, then compares a static aggregator
placement with the memory-aware and round-robin rearrangement policies.

Expected shape: the static placement suffers at least as many memory-overflow
events and at least as much total delay as the memory-aware policy; the
adaptive policies pay for that with role-change messages (which the static
policy never sends).
"""

from __future__ import annotations

from conftest import emit

from repro.experiments.ablations import run_role_rearrangement
from repro.experiments.report import format_table


def test_role_rearrangement_under_memory_drift(benchmark, bench_fast):
    rows = benchmark.pedantic(
        lambda: run_role_rearrangement(
            num_clients=8 if bench_fast else 12,
            fl_rounds=4 if bench_fast else 6,
        ),
        rounds=1,
        iterations=1,
    )
    emit("Ablation — role rearrangement vs static placement under memory drift",
         format_table(rows, precision=2))

    by_policy = {row["policy"]: row for row in rows}
    static = by_policy["static"]
    memory_aware = by_policy["memory_aware"]

    # The static placement never rearranges; the adaptive policies do.
    assert static["role_changes"] == 0
    assert memory_aware["role_changes"] >= 0

    # Memory-aware placement never does worse on overflows, and at least as
    # well on total delay (within a small tolerance for coordination costs).
    assert memory_aware["overflow_events"] <= static["overflow_events"]
    assert memory_aware["total_delay_s"] <= static["total_delay_s"] * 1.05

    # Timing-only: nothing is trained, so no accuracy is reported.
    assert all("final_accuracy" not in row for row in rows)
