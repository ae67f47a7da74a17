"""Benchmark reproducing Fig. 8: total processing delay vs number of clients.

Paper series (read off Fig. 8; 10 FL rounds, clients ∈ {5, 10, 15, 20}):

* both topologies' total delay grows roughly linearly with the client count
  (up to ≈ 6–7 minutes at 20 clients on the authors' testbed),
* "SDFL with 2-layer hierarchical aggregation" sits slightly *above* "SDFL
  with central aggregation" at small scale (the extra aggregation level), and
* the gap between the two closes as the number of clients grows — the paper's
  reading is that a single central aggregator "can induce further delay if
  the number of contributing clients is large".

Reproduced shape: same growth and same gap-closing behaviour.  In our
simulator the closing gap crosses zero between 5 and 20 clients (the central
aggregator's serialized reception and per-model handling eventually dominate),
which is the same mechanism the paper describes taken slightly further.
Absolute seconds are not comparable to the authors' testbed.
"""

from __future__ import annotations

from conftest import emit

from repro.experiments.fig8_delay import Fig8Config, run_fig8
from repro.experiments.report import format_series, format_table
from repro.utils.timing import format_duration


def test_fig8_processing_delay(benchmark, bench_fast):
    result = benchmark.pedantic(
        lambda: run_fig8(Fig8Config(fast=bench_fast)), rounds=1, iterations=1
    )

    pretty_rows = [
        {
            "num_clients": n,
            "hierarchical": format_duration(h),
            "central": format_duration(c),
            "gap_s": f"{h - c:+.1f}",
        }
        for n, h, c in zip(
            result.client_counts, result.hierarchical_total_delay_s, result.central_total_delay_s
        )
    ]
    emit(
        "Fig. 8 — total processing delay of 10 FL rounds vs number of clients",
        format_table(pretty_rows)
        + "\n\n"
        + format_series("hierarchical_total_delay_s", result.hierarchical_total_delay_s, precision=1)
        + "\n"
        + format_series("central_total_delay_s     ", result.central_total_delay_s, precision=1),
    )

    hierarchical = result.hierarchical_total_delay_s
    central = result.central_total_delay_s
    counts = result.client_counts

    # Shape 1: both curves grow with the number of clients.
    assert all(h2 > h1 for h1, h2 in zip(hierarchical, hierarchical[1:]))
    assert all(c2 > c1 for c1, c2 in zip(central, central[1:]))

    # Shape 2: at the smallest scale the hierarchical arrangement carries the
    # overhead of the extra aggregation level (paper: hierarchical ≥ central).
    assert hierarchical[0] >= central[0]

    # Shape 3: the gap closes as the client count grows — the central
    # aggregator degrades faster (paper's main qualitative observation).
    gaps = result.gaps
    assert gaps[-1] < gaps[0]

    # Shape 4: the difference between the two topologies stays small relative
    # to the totals at small scale ("the difference of the two cases is not as
    # significant", §VI).
    assert abs(gaps[0]) / central[0] < 0.25
