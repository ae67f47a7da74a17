"""Ablation bench: broker bridging vs a single broker (`abl_bridging`).

Paper §III.F: bridging lets SDFLMQ "distinctively regionalize clusters …
and allocate brokers to each region, while the brokers are connected", so no
single broker has to serve every client.  This bench runs the same FL session
once against one broker and once against three bridged regional brokers.

Expected shape: the FL outcome (final accuracy) is identical; with bridging,
the per-client delivery work is spread across brokers, so the busiest broker's
share of delivered bytes drops well below the 100 % it has in the
single-broker deployment; bridge-forwarded messages appear only in the bridged
deployment.
"""

from __future__ import annotations

from conftest import emit

from repro.experiments.ablations import run_broker_bridging
from repro.experiments.report import format_table


def test_broker_bridging(benchmark, bench_fast):
    rows = benchmark.pedantic(
        lambda: run_broker_bridging(
            num_clients=6 if bench_fast else 12,
            num_regions=3,
            fl_rounds=2 if bench_fast else 3,
        ),
        rounds=1,
        iterations=1,
    )
    printable = [
        {k: v for k, v in row.items() if k != "per_broker_delivered_bytes"} for row in rows
    ]
    emit("Ablation — broker bridging vs single broker", format_table(printable, precision=3))

    single, bridged = rows[0], rows[1]
    assert single["num_regions"] == 1 and bridged["num_regions"] == 3

    # Timing-only: nothing is trained, so no accuracy is reported.
    assert all("final_accuracy" not in row for row in rows)

    # The single broker delivers everything itself; with bridging the delivery
    # fan-out is spread across the regional brokers.
    assert single["busiest_broker_delivery_share"] > 0.999
    assert bridged["busiest_broker_delivery_share"] < 0.75

    # Bridges actually forwarded traffic between regions.
    assert single["bridged_messages"] == 0
    assert bridged["bridged_messages"] > 0
