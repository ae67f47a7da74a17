"""Parallel speedup of the parameter-grid runner on a 16-cell grid.

Grid cells are independent deterministic simulations, so ``run_grid`` fans
them out over a ``multiprocessing`` pool.  This benchmark runs the same
16-cell grid serially and on 4 workers, asserts the determinism contract
(byte-identical per-cell signatures and metric rows regardless of worker
count), and pins the speedup where the hardware can show one — on
single-core CI runners the pool's fork overhead makes a hard speedup
assertion meaningless, so there the parallel run is only required not to
collapse.
"""

from __future__ import annotations

import os
import time

from conftest import emit, fast_mode

from repro.experiments.report import rows_to_csv
from repro.scenarios import AxisSpec, FleetSpec, ScenarioRunner, ScenarioSpec, SweepSpec, TrainingSpec

WORKERS = 4


def _bench_grid(cells_per_axis: int) -> SweepSpec:
    base = ScenarioSpec(
        name="grid-bench-base",
        seed=42,
        fleet=FleetSpec(num_clients=5),
        training=TrainingSpec(
            rounds=2,
            local_epochs=1,
            dataset_samples=400,
            client_data_fraction=0.05,
            train_for_real=False,
            round_deadline_s=5.0,
        ),
    )
    return SweepSpec(
        name="grid-bench",
        base=base,
        axes=(
            AxisSpec("training.round_deadline_s", tuple(1.0 + i for i in range(cells_per_axis))),
            AxisSpec("seed", tuple(range(1, cells_per_axis + 1))),
        ),
    )


def test_grid_parallel_speedup(benchmark, bench_fast):
    cells_per_axis = 2 if bench_fast else 4  # 4 or 16 cells
    sweep = _bench_grid(cells_per_axis)
    runner = ScenarioRunner()

    def run():
        start = time.perf_counter()
        serial = runner.run_grid(sweep, workers=1)
        serial_s = time.perf_counter() - start
        start = time.perf_counter()
        parallel = runner.run_grid(sweep, workers=WORKERS)
        parallel_s = time.perf_counter() - start
        return serial, parallel, serial_s, parallel_s

    serial, parallel, serial_s, parallel_s = benchmark.pedantic(run, rounds=1, iterations=1)
    speedup = serial_s / max(parallel_s, 1e-9)
    cores = os.cpu_count() or 1

    emit(
        f"Grid runner — {len(sweep.cells())} cells, 1 vs {WORKERS} workers",
        f"cells:            {len(sweep.cells())}\n"
        f"cores available:  {cores}\n"
        f"serial wall:      {serial_s:.3f} s\n"
        f"parallel wall:    {parallel_s:.3f} s\n"
        f"speedup:          {speedup:.2f}x\n"
        f"signatures equal: {[cell.signature for cell in serial.cells] == [cell.signature for cell in parallel.cells]}",
    )

    # The determinism contract is unconditional: same cells, same bytes.
    assert [cell.signature for cell in serial.cells] == [cell.signature for cell in parallel.cells]
    assert rows_to_csv(serial.summary_rows()) == rows_to_csv(parallel.summary_rows())
    assert len(serial.cells) == len(sweep.cells())

    if cores >= 4 and not fast_mode():
        # With real cores behind the pool the 16-cell grid must get faster.
        assert speedup > 1.2, f"expected parallel speedup on {cores} cores, got {speedup:.2f}x"
    else:
        # Single/dual-core boxes: the pool may not win, but the overhead must
        # stay bounded (fork + pickle for 16 tiny cells, not a collapse).
        assert parallel_s < serial_s * 3 + 2.0


def test_persistent_pool_amortizes_worker_startup(benchmark, bench_fast):
    """Many-grid sessions reuse one worker pool instead of respawning per grid.

    A fresh runner per grid pays pool startup (process spawn + full stack
    re-import under the ``spawn`` start method) once per grid; a shared
    runner pays it once per session.  The determinism contract must hold
    either way, the pool object must actually be reused, and the shared
    session must not be slower than the respawning one beyond noise.
    """
    grids = 2 if bench_fast else 4
    sweep = _bench_grid(2)  # 4 tiny cells per grid

    def run():
        start = time.perf_counter()
        fresh_results = []
        for _ in range(grids):
            runner = ScenarioRunner()
            fresh_results.append(runner.run_grid(sweep, workers=WORKERS))
            runner.close()
        fresh_s = time.perf_counter() - start

        start = time.perf_counter()
        shared_results = []
        pools = []
        with ScenarioRunner() as shared:
            for _ in range(grids):
                shared_results.append(shared.run_grid(sweep, workers=WORKERS))
                pools.append(shared._pool)
        shared_s = time.perf_counter() - start
        reused = all(pool is pools[0] for pool in pools)
        return fresh_results, shared_results, fresh_s, shared_s, reused

    fresh_results, shared_results, fresh_s, shared_s, reused = benchmark.pedantic(
        run, rounds=1, iterations=1
    )

    emit(
        f"Persistent grid pool — {grids} grids x {len(sweep.cells())} cells, {WORKERS} workers",
        f"fresh pool per grid:  {fresh_s:.3f} s\n"
        f"shared pool session:  {shared_s:.3f} s\n"
        f"startup amortized:    {fresh_s / max(shared_s, 1e-9):.2f}x",
    )

    assert reused, "expected the shared runner to keep one pool across grids"
    for fresh, shared in zip(fresh_results, shared_results):
        assert [cell.signature for cell in fresh.cells] == [cell.signature for cell in shared.cells]
    # The shared session can only save work; allow generous noise headroom so
    # single-core CI boxes (where both modes are fork-cheap) stay green.
    assert shared_s < fresh_s * 1.5 + 2.0
