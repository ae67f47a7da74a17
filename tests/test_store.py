"""Tests for the content-addressed results store and incremental execution.

Covers: spec/sweep hash stability (as_dict/from_dict round trips, dict key
order), store round trips (runs, grids, gc, schema-version refusal),
cache-hit byte-identity (stored signature == fresh signature, identical
rendered rows), incremental grid re-execution (a warm grid executes zero
cells, editing one axis value re-executes only the changed cells — pinned by
counting worker invocations), ``--resume`` after a simulated mid-grid kill,
the atomic report-bundle rename, and the serve JSON API.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import threading
import urllib.request

import pytest

from repro.experiments.report import write_grid_report
from repro.scenarios import (
    AxisSpec,
    FleetSpec,
    ResultsStore,
    ResultsStoreError,
    ScenarioRunner,
    ScenarioSpec,
    SweepSpec,
    TrainingSpec,
    canonical_json,
    get_grid,
    get_scenario,
    spec_hash,
    sweep_hash,
)
from repro.scenarios.runner import CellResult
from repro.scenarios.serve import create_server
from repro.scenarios.store import BUSY_TIMEOUT_MS, SCHEMA_VERSION

import repro.scenarios.runner as runner_module
import repro.scenarios.store as store_module

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _tiny_base(**overrides) -> ScenarioSpec:
    base = dict(
        name="store-base",
        seed=11,
        fleet=FleetSpec(num_clients=4),
        training=TrainingSpec(
            rounds=2,
            local_epochs=1,
            dataset_samples=400,
            client_data_fraction=0.05,
            train_for_real=False,
            round_deadline_s=5.0,
        ),
    )
    base.update(overrides)
    return ScenarioSpec(**base)


def _small_sweep(deadlines=(1.0, 5.0), seeds=(1, 2)) -> SweepSpec:
    return SweepSpec(
        name="store-sweep",
        base=_tiny_base(),
        axes=(
            AxisSpec("training.round_deadline_s", tuple(deadlines)),
            AxisSpec("seed", tuple(seeds)),
        ),
    )


@pytest.fixture
def store(tmp_path) -> ResultsStore:
    with ResultsStore(tmp_path / "results.sqlite") as handle:
        yield handle


@pytest.fixture
def counted_cells(monkeypatch):
    """Count worker invocations: every executed (not cached) cell lands here."""
    executed = []
    original = runner_module._run_grid_cell

    def counting(payload):
        executed.append(payload[0])
        return original(payload)

    monkeypatch.setattr(runner_module, "_run_grid_cell", counting)
    return executed


class TestSpecHash:
    def test_stable_across_as_dict_from_dict_round_trip(self):
        spec = _tiny_base()
        clone = ScenarioSpec.from_dict(json.loads(json.dumps(spec.as_dict())))
        assert spec_hash(clone) == spec_hash(spec)

    def test_independent_of_dict_key_order(self):
        tree = _tiny_base().as_dict()
        shuffled = {key: tree[key] for key in sorted(tree, reverse=True)}
        shuffled["training"] = {
            key: tree["training"][key] for key in sorted(tree["training"], reverse=True)
        }
        assert spec_hash(shuffled) == spec_hash(tree)

    def test_changing_any_field_changes_the_hash(self):
        base = spec_hash(_tiny_base())
        assert spec_hash(_tiny_base(seed=12)) != base
        assert spec_hash(_tiny_base(name="other")) != base

    def test_spec_object_and_its_dict_agree(self):
        spec = _tiny_base()
        assert spec_hash(spec) == spec_hash(spec.as_dict())

    def test_sweep_hash_stable_across_round_trip(self):
        sweep = _small_sweep()
        clone = SweepSpec.from_dict(json.loads(json.dumps(sweep.as_dict())))
        assert sweep_hash(clone) == sweep_hash(sweep)

    def test_canonical_json_sorts_keys_and_minimizes(self):
        assert canonical_json({"b": 1, "a": [1.5, True]}) == '{"a":[1.5,true],"b":1}'


class TestResultsStore:
    def test_run_round_trip(self, store):
        spec = _tiny_base()
        payload = {"signature": "ab" * 32, "rounds_completed": 2, "final_accuracy": 0.5}
        store.put_run(spec_hash(spec), spec.seed, spec, "ab" * 32, payload)
        stored = store.get_run(spec_hash(spec), spec.seed)
        assert stored is not None
        assert stored.payload == payload
        assert stored.signature == "ab" * 32
        assert stored.scenario == spec.name
        assert store.run_spec(spec_hash(spec), spec.seed) == json.loads(
            canonical_json(spec.as_dict())
        )

    def test_get_miss_returns_none_and_hit_counts(self, store):
        spec = _tiny_base()
        assert store.get_run(spec_hash(spec), spec.seed) is None
        store.put_run(spec_hash(spec), spec.seed, spec, "sig", {"x": 1})
        store.get_run(spec_hash(spec), spec.seed)
        store.get_run(spec_hash(spec), spec.seed)
        assert store.stats()["total_hits"] == 2

    def test_resolve_run_prefix_and_ambiguity(self, store):
        spec = _tiny_base()
        key = spec_hash(spec)
        store.put_run(key, 1, spec, "sig", {"x": 1})
        store.put_run(key, 2, spec, "sig", {"x": 1})
        assert store.resolve_run(key[:10], seed=2).seed == 2
        with pytest.raises(ResultsStoreError, match="ambiguous"):
            store.resolve_run(key[:10])
        with pytest.raises(ResultsStoreError, match="no stored run"):
            store.resolve_run("ffff", seed=1)

    def test_grid_record_and_resolve(self, store):
        spec = _tiny_base()
        store.put_run(spec_hash(spec), spec.seed, spec, "sig", {"x": 1})
        cells = [
            {
                "index": 0,
                "coordinates": {"seed": spec.seed},
                "spec_hash": spec_hash(spec),
                "seed": spec.seed,
                "signature": "sig",
            }
        ]
        store.record_grid("f00d" * 16, "my-grid", ["seed"], cells)
        assert store.resolve_grid("my-grid").cells == cells
        assert store.resolve_grid("f00d").name == "my-grid"
        with pytest.raises(ResultsStoreError, match="no recorded grid"):
            store.resolve_grid("nope")

    def test_gc_needs_a_selector(self, store):
        with pytest.raises(ResultsStoreError, match="selector"):
            store.gc()

    def test_gc_by_scenario_drops_unresolvable_grids(self, store):
        spec = _tiny_base()
        store.put_run(spec_hash(spec), spec.seed, spec, "sig", {"x": 1})
        store.record_grid(
            "f00d" * 16,
            "g",
            ["seed"],
            [
                {
                    "index": 0,
                    "coordinates": {"seed": spec.seed},
                    "spec_hash": spec_hash(spec),
                    "seed": spec.seed,
                    "signature": "sig",
                }
            ],
        )
        other = _tiny_base(name="other-scenario")
        store.put_run(spec_hash(other), other.seed, other, "sig2", {"x": 2})

        removed = store.gc(scenario=spec.name)
        assert removed == {"runs": 1, "grids": 1}
        assert store.get_run(spec_hash(other), other.seed) is not None
        assert store.grids() == []

    def test_gc_by_age(self, store):
        spec = _tiny_base()
        store.put_run(spec_hash(spec), spec.seed, spec, "sig", {"x": 1})
        assert store.gc(older_than_s=3600)["runs"] == 0
        assert store.gc(older_than_s=-1)["runs"] == 1

    def test_gc_all_empties_the_store(self, store):
        spec = _tiny_base()
        store.put_run(spec_hash(spec), spec.seed, spec, "sig", {"x": 1})
        assert store.gc(delete_all=True)["runs"] == 1
        assert store.stats()["runs"] == 0

    def test_wrong_schema_version_refused(self, tmp_path):
        path = tmp_path / "results.sqlite"
        with ResultsStore(path) as handle:
            with handle._lock:
                handle._db().execute(
                    "UPDATE store_meta SET value = ? WHERE key = 'schema_version'",
                    (str(SCHEMA_VERSION + 1),),
                )
                handle._db().commit()
        with pytest.raises(ResultsStoreError, match="schema"):
            ResultsStore(path)

    def test_closed_store_raises(self, tmp_path):
        handle = ResultsStore(tmp_path / "results.sqlite")
        handle.close()
        with pytest.raises(ResultsStoreError, match="closed"):
            handle.stats()


def _hammer_store(path: str, worker: int, writes: int) -> None:
    """Child-process body for the concurrent-writer test: open, write, close."""
    spec = _tiny_base().as_dict()
    with ResultsStore(path) as handle:
        for index in range(writes):
            handle.put_run(
                f"w{worker}-{index:04d}",
                seed=index,
                spec=spec,
                signature=f"sig-{worker}-{index}",
                payload={"worker": worker, "index": index},
            )


class TestConcurrentWriters:
    def test_store_opens_in_wal_mode_with_busy_timeout(self, tmp_path):
        with ResultsStore(tmp_path / "results.sqlite") as handle:
            with handle._lock:
                mode = handle._db().execute("PRAGMA journal_mode").fetchone()[0]
                timeout = handle._db().execute("PRAGMA busy_timeout").fetchone()[0]
            assert str(mode).lower() == "wal"
            assert int(timeout) == BUSY_TIMEOUT_MS

    def test_parallel_writer_processes_all_land(self, tmp_path):
        # Four processes hammer the same database file; WAL plus the busy
        # timeout must absorb the contention — no "database is locked"
        # failures (a worker that hits one exits non-zero) and every row
        # durable afterwards.
        path = str(tmp_path / "concurrent.sqlite")
        ResultsStore(path).close()  # create the schema before the race
        workers, writes = 4, 25
        processes = [
            multiprocessing.Process(target=_hammer_store, args=(path, worker, writes))
            for worker in range(workers)
        ]
        for process in processes:
            process.start()
        for process in processes:
            process.join(timeout=120)
        assert all(process.exitcode == 0 for process in processes)
        with ResultsStore(path) as handle:
            assert handle.stats()["runs"] == workers * writes
            for worker in range(workers):
                for index in (0, writes - 1):
                    stored = handle.get_run(f"w{worker}-{index:04d}", seed=index)
                    assert stored is not None
                    assert stored.payload == {"worker": worker, "index": index}


class TestRunWithStore:
    def test_cache_hit_is_byte_identical_to_fresh(self, store):
        runner = ScenarioRunner(store=store)
        fresh = runner.run(_tiny_base())
        cached = runner.run(_tiny_base())
        assert not fresh.from_store
        assert cached.from_store
        assert cached.signature == fresh.signature
        assert cached.summary_row() == fresh.summary_row()
        assert cached.round_rows() == fresh.round_rows()
        assert ScenarioRunner.format_rounds(cached) == ScenarioRunner.format_rounds(fresh)
        assert runner.store_hits == 1 and runner.store_misses == 1

    def test_row_written_before_sharding_was_removed_still_serves(self, store):
        # Payloads stored by earlier versions carry three extra keys; a row
        # that still has them must load and render like a fresh run.
        spec = _tiny_base()
        fresh = ScenarioRunner().run(spec)
        payload = fresh.to_payload()
        payload.update(canonical_digest="ab" * 32, sharded_signature="cd" * 32, shards=2)
        store.put_run(spec_hash(spec), spec.seed, spec, fresh.signature, payload)
        cached = ScenarioRunner(store=store).run(spec)
        assert cached.from_store
        assert cached.signature == fresh.signature
        assert ScenarioRunner.format_rounds(cached) == ScenarioRunner.format_rounds(fresh)
        assert ScenarioRunner.format_summary([cached]) == ScenarioRunner.format_summary([fresh])

    def test_content_addresses_are_the_ones_revision_4_writes(self):
        # A store filled at RESULTS_REVISION 4 must be served warm by
        # later commits: the keys it wrote are the keys looked up now.
        assert store_module.RESULTS_REVISION == 4
        assert spec_hash(get_scenario("baseline")) == (
            "892f35365678bb0c9bdf7648cbb0524b4078d673818f7dfcf342cff9838d59e2"
        )
        assert spec_hash(get_scenario("degraded-wan-int8")) == (
            "79fb00b6de4590237a2f0d43a742ea4f29bad2c026bf2681c0504f5a9d8575fd"
        )
        grid = get_grid("codec-compare")
        assert sweep_hash(grid) == (
            "f3dbfcbfafbb55d05f8a4baa5a93d21b9f55092b94276f11301c2c03732f506e"
        )
        assert [spec_hash(cell.spec)[:8] for cell in grid.cells()[:3]] == [
            "4ee1cd64", "42c8e398", "04d6f3ea",
        ]

    def test_row_written_under_the_previous_revision_is_not_served(self, store, monkeypatch):
        # A change that moves signatures bumps RESULTS_REVISION; what the store
        # holds from before (every earlier revision) must miss
        # (once) instead of serving old results.
        spec, sweep = _tiny_base(), _small_sweep()
        current = store_module.RESULTS_REVISION
        old_keys = {}
        for previous in range(1, current):
            monkeypatch.setattr(store_module, "RESULTS_REVISION", previous)
            old_keys[spec_hash(spec)] = sweep_hash(sweep)
            store.put_run(spec_hash(spec), spec.seed, spec, "previous-revision", {"stale": previous})
        monkeypatch.setattr(store_module, "RESULTS_REVISION", current)
        assert len(old_keys) == current - 1 and spec_hash(spec) not in old_keys
        assert sweep_hash(sweep) not in old_keys.values()

        runner = ScenarioRunner(store=store)
        fresh = runner.run(spec)
        assert not fresh.from_store and fresh.signature != "previous-revision"
        assert runner.store_hits == 0 and runner.store_misses == 1
        assert runner.run(spec).from_store  # the miss happens once
        # The old rows are still there for ``store gc`` to collect.
        assert [store.get_run(key, spec.seed).payload["stale"] for key in old_keys] == list(
            range(1, current)
        )
        assert store.gc(scenario=spec.name)["runs"] == current

    def test_cached_signature_matches_a_storeless_runner(self, store):
        cached = ScenarioRunner(store=store)
        baseline = ScenarioRunner()
        first = cached.run(_tiny_base())
        second = cached.run(_tiny_base())
        independent = baseline.run(_tiny_base())
        assert first.signature == second.signature == independent.signature

    def test_seed_override_is_part_of_the_key(self, store):
        runner = ScenarioRunner(store=store)
        runner.run(_tiny_base(), seed=1)
        result = runner.run(_tiny_base(), seed=2)
        assert not result.from_store
        assert runner.store_misses == 2

    def test_use_store_false_bypasses_the_cache(self, store):
        runner = ScenarioRunner(store=store)
        runner.run(_tiny_base())
        result = runner.run(_tiny_base(), use_store=False)
        assert not result.from_store
        assert runner.store_hits == 0

    def test_runner_owns_store_opened_from_path(self, tmp_path):
        path = tmp_path / "owned.sqlite"
        runner = ScenarioRunner(store=path)
        runner.run(_tiny_base())
        runner.close()
        assert runner.store is None
        with ResultsStore(path) as reopened:
            assert reopened.stats()["runs"] == 1


class TestGridWithStore:
    def test_warm_grid_executes_zero_cells(self, store, counted_cells):
        runner = ScenarioRunner(store=store)
        cold = runner.run_grid(_small_sweep(), workers=1)
        assert cold.executed_cells == 4 and cold.cached_cells == 0
        assert len(counted_cells) == 4

        warm = runner.run_grid(_small_sweep(), workers=1)
        assert warm.executed_cells == 0 and warm.cached_cells == 4
        assert len(counted_cells) == 4, "warm grid must not invoke any worker"
        assert warm.signatures() == cold.signatures()
        assert warm.summary_rows() == cold.summary_rows()
        assert warm.comparison_rows() == cold.comparison_rows()

    def test_editing_one_axis_re_executes_only_changed_cells(self, store, counted_cells):
        runner = ScenarioRunner(store=store)
        runner.run_grid(_small_sweep(deadlines=(1.0, 5.0)), workers=1)
        del counted_cells[:]

        edited = runner.run_grid(_small_sweep(deadlines=(1.0, 3.0)), workers=1)
        # deadline 1.0 x seeds {1,2} cached; deadline 3.0 x seeds {1,2} new.
        assert edited.cached_cells == 2 and edited.executed_cells == 2
        assert sorted(counted_cells) == [2, 3]
        changed = [c for c in edited.cells if c.coordinates["training.round_deadline_s"] == 3.0]
        assert [c.index for c in changed] == [2, 3]

    def test_cached_cells_serve_across_worker_counts(self, store):
        runner = ScenarioRunner(store=store)
        cold = runner.run_grid(_small_sweep(), workers=2)
        warm = runner.run_grid(_small_sweep(), workers=4)
        assert warm.cached_cells == 4
        assert warm.signatures() == cold.signatures()
        runner.close()

    def test_resume_after_simulated_mid_grid_kill(self, store, monkeypatch):
        original = runner_module._run_grid_cell
        calls = []

        def dies_after_two(payload):
            if len(calls) == 2:
                raise KeyboardInterrupt()
            calls.append(payload[0])
            return original(payload)

        monkeypatch.setattr(runner_module, "_run_grid_cell", dies_after_two)
        runner = ScenarioRunner(store=store)
        with pytest.raises(KeyboardInterrupt):
            runner.run_grid(_small_sweep(), workers=1)
        assert store.stats()["runs"] == 2, "completed cells survive the kill"
        assert store.grids() == [], "a killed grid is not recorded as complete"

        monkeypatch.setattr(runner_module, "_run_grid_cell", original)
        resumed = runner.run_grid(_small_sweep(), workers=1)
        assert resumed.cached_cells == 2 and resumed.executed_cells == 2
        assert [c.index for c in resumed.cells] == [0, 1, 2, 3]
        assert store.grids()[0].name == "store-sweep"

        # The resumed grid is byte-identical to a never-interrupted one.
        independent = ScenarioRunner().run_grid(_small_sweep(), workers=1)
        assert resumed.signatures() == independent.signatures()

    def test_grid_record_links_resolvable_runs(self, store):
        runner = ScenarioRunner(store=store)
        result = runner.run_grid(_small_sweep(), workers=1)
        grid = store.resolve_grid("store-sweep")
        assert [cell["signature"] for cell in grid.cells] == result.signatures()
        for cell in grid.cells:
            assert store.get_run(cell["spec_hash"], cell["seed"]) is not None


class TestDeadlineTierMixGolden:
    """The acceptance pin: warm ``deadline-tier-mix`` executes 0 cells and
    reproduces the committed golden signatures byte-identically."""

    def test_warm_registry_grid_reproduces_committed_golden(self, tmp_path, monkeypatch):
        golden_path = os.path.join(
            REPO_ROOT, "tests", "data", "deadline_tier_mix_signatures.txt"
        )
        runner = ScenarioRunner(store=tmp_path / "results.sqlite")
        try:
            cold = runner.run_grid("deadline-tier-mix", workers=2)

            def no_worker_allowed(payload):
                raise AssertionError(f"warm grid executed cell {payload[0]}")

            monkeypatch.setattr(runner_module, "_run_grid_cell", no_worker_allowed)
            warm = runner.run_grid("deadline-tier-mix", workers=1)
            assert warm.cached_cells == len(warm.cells)
            assert warm.executed_cells == 0
            produced = "".join(f"{c.index:03d}  {c.signature}\n" for c in warm.cells)
            with open(golden_path, "r", encoding="utf-8") as handle:
                assert handle.read() == produced
            assert cold.signatures() == warm.signatures()
        finally:
            runner.close()


class TestAtomicReportBundle:
    def _cell(self):
        class Cell:
            index = 0
            coordinates = {"seed": 1}
            seed = 1
            rounds_completed = 1
            final_accuracy = 0.25
            total_s = 2.0
            messaging_s = 1.0
            planning_s = 0.0
            collecting_s = 0.6
            aggregating_s = 0.2
            messages = 5
            traffic_bytes = 50
            clients_dropped = 0
            clients_admitted = 0
            stragglers_cut = 0
            faults_started = 0
            signature = "cd" * 32

        return Cell()

    def test_crash_mid_write_leaves_no_partial_dir(self, tmp_path, monkeypatch):
        import builtins

        real_open = builtins.open

        def failing_open(path, *args, **kwargs):
            if str(path).endswith("signatures.txt"):
                raise OSError("disk full")
            return real_open(path, *args, **kwargs)

        monkeypatch.setattr(builtins, "open", failing_open)
        out_dir = tmp_path / "bundle"
        with pytest.raises(OSError, match="disk full"):
            write_grid_report([self._cell()], str(out_dir))
        assert not out_dir.exists(), "a partial bundle must never appear"
        assert list(tmp_path.iterdir()) == [], "staging dirs must be cleaned up"

    def test_failed_rewrite_preserves_the_previous_bundle(self, tmp_path, monkeypatch):
        import builtins

        out_dir = tmp_path / "bundle"
        write_grid_report([self._cell()], str(out_dir))
        before = (out_dir / "signatures.txt").read_bytes()

        real_open = builtins.open

        def failing_open(path, *args, **kwargs):
            if str(path).endswith("grid.md"):
                raise OSError("disk full")
            return real_open(path, *args, **kwargs)

        monkeypatch.setattr(builtins, "open", failing_open)
        with pytest.raises(OSError, match="disk full"):
            write_grid_report([self._cell()], str(out_dir))
        monkeypatch.undo()
        assert (out_dir / "signatures.txt").read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["bundle"]

    def test_rewrite_replaces_stale_files(self, tmp_path):
        out_dir = tmp_path / "bundle"
        write_grid_report([self._cell()], str(out_dir))
        (out_dir / "stale.csv").write_text("left over from an older bundle")
        write_grid_report([self._cell()], str(out_dir))
        assert not (out_dir / "stale.csv").exists()
        assert (out_dir / "grid.csv").exists()

    def test_bundle_lands_under_a_fresh_nested_parent(self, tmp_path):
        out_dir = tmp_path / "deep" / "nested" / "bundle"
        paths = write_grid_report([self._cell()], str(out_dir))
        assert all(os.path.exists(path) for path in paths.values())


class TestServeApi:
    @pytest.fixture
    def served(self, store):
        runner = ScenarioRunner(store=store)
        grid = runner.run_grid(_small_sweep(), workers=1)
        server = create_server(store, host="127.0.0.1", port=0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        base = f"http://127.0.0.1:{server.server_address[1]}"
        try:
            yield base, grid
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=5)

    def _get(self, url: str):
        with urllib.request.urlopen(url, timeout=10) as response:
            return response.status, response.read()

    def test_healthz_and_listings(self, served):
        base, _grid = served
        status, body = self._get(f"{base}/healthz")
        assert status == 200
        document = json.loads(body)
        assert document["status"] == "ok" and document["runs"] == 4

        status, body = self._get(f"{base}/api/runs")
        assert status == 200 and len(json.loads(body)["runs"]) == 4

        status, body = self._get(f"{base}/api/grids")
        grids = json.loads(body)["grids"]
        assert [g["name"] for g in grids] == ["store-sweep"]

    def test_run_detail_carries_spec_and_payload(self, served, store):
        base, grid = served
        run = store.runs()[0]
        status, body = self._get(f"{base}/api/runs/{run.spec_hash}/{run.seed}")
        document = json.loads(body)
        assert status == 200
        assert document["signature"] == run.signature
        assert document["payload"]["signature"] == run.signature
        assert document["spec"]["name"] == "store-base"

    def test_grid_csv_matches_report_bundle(self, served, tmp_path):
        base, grid = served
        paths = grid.write_report(str(tmp_path / "bundle"))
        _status, served_csv = self._get(f"{base}/api/grids/store-sweep/grid.csv")
        with open(paths["grid.csv"], "rb") as handle:
            assert handle.read() == served_csv
        _status, served_sigs = self._get(f"{base}/api/grids/store-sweep/signatures")
        with open(paths["signatures.txt"], "rb") as handle:
            assert handle.read() == served_sigs

    def test_unknown_endpoint_is_a_json_404(self, served):
        base, _grid = served
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            self._get(f"{base}/api/nope")
        assert excinfo.value.code == 404
        assert json.loads(excinfo.value.read())["error"].startswith("no such endpoint")

    def test_dashboard_serves_html(self, served):
        base, _grid = served
        status, body = self._get(f"{base}/")
        assert status == 200
        assert b"grid heatmaps" in body


class TestPayloadRoundTrips:
    def test_cell_result_payload_round_trip(self):
        runner = ScenarioRunner()
        grid = runner.run_grid(_small_sweep(deadlines=(1.0,), seeds=(1,)), workers=1)
        cell = grid.cells[0]
        clone = CellResult.from_payload(
            cell.index, dict(cell.coordinates), json.loads(json.dumps(cell.to_payload()))
        )
        assert clone.signature == cell.signature
        assert clone.total_s == cell.total_s
        assert clone.messages == cell.messages
        assert grid.summary_rows() == runner_module.GridResult(
            sweep=grid.sweep, cells=[clone], workers=1, elapsed_s=0.0
        ).summary_rows()

    def test_scenario_result_payload_round_trip(self):
        runner = ScenarioRunner()
        result = runner.run(_tiny_base())
        payload = json.loads(json.dumps(result.to_payload()))
        clone = runner_module.ScenarioResult.from_payload(result.spec, payload)
        assert clone.from_store
        assert clone.signature == result.signature
        assert clone.summary_row() == result.summary_row()
        assert clone.round_rows() == result.round_rows()
