"""Tests for the content-addressed results store and incremental execution.

Covers: spec/sweep hash stability (as_dict/from_dict round trips, dict key
order), store round trips (runs, grids, gc, schema-version refusal),
cache-hit byte-identity (stored signature == fresh signature, identical
rendered rows), incremental grid re-execution (a warm grid executes zero
cells, editing one axis value re-executes only the changed cells — pinned by
counting worker invocations), ``--resume`` after a simulated mid-grid kill,
a kill between a store write and its rename, the atomic report-bundle rename,
and inputs the store did not write: a file at the store path fails typed, a
garbage, truncated or misnamed entry file is a miss and is skipped by listings.
"""

from __future__ import annotations

import dataclasses
import json
import multiprocessing
import os

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
    return ResultsStore(tmp_path / "store")


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
        assert stored.spec == json.loads(canonical_json(spec.as_dict()))

    @pytest.mark.parametrize(
        "train_for_real, payload, accuracy",
        [
            (True, {"rounds_completed": 2, "final_accuracy": 0.5}, 0.5),
            # A timing-only run an older revision stored: the number is the
            # untrained model's accuracy, so the row shows none.
            (False, {"rounds_completed": 2, "final_accuracy": 0.1}, ""),
            (True, {"rounds_completed": 2}, ""),
            # A hand-written file whose spec leaves training at its defaults.
            (None, {"rounds_completed": 2, "final_accuracy": 0.5}, 0.5),
        ],
    )
    def test_row_accuracy_follows_the_stored_spec(self, store, train_for_real, payload, accuracy):
        base = _tiny_base()
        spec = dataclasses.replace(
            base, training=dataclasses.replace(base.training, train_for_real=bool(train_for_real)))
        tree = spec.as_dict()
        if train_for_real is None:
            del tree["training"]
        store.put_run(spec_hash(spec), spec.seed, tree, "sig", payload)
        row = store.get_run(spec_hash(spec), spec.seed).row()
        assert row["accuracy"] == accuracy
        assert row["rounds"] == 2

    def test_every_lookup_carries_the_stored_spec(self, store):
        spec = _tiny_base()
        key = spec_hash(spec)
        store.put_run(key, spec.seed, spec, "sig", {"x": 1})
        document = json.loads(canonical_json(spec.as_dict()))
        assert store.get_run(key, spec.seed).spec == document
        assert [run.spec for run in store.runs()] == [document]
        assert store.resolve_run(key[:8]).spec == document

    def test_get_miss_returns_none_and_a_hit_refreshes_the_mtime(self, store):
        spec = _tiny_base()
        assert store.get_run(spec_hash(spec), spec.seed) is None
        store.put_run(spec_hash(spec), spec.seed, spec, "sig", {"x": 1})
        path = _run_file(store, spec_hash(spec), spec.seed)
        os.utime(path, (1_000_000, 1_000_000))
        assert store.get_run(spec_hash(spec), spec.seed).payload == {"x": 1}
        assert os.path.getmtime(path) > 1_000_000
        # What gc reads as "last used": the refreshed run is not old.
        assert store.gc(older_than_s=3600)["runs"] == 0

    def test_gc_by_age_reads_the_last_use(self, store):
        spec = _tiny_base()
        store.put_run(spec_hash(spec), 1, spec, "sig", {"x": 1})
        store.put_run(spec_hash(spec), 2, spec, "sig", {"x": 2})
        os.utime(_run_file(store, spec_hash(spec), 1), (1_000_000, 1_000_000))
        assert store.gc(older_than_s=86400) == {"runs": 1, "grids": 0}
        assert [run.seed for run in store.runs()] == [2]

    def test_a_run_is_one_json_file_named_by_its_key(self, store):
        spec = _tiny_base()
        store.put_run(spec_hash(spec), -3, spec, "sig", {"x": 1})
        path = _run_file(store, spec_hash(spec), -3)
        with open(path, "r", encoding="utf-8") as handle:
            document = json.load(handle)
        assert document["spec_hash"] == spec_hash(spec) and document["seed"] == -3
        assert document["payload"] == {"x": 1} and document["signature"] == "sig"
        assert store.resolve_run(spec_hash(spec)[:6], seed=-3).payload == {"x": 1}
        assert os.listdir(os.path.join(store.path, "runs")) == [os.path.basename(path)]
        # Readable like the directory that holds it (mkstemp alone makes 0600).
        directory_mode = os.stat(os.path.dirname(path)).st_mode
        assert os.stat(path).st_mode & 0o777 == directory_mode & 0o666

    @pytest.mark.parametrize("key", ["../x", "ABCD", "", "ab/cd", "ab-1"])
    def test_a_key_that_is_not_lowercase_hex_reaches_no_path(self, store, key):
        with pytest.raises(ResultsStoreError, match="lowercase-hex"):
            store.put_run(key, 1, _tiny_base(), "sig", {"x": 1})
        with pytest.raises(ResultsStoreError, match="lowercase-hex"):
            store.get_run(key, 1)
        with pytest.raises(ResultsStoreError, match="lowercase-hex"):
            store.record_grid(key, "g", ["seed"], [])
        with pytest.raises(ResultsStoreError, match="no stored run"):
            store.resolve_run(key, seed=1)
        with pytest.raises(ResultsStoreError, match="no recorded grid"):
            store.resolve_grid(key)
        assert store.stats()["runs"] == 0

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

    def test_a_garbage_file_at_the_store_path_is_refused(self, tmp_path):
        path = tmp_path / "results.sqlite"
        path.write_bytes(b"not a results store " * 200)
        with pytest.raises(ResultsStoreError, match="move the file aside"):
            ResultsStore(path)
        assert path.read_bytes() == b"not a results store " * 200

    @pytest.mark.parametrize("damage", ["garbage", "truncated", "missing key", "misnamed"])
    def test_a_bad_run_file_is_a_miss_that_the_fresh_run_replaces(self, store, damage):
        spec, other = _tiny_base(), _tiny_base(name="other")
        store.put_run(spec_hash(other), other.seed, other, "sig", {"x": 2})
        path = _damage(store, spec, damage)
        runner = ScenarioRunner(store=store)
        fresh = runner.run(spec)
        assert not fresh.from_store and runner.store_misses == 1
        assert runner.run(spec).from_store, "the fresh put_run replaced the bad file"
        assert store.get_run(spec_hash(spec), spec.seed).signature == fresh.signature
        assert os.path.exists(path)

    @pytest.mark.parametrize("damage", ["garbage", "truncated", "missing key", "misnamed"])
    def test_listing_verbs_skip_a_bad_file_with_one_line(self, store, damage, capsys):
        spec, other = _tiny_base(), _tiny_base(name="other")
        store.put_run(spec_hash(other), other.seed, other, "sig", {"x": 2})
        path = _damage(store, spec, damage)
        capsys.readouterr()
        assert [run.scenario for run in store.runs()] == ["other"]
        assert store.resolve_run(spec_hash(other)[:8]).scenario == "other"
        with pytest.raises(ResultsStoreError, match="no stored run"):
            store.resolve_run(spec_hash(spec)[:8])
        assert store.gc(scenario="other") == {"runs": 1, "grids": 0}
        err = capsys.readouterr().err
        assert err.count("\n") == 3 and err.count(str(path)) == 3
        assert os.path.exists(path), "a file the store did not write is left in place"

    def test_a_bad_grid_file_is_skipped_and_rewritten(self, store, capsys):
        path = os.path.join(store.path, "grids", "f00d" * 16 + ".json")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write('{"sweep_hash": "')
        assert store.grids() == []
        assert capsys.readouterr().err.count(path) == 1
        store.record_grid("f00d" * 16, "g", ["seed"], [])
        assert store.resolve_grid("g").sweep_hash == "f00d" * 16

    @pytest.mark.parametrize("where", ["a regular file", "under a file"])
    def test_unopenable_path_refused(self, tmp_path, where):
        (tmp_path / "plain").write_text("x")
        path = tmp_path / "plain" if where == "a regular file" else tmp_path / "plain" / "store"
        with pytest.raises(ResultsStoreError, match=str(path)):
            ResultsStore(path)
        assert (tmp_path / "plain").read_text() == "x"

    def test_stored_payload_carries_metrics_and_signature(self, store):
        result = ScenarioRunner(store=store).run(_tiny_base())
        (listed,) = store.runs()
        run = store.get_run(listed.spec_hash, listed.seed)
        assert run.signature == result.signature
        assert run.payload["signature"] == result.signature
        assert run.payload["metrics"] == result.metrics
        assert run.payload["metrics"]["gauges"]


def _run_file(store: ResultsStore, key: str, seed: int) -> str:
    return os.path.join(store.path, "runs", f"{key}-{seed}.json")


def _damage(store: ResultsStore, spec: ScenarioSpec, damage: str) -> str:
    """Leave a bad file where ``spec``'s run belongs; returns its path."""
    store.put_run(spec_hash(spec), spec.seed, spec, "sig", {"x": 1})
    path = _run_file(store, spec_hash(spec), spec.seed)
    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    document = json.loads(text)
    if damage == "garbage":
        text = "\0" * 4096
    elif damage == "truncated":
        text = text[: len(text) // 3]
    elif damage == "missing key":
        del document["payload"]
        text = json.dumps(document)
    else:  # holds another seed's run under this seed's name
        document["seed"] += 1
        text = json.dumps(document)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)
    return path


class TestKillMidWrite:
    """A process killed between the temp write and the rename loses only
    the write in flight: the previous file stays whole and is served."""

    @pytest.fixture
    def dies_at_rename(self, monkeypatch):
        def replace(_source, _target):
            raise KeyboardInterrupt()

        return lambda: monkeypatch.setattr(store_module.os, "replace", replace)

    def test_put_run(self, store, dies_at_rename, capsys):
        spec = _tiny_base()
        store.put_run(spec_hash(spec), spec.seed, spec, "old", {"x": 1})
        dies_at_rename()
        with pytest.raises(KeyboardInterrupt):
            store.put_run(spec_hash(spec), spec.seed, spec, "new", {"x": 2})
        assert store.get_run(spec_hash(spec), spec.seed).payload == {"x": 1}
        assert os.listdir(os.path.join(store.path, "runs")) == [
            os.path.basename(_run_file(store, spec_hash(spec), spec.seed))
        ]
        assert [run.signature for run in store.runs()] == ["old"]
        assert store.stats()["runs"] == 1 and capsys.readouterr().err == ""

    def test_record_grid(self, store, dies_at_rename, capsys):
        cell = {"index": 0, "coordinates": {}, "spec_hash": "ab", "seed": 1, "signature": "s"}
        store.record_grid("f00d" * 16, "g", ["seed"], [cell])
        dies_at_rename()
        with pytest.raises(KeyboardInterrupt):
            store.record_grid("f00d" * 16, "g", ["seed"], [cell, dict(cell, index=1)])
        assert [len(grid.cells) for grid in store.grids()] == [1]
        assert store.resolve_grid("g").cells == [cell]
        assert os.listdir(os.path.join(store.path, "grids")) == ["f00d" * 16 + ".json"]
        assert capsys.readouterr().err == ""

    def test_a_temp_file_a_kill_leaves_behind_is_never_listed(self, store, capsys):
        spec = _tiny_base()
        store.put_run(spec_hash(spec), spec.seed, spec, "sig", {"x": 1})
        store.record_grid("f00d" * 16, "g", ["seed"], [
            {"index": 0, "spec_hash": spec_hash(spec), "seed": spec.seed}])
        for kind in ("runs", "grids"):
            with open(os.path.join(store.path, kind, ".tmpkilled.tmp"), "w") as handle:
                handle.write('{"trunc')
        assert len(store.runs()) == 1 and len(store.grids()) == 1
        assert store.stats()["runs"] == 1 and store.stats()["grids"] == 1
        assert store.gc(delete_all=True) == {"runs": 1, "grids": 1}
        assert capsys.readouterr().err == ""


def _hammer_store(path: str, worker: int, writes: int) -> None:
    """Child-process body for the concurrent-writer test: open, write."""
    spec = _tiny_base().as_dict()
    handle = ResultsStore(path)
    for index in range(writes):
        for key in (f"{worker:02x}{index:04x}", "ff"):  # its own key, then the shared one
            handle.put_run(
                key,
                seed=0 if key == "ff" else index,
                spec=spec,
                signature=f"sig-{worker}-{index}",
                payload={"worker": worker, "index": index},
            )


class TestConcurrentWriters:
    def test_parallel_writer_processes_all_land(self, tmp_path):
        # Four processes write into the same directory at once, all of them
        # also to one shared key; each file lands whole through its own temp
        # file and rename, and every run is there afterwards (a worker that
        # fails exits non-zero).
        path = str(tmp_path / "concurrent")
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
        handle = ResultsStore(path)
        assert handle.stats()["runs"] == workers * writes + 1
        assert len(os.listdir(os.path.join(path, "runs"))) == workers * writes + 1
        assert set(handle.get_run("ff", seed=0).payload) == {"worker", "index"}
        for worker in range(workers):
            for index in (0, writes - 1):
                stored = handle.get_run(f"{worker:02x}{index:04x}", seed=index)
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

    def test_runner_opened_from_a_path_stores_into_that_directory(self, tmp_path):
        path = tmp_path / "store"
        with ScenarioRunner(store=path) as runner:
            runner.run(_tiny_base())
        assert ResultsStore(path).stats()["runs"] == 1
        assert ScenarioRunner(store=path).run(_tiny_base()).from_store


class TestGridWithStore:
    def test_warm_grid_executes_zero_cells(self, store, counted_cells):
        runner = ScenarioRunner(store=store)
        cold = runner.run_grid(_small_sweep(), workers=1)
        assert cold.executed_cells == 4 and cold.cached_cells == 0
        assert len(counted_cells) == 4

        warm = runner.run_grid(_small_sweep(), workers=1)
        assert warm.executed_cells == 0 and warm.cached_cells == 4
        assert len(counted_cells) == 4, "warm grid must not invoke any worker"
        assert [cell.signature for cell in warm.cells] == [cell.signature for cell in cold.cells]
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
        assert [cell.signature for cell in warm.cells] == [cell.signature for cell in cold.cells]
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
        assert [cell.signature for cell in resumed.cells] == [cell.signature for cell in independent.cells]

    def test_grid_record_links_resolvable_runs(self, store):
        runner = ScenarioRunner(store=store)
        result = runner.run_grid(_small_sweep(), workers=1)
        grid = store.resolve_grid("store-sweep")
        assert [cell["signature"] for cell in grid.cells] == [cell.signature for cell in result.cells]
        for cell in grid.cells:
            assert store.get_run(cell["spec_hash"], cell["seed"]) is not None


class TestDeadlineTierMixGolden:
    """The acceptance pin: warm ``deadline-tier-mix`` executes 0 cells and
    reproduces the committed golden signatures byte-identically."""

    def test_warm_registry_grid_reproduces_committed_golden(self, tmp_path, monkeypatch):
        golden_path = os.path.join(
            REPO_ROOT, "tests", "data", "deadline_tier_mix_signatures.txt"
        )
        runner = ScenarioRunner(store=tmp_path / "store")
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
            assert [cell.signature for cell in cold.cells] == [cell.signature for cell in warm.cells]
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
