"""Tests for the parameter-grid sweep engine and its reporting.

Covers dotted-path override mechanics (nested dataclass fields, whole-dict
sections, list indices, unresolvable paths), grid expansion edge cases
(empty axes, duplicate cells collapsing, per-cell validation errors), the
named grid registry, the parallel runner's determinism contract (1-worker
vs N-worker byte-identical), the seed-threading regression, the report
emitters, the generated schema doc and the round-restart protocol fixes the
deadline sweeps exposed.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

from repro.experiments.report import (
    grid_summary_rows,
    messaging_vs_analytic_rows,
    rows_to_csv,
    write_grid_report,
)
from repro.scenarios import (
    AxisSpec,
    FaultSpec,
    FleetSpec,
    ScenarioRunner,
    ScenarioSpec,
    ScenarioSpecError,
    SweepSpec,
    TrainingSpec,
    get_grid,
    grid_names,
    grid_summaries,
    schema_markdown,
)
from repro.scenarios.sweep import apply_override

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _tiny_base(**overrides) -> ScenarioSpec:
    base = dict(
        name="sweep-base",
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


def _sweep(axes, **overrides) -> SweepSpec:
    kwargs = dict(name="test-sweep", base=_tiny_base(), axes=axes)
    kwargs.update(overrides)
    return SweepSpec(**kwargs)


class TestApplyOverride:
    def test_nested_dataclass_field(self):
        tree = _tiny_base().as_dict()
        apply_override(tree, "training.round_deadline_s", 2.5)
        assert tree["training"]["round_deadline_s"] == 2.5

    def test_top_level_field(self):
        tree = _tiny_base().as_dict()
        apply_override(tree, "seed", 99)
        assert tree["seed"] == 99

    def test_whole_section_replacement(self):
        tree = _tiny_base().as_dict()
        apply_override(tree, "fleet.tier_mix", {"laptop": 0.5, "phone": 0.5})
        assert tree["fleet"]["tier_mix"] == {"laptop": 0.5, "phone": 0.5}

    def test_list_index_path(self):
        spec = _tiny_base(
            faults=(
                FaultSpec(kind="broker_slowdown", start_s=0.5, duration_s=1.0, factor=10.0),
            )
        )
        tree = spec.as_dict()
        apply_override(tree, "faults.0.factor", 250.0)
        assert tree["faults"][0]["factor"] == 250.0

    def test_unknown_leaf_rejected(self):
        with pytest.raises(ScenarioSpecError, match="does not resolve"):
            apply_override(_tiny_base().as_dict(), "training.nope", 1)

    def test_unknown_intermediate_rejected(self):
        with pytest.raises(ScenarioSpecError, match="does not resolve"):
            apply_override(_tiny_base().as_dict(), "nope.deadline", 1)

    def test_list_index_out_of_range_rejected(self):
        with pytest.raises(ScenarioSpecError, match="out of range"):
            apply_override(_tiny_base().as_dict(), "faults.3.factor", 1.0)

    def test_non_integer_list_index_rejected(self):
        with pytest.raises(ScenarioSpecError, match="integer index"):
            apply_override(_tiny_base().as_dict(), "churn.first.time", 1.0)

    def test_descent_through_scalar_rejected(self):
        with pytest.raises(ScenarioSpecError, match="not a mapping or list"):
            apply_override(_tiny_base().as_dict(), "seed.inner", 1)

    def test_malformed_path_rejected(self):
        for path in ("", ".seed", "seed.", "a..b"):
            with pytest.raises(ScenarioSpecError, match="malformed|non-empty"):
                apply_override(_tiny_base().as_dict(), path, 1)


class TestSweepExpansion:
    def test_cartesian_product_order_and_coordinates(self):
        sweep = _sweep(
            (
                AxisSpec("training.round_deadline_s", (1.0, 2.0)),
                AxisSpec("seed", (1, 2)),
            )
        )
        cells = sweep.cells()
        assert [c.index for c in cells] == [0, 1, 2, 3]
        assert [c.coordinates for c in cells] == [
            {"training.round_deadline_s": 1.0, "seed": 1},
            {"training.round_deadline_s": 1.0, "seed": 2},
            {"training.round_deadline_s": 2.0, "seed": 1},
            {"training.round_deadline_s": 2.0, "seed": 2},
        ]
        assert [c.spec.seed for c in cells] == [1, 2, 1, 2]
        assert cells[2].spec.training.round_deadline_s == 2.0

    def test_empty_axis_rejected(self):
        with pytest.raises(ScenarioSpecError, match="no values"):
            AxisSpec("seed", ())

    def test_no_axes_rejected(self):
        with pytest.raises(ScenarioSpecError, match="at least one axis"):
            SweepSpec(name="x", base=_tiny_base(), axes=())

    def test_duplicate_axis_paths_rejected(self):
        with pytest.raises(ScenarioSpecError, match="duplicate axis"):
            _sweep((AxisSpec("seed", (1,)), AxisSpec("seed", (2,))))

    def test_axis_overriding_nested_dataclass_section(self):
        sweep = _sweep(
            (
                AxisSpec(
                    "fleet.tier_mix",
                    ({"laptop": 1.0}, {"laptop": 0.5, "rpi": 0.5}),
                ),
            )
        )
        mixes = [c.spec.fleet.tier_mix for c in sweep.cells()]
        assert mixes == [{"laptop": 1.0}, {"laptop": 0.5, "rpi": 0.5}]

    def test_duplicate_cells_collapse(self):
        sweep = _sweep((AxisSpec("seed", (1, 2, 1, 2, 1)),))
        assert len(sweep.cells()) == 2
        assert sweep.duplicates_collapsed == 3

    def test_invalid_dotted_path_rejected_eagerly(self):
        with pytest.raises(ScenarioSpecError, match="does not resolve"):
            _sweep((AxisSpec("fleet.num_cilents", (4, 8)),))

    def test_invalid_cell_value_rejected_with_coordinates(self):
        with pytest.raises(ScenarioSpecError, match="fleet.num_clients=0"):
            _sweep((AxisSpec("fleet.num_clients", (4, 0)),))

    def test_fault_knob_axis(self):
        base = _tiny_base(
            faults=(
                FaultSpec(kind="broker_slowdown", start_s=0.5, duration_s=1.0, factor=10.0),
            )
        )
        sweep = SweepSpec(
            name="fault-knob",
            base=base,
            axes=(AxisSpec("faults.0.factor", (10.0, 100.0)),),
        )
        assert [c.spec.faults[0].factor for c in sweep.cells()] == [10.0, 100.0]


class TestSweepDictForms:
    def test_round_trip_through_json(self):
        sweep = _sweep(
            (
                AxisSpec("training.round_deadline_s", (1.0, 2.0)),
                AxisSpec("seed", (1, 2)),
            )
        )
        clone = SweepSpec.from_dict(json.loads(json.dumps(sweep.as_dict())))
        assert clone.name == sweep.name
        assert clone.axes == sweep.axes
        assert [c.spec for c in clone.cells()] == [c.spec for c in sweep.cells()]

    def test_base_by_registry_name(self):
        sweep = SweepSpec.from_dict(
            {"name": "x", "base": "baseline", "axes": {"seed": [1, 2]}}
        )
        assert sweep.base.name == "baseline"
        assert len(sweep.cells()) == 2

    def test_unknown_base_name_rejected(self):
        with pytest.raises(ScenarioSpecError, match="unknown scenario"):
            SweepSpec.from_dict({"name": "x", "base": "no-such", "axes": {"seed": [1]}})

    def test_unknown_top_level_field_rejected(self):
        with pytest.raises(ScenarioSpecError, match="unknown sweep field"):
            SweepSpec.from_dict(
                {"name": "x", "base": "baseline", "axis": {"seed": [1]}}
            )

    def test_axes_as_list_of_entries(self):
        sweep = SweepSpec.from_dict(
            {
                "name": "x",
                "base": "baseline",
                "axes": [{"path": "seed", "values": [1, 2]}],
            }
        )
        assert sweep.axis_paths == ["seed"]

    def test_missing_base_rejected(self):
        with pytest.raises(ScenarioSpecError, match="base"):
            SweepSpec.from_dict({"name": "x", "axes": {"seed": [1]}})


class TestGridRegistry:
    def test_registry_has_the_two_named_grids(self):
        names = grid_names()
        assert "deadline-tier-mix" in names
        assert "wan-fleet-size" in names

    def test_named_grids_have_at_least_twelve_cells(self):
        for name in grid_names():
            assert len(get_grid(name).cells()) >= 12

    def test_unknown_grid_raises_with_options(self):
        with pytest.raises(KeyError, match="deadline-tier-mix"):
            get_grid("no-such-grid")

    def test_a_named_builder_runs_once_at_the_first_get_grid(self, monkeypatch):
        from repro.scenarios import register_grid, sweep

        monkeypatch.setattr(sweep, "_GRID_BUILDERS", dict(sweep._GRID_BUILDERS))
        monkeypatch.setattr(sweep, "_GRIDS", dict(sweep._GRIDS))
        calls = []

        def builder():
            calls.append(1)
            return _sweep((AxisSpec("seed", (1, 2)),), name="deferred-grid")

        assert register_grid(builder, name="deferred-grid") == "deferred-grid"
        assert "deferred-grid" in grid_names() and not calls
        assert get_grid("deferred-grid") is get_grid("deferred-grid")
        assert len(calls) == 1
        # Re-registering drops the memoised sweep; without a name the builder
        # runs at once, to read it.
        register_grid(builder, name="deferred-grid")
        assert len(calls) == 1
        assert register_grid(builder) == "deferred-grid" and len(calls) == 2
        assert get_grid("deferred-grid").name == "deferred-grid" and len(calls) == 2

    def test_importing_and_listing_names_builds_no_spec(self):
        # A fresh interpreter: this process has long since expanded the grids.
        code = (
            "import repro.scenarios.spec as spec\n"
            "built = []\n"
            "validate = spec.ScenarioSpec.__post_init__\n"
            "def counting(self):\n"
            "    built.append(self.name)\n"
            "    validate(self)\n"
            "spec.ScenarioSpec.__post_init__ = counting\n"
            "from repro.scenarios import registry, sweep\n"
            "assert len(registry.scenario_names()) == 9 and len(sweep.grid_names()) == 3\n"
            "assert not built, built\n"
            "assert len(sweep.get_grid('codec-compare').cells()) == 15 and built\n"
        )
        env = dict(os.environ, PYTHONPATH=os.path.join(REPO_ROOT, "src"))
        done = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
        )
        assert done.returncode == 0, done.stderr

    def test_summaries_cover_every_grid(self):
        rows = grid_summaries()
        assert [row["name"] for row in rows] == grid_names()
        assert all(row["cells"] >= 1 for row in rows)


class TestRunGrid:
    @pytest.fixture(scope="class")
    def small_sweep(self):
        return SweepSpec(
            name="small",
            base=_tiny_base(),
            axes=(
                AxisSpec("training.round_deadline_s", (1.0, 5.0)),
                AxisSpec("seed", (1, 2)),
            ),
        )

    def test_workers_1_and_4_byte_identical(self, small_sweep):
        runner = ScenarioRunner()
        serial = runner.run_grid(small_sweep, workers=1)
        parallel = runner.run_grid(small_sweep, workers=4)
        assert serial.signatures() == parallel.signatures()
        assert serial.summary_rows() == parallel.summary_rows()
        assert serial.comparison_rows() == parallel.comparison_rows()
        assert rows_to_csv(serial.summary_rows()) == rows_to_csv(parallel.summary_rows())

    def test_cells_carry_coordinates_and_effective_seed(self, small_sweep):
        grid = ScenarioRunner().run_grid(small_sweep, workers=2)
        assert [c.index for c in grid.cells] == [0, 1, 2, 3]
        for cell in grid.cells:
            assert cell.seed == cell.coordinates["seed"]
            assert cell.rounds_completed == 2
            assert cell.signature
        # The seed axis really changes the simulation.
        assert grid.cells[0].signature != grid.cells[1].signature

    def test_comparison_rows_have_both_delay_views(self, small_sweep):
        grid = ScenarioRunner().run_grid(small_sweep, workers=1)
        for row in grid.comparison_rows():
            assert row["analytic_total_s"] > 0
            assert row["observed_messaging_s"] > 0
            assert row["messaging_ratio"] == pytest.approx(
                row["observed_messaging_s"] / row["analytic_total_s"]
            )

    def test_write_report_bundle(self, small_sweep, tmp_path):
        grid = ScenarioRunner().run_grid(small_sweep, workers=1)
        paths = grid.write_report(str(tmp_path))
        assert sorted(paths) == [
            "grid.csv",
            "grid.md",
            "messaging_vs_analytic.csv",
            "messaging_vs_analytic.md",
            "seed_aggregate.csv",
            "seed_aggregate.md",
            "signatures.txt",
        ]
        signatures = (tmp_path / "signatures.txt").read_text().splitlines()
        assert len(signatures) == len(grid.cells)
        assert signatures[0] == f"000  {grid.cells[0].signature}"
        header = (tmp_path / "grid.csv").read_text().splitlines()[0]
        assert header.startswith("cell,training.round_deadline_s,seed,")

    def test_seed_aggregate_rows_mean_and_stddev(self, small_sweep):
        grid = ScenarioRunner().run_grid(small_sweep, workers=1)
        rows = grid.seed_aggregate_rows()
        # 2 deadlines x 2 seeds collapse to one row per deadline.
        assert [row["training.round_deadline_s"] for row in rows] == [1.0, 5.0]
        assert all(row["seeds"] == 2 for row in rows)
        assert all("seed" not in row for row in rows)
        by_deadline = {
            row["training.round_deadline_s"]: [
                c for c in grid.cells
                if c.coordinates["training.round_deadline_s"] == row["training.round_deadline_s"]
            ]
            for row in rows
        }
        for row in rows:
            cells = by_deadline[row["training.round_deadline_s"]]
            values = [c.final_accuracy for c in cells]
            expected_mean = sum(values) / len(values)
            assert row["accuracy_mean"] == pytest.approx(expected_mean)
            expected_std = (
                sum((v - expected_mean) ** 2 for v in values) / len(values)
            ) ** 0.5
            assert row["accuracy_std"] == pytest.approx(expected_std)
            assert row["messages_mean"] == pytest.approx(
                sum(c.messages for c in cells) / len(cells)
            )

    def test_seed_aggregate_empty_without_seed_axis(self, tmp_path):
        sweep = SweepSpec(
            name="no-seed",
            base=_tiny_base(),
            axes=(AxisSpec("training.round_deadline_s", (1.0, 5.0)),),
        )
        grid = ScenarioRunner().run_grid(sweep, workers=1)
        assert grid.seed_aggregate_rows() == []
        paths = grid.write_report(str(tmp_path))
        assert "seed_aggregate.csv" not in paths
        assert "seed_aggregate.md" not in paths

    def test_grid_smoke_matches_committed_golden(self):
        spec_path = os.path.join(REPO_ROOT, "tests", "data", "grid_smoke.json")
        golden_path = os.path.join(REPO_ROOT, "tests", "data", "grid_smoke_signatures.txt")
        with open(spec_path, "r", encoding="utf-8") as handle:
            sweep = SweepSpec.from_dict(json.load(handle))
        grid = ScenarioRunner().run_grid(sweep, workers=1)
        produced = "".join(f"{c.index:03d}  {c.signature}\n" for c in grid.cells)
        with open(golden_path, "r", encoding="utf-8") as handle:
            assert handle.read() == produced

    def test_round_anchored_grid_matches_committed_golden(self):
        """A grid sweeping a round-anchored fault's severity stays pinned.

        The axis path ``faults.0.factor`` overrides the round-anchored
        blackout's bandwidth multiplier; each cell's signature must match the
        committed golden byte for byte, for any worker count.
        """
        spec_path = os.path.join(REPO_ROOT, "tests", "data", "grid_round_anchored.json")
        golden_path = os.path.join(
            REPO_ROOT, "tests", "data", "grid_round_anchored_signatures.txt"
        )
        with open(spec_path, "r", encoding="utf-8") as handle:
            sweep = SweepSpec.from_dict(json.load(handle))
        assert sweep.base.faults[0].is_round_anchored
        grid = ScenarioRunner().run_grid(sweep, workers=2)
        produced = "".join(f"{c.index:03d}  {c.signature}\n" for c in grid.cells)
        with open(golden_path, "r", encoding="utf-8") as handle:
            assert handle.read() == produced
        # The severity axis must actually bite: harsher blackouts change the
        # delivery trace of the cells that share a seed.
        signatures = grid.signatures()
        assert signatures[0] != signatures[2]
        assert signatures[1] != signatures[3]


class TestSeedThreadingRegression:
    """--seeds overrides must agree across summary row, spec and signature."""

    def test_override_threads_through_result_and_summary(self):
        runner = ScenarioRunner()
        result = runner.run(_tiny_base(), seed=123)
        assert result.seed == 123
        assert result.spec.seed == 123
        assert result.summary_row()["seed"] == 123

    def test_override_equals_pre_seeded_spec(self):
        runner = ScenarioRunner()
        overridden = runner.run(_tiny_base(), seed=123)
        pre_seeded = runner.run(_tiny_base().with_seed(123))
        assert overridden.signature == pre_seeded.signature
        assert overridden.summary_row() == pre_seeded.summary_row()

    def test_suite_rows_report_effective_seeds(self):
        runner = ScenarioRunner()
        results = runner.run_suite(["baseline"], seeds=[5, 6])
        assert [r.summary_row()["seed"] for r in results] == [5, 6]
        assert [r.spec.seed for r in results] == [5, 6]


class TestReportEmitters:
    def test_rows_to_csv_quoting_and_float_precision(self):
        rows = [{"a": 1.5, "b": 'say "hi"', "c": 3}]
        text = rows_to_csv(rows)
        assert text.splitlines()[0] == "a,b,c"
        assert '"say ""hi"""' in text
        assert "1.5" in text

    def test_rows_to_csv_union_of_columns(self):
        rows = [{"a": 1}, {"b": 2}]
        lines = rows_to_csv(rows).splitlines()
        assert lines[0] == "a,b"
        assert lines[1] == "1,"
        assert lines[2] == ",2"

    def test_grid_rows_duck_typed(self):
        class Cell:
            index = 0
            coordinates = {"seed": 1, "fleet.tier_mix": {"laptop": 1.0}}
            seed = 1
            rounds_completed = 2
            final_accuracy = 0.5
            total_s = 1.0
            messaging_s = 0.5
            planning_s = 0.0
            collecting_s = 0.3
            aggregating_s = 0.1
            messages = 10
            traffic_bytes = 100
            clients_dropped = 0
            clients_admitted = 0
            stragglers_cut = 0
            faults_started = 0
            signature = "ab" * 32

        rows = grid_summary_rows([Cell()])
        assert rows[0]["fleet.tier_mix"] == '{"laptop":1.0}'
        assert rows[0]["signature"] == "ab" * 6
        comparison = messaging_vs_analytic_rows([Cell()])
        assert comparison[0]["messaging_ratio"] == 0.5

    def test_write_grid_report_deterministic_bytes(self, tmp_path):
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

        first = write_grid_report([Cell()], str(tmp_path / "a"))
        second = write_grid_report([Cell()], str(tmp_path / "b"))
        for name in first:
            with open(first[name], "rb") as fa, open(second[name], "rb") as fb:
                assert fa.read() == fb.read()


class TestSchemaDoc:
    def test_schema_mentions_every_spec_field(self):
        markdown = schema_markdown()
        for field in ("round_deadline_s", "tier_mix", "wan_scale", "latency_add_s",
                      "initial_clients", "aggregator_fraction"):
            assert f"`{field}`" in markdown

    def test_schema_lists_registries(self):
        markdown = schema_markdown()
        assert "deadline-tier-mix" in markdown
        assert "heavy-churn" in markdown

    def test_committed_doc_is_in_sync(self):
        path = os.path.join(REPO_ROOT, "docs", "scenario-spec.md")
        with open(path, "r", encoding="utf-8") as handle:
            assert handle.read() == schema_markdown(), (
                "docs/scenario-spec.md is stale; regenerate with "
                "PYTHONPATH=src python -m repro scenario schema > docs/scenario-spec.md"
            )


class TestRestartRaceRegression:
    """Tight deadlines used to deadlock the round-restart recovery.

    Two races, both fixed: (1) a survivor's re-sent contribution arriving at
    an aggregator *before* that aggregator processed the restart notice was
    wiped by the restart's buffer clear (fixed by restart epochs); (2) a
    re-send routed at a freshly *promoted* aggregator before its set_role
    landed was dropped by the broker for lack of subscribers (fixed by the
    session-scoped contribution inbox).
    """

    @pytest.mark.parametrize("deadline", [0.04, 0.06, 0.08])
    def test_tight_deadlines_complete_all_rounds(self, deadline):
        spec = _tiny_base(
            name=f"deadline-race-{deadline}",
            fleet=FleetSpec(
                num_clients=6, tier_mix={"laptop": 0.4, "phone": 0.4, "rpi": 0.2}
            ),
            training=TrainingSpec(
                rounds=2,
                local_epochs=1,
                dataset_samples=400,
                client_data_fraction=0.05,
                train_for_real=False,
                round_deadline_s=deadline,
            ),
        )
        result = ScenarioRunner().run(spec)
        assert len(result.rounds) == 2
        # At least one run in this deadline range must actually exercise the
        # cut-off path (0.04 and 0.06 both cut with this fleet/seed).
        if deadline <= 0.06:
            assert result.stragglers_cut >= 1

    def test_rejoining_client_syncs_restart_epoch(self):
        # heavy-churn@7 is the reproducer for the third race: client_005
        # crashes and rejoins having missed restart epochs, and later churn
        # triggers more restarts.  Without the epoch sync piggybacked on
        # cluster_topology/round_advanced broadcasts, the rejoiner's uploads
        # carried a stale epoch, were dropped as pre-restart leftovers, and
        # the final round never completed.
        result = ScenarioRunner().run("heavy-churn", seed=7)
        assert len(result.rounds) == 4
        assert result.clients_admitted >= 1

    def test_tight_deadline_run_is_deterministic(self):
        spec = _tiny_base(
            name="deadline-race-det",
            fleet=FleetSpec(
                num_clients=6, tier_mix={"laptop": 0.4, "phone": 0.4, "rpi": 0.2}
            ),
            training=TrainingSpec(
                rounds=2,
                local_epochs=1,
                dataset_samples=400,
                client_data_fraction=0.05,
                train_for_real=False,
                round_deadline_s=0.06,
            ),
        )
        runner = ScenarioRunner()
        assert runner.run(spec).signature == runner.run(spec).signature
