"""The maintenance verbs of ``python -m repro scenario``, called in-process.

``store ls|show|gc``, ``schema [--check]`` and ``trace`` read what a run
left behind and report on it; these tests pin their output and exit codes
against a small store holding one ``baseline`` run and one recorded grid.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil

import pytest

from repro.cli import main
from repro.scenarios import ResultsStore, ScenarioRunner, get_scenario, spec_hash
from repro.scenarios.schema import schema_markdown

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCHEMA_DOC = os.path.join(REPO_ROOT, "docs", "scenario-spec.md")
GRID_SPEC = os.path.join(REPO_ROOT, "tests", "data", "grid_smoke.json")


@pytest.fixture(scope="module")
def template(tmp_path_factory):
    """A store with the baseline run and a one-cell grid, plus its trace file."""
    root = tmp_path_factory.mktemp("verbs")
    path = str(root / "template")
    with ScenarioRunner(store=path) as runner:
        result = runner.run("baseline", trace_dir=root / "trace")
    key = spec_hash(get_scenario("baseline"))
    ResultsStore(path).record_grid("f" * 64, "one-cell", ["seed"], [
        {"index": 0, "coordinates": {"seed": 42}, "spec_hash": key, "seed": 42,
         "signature": result.signature},
    ])
    return {"path": path, "key": key, "signature": result.signature,
            "trace": str(root / "trace" / "baseline_42.trace.json")}


@pytest.fixture
def store_path(template, tmp_path):
    """A private copy of the template store (``gc`` mutates it)."""
    path = str(tmp_path / "store")
    shutil.copytree(template["path"], path)
    return path


def _run(capsys, argv):
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


class TestStoreVerbs:
    def test_ls_lists_runs_and_grids(self, capsys, store_path, template):
        code, out, _err = _run(capsys, ["scenario", "store", "ls", "--store", store_path])
        assert code == 0
        assert "1 run(s), 1 grid(s)" in out
        assert template["key"][:12] in out and template["signature"][:12] in out
        assert "baseline" in out and "one-cell" in out

    def test_ls_blanks_the_accuracy_of_a_timing_only_run(self, capsys, tmp_path):
        # Both payloads hold a number, as an older revision stored a
        # timing-only run: the untrained model's accuracy.
        trained = get_scenario("baseline")
        timing = dataclasses.replace(
            trained, name="timing-only",
            training=dataclasses.replace(trained.training, train_for_real=False))
        path = str(tmp_path / "store")
        store = ResultsStore(path)
        for spec, accuracy in ((trained, 0.8125), (timing, 0.1)):
            store.put_run(spec_hash(spec), spec.seed, spec, "ab" * 32,
                          {"rounds_completed": 3, "final_accuracy": accuracy})
        code, out, _err = _run(capsys, ["scenario", "store", "ls", "--store", path])
        assert code == 0
        rows = {line.split()[2]: line.split() for line in out.splitlines()
                if line.startswith((spec_hash(trained)[:12], spec_hash(timing)[:12]))}
        assert rows["baseline"][3:5] == ["3", "0.8125"]
        assert rows["timing-only"][3:5] == ["3", "abababababab"]

    def test_ls_filters_runs_by_scenario(self, capsys, store_path):
        code, out, _err = _run(
            capsys, ["scenario", "store", "ls", "--scenario", "heavy-churn", "--store", store_path])
        assert code == 0
        assert "(no stored runs)" in out

    def test_show_run_prints_spec_and_payload(self, capsys, store_path, template):
        code, out, _err = _run(capsys, [
            "scenario", "store", "show", template["key"][:8], "--seed", "42", "--store", store_path])
        assert code == 0
        document = json.loads(out)
        assert document["spec_hash"] == template["key"]
        assert document["signature"] == template["signature"]
        assert document["spec"] == get_scenario("baseline").as_dict()
        assert document["payload"]["rounds_completed"] == 3

    def test_show_grid_by_name(self, capsys, store_path, template):
        code, out, _err = _run(capsys, ["scenario", "store", "show", "one-cell", "--store", store_path])
        assert code == 0
        document = json.loads(out)
        assert document["sweep_hash"] == "f" * 64
        assert document["axes"] == ["seed"]
        assert [cell["spec_hash"] for cell in document["cells"]] == [template["key"]]

    def test_show_unknown_prefix_exits_2(self, capsys, store_path):
        code, out, err = _run(capsys, ["scenario", "store", "show", "nothing", "--store", store_path])
        assert code == 2 and out == ""
        assert "nothing" in err

    def test_show_reaches_no_file_outside_the_store(self, capsys, store_path, tmp_path):
        (tmp_path / "x-1.json").write_text("{}")
        code, out, err = _run(capsys, [
            "scenario", "store", "show", "../../x", "--seed", "1", "--store", store_path])
        assert code == 2 and out == ""
        assert err == "no stored run matches '../../x' with seed 1\n"

    def test_ls_skips_a_bad_file_with_one_stderr_line(self, capsys, store_path, template):
        _code, before, _err = _run(capsys, ["scenario", "store", "ls", "--store", store_path])
        bad = os.path.join(store_path, "runs", "ab" * 32 + "-1.json")
        with open(bad, "w", encoding="utf-8") as handle:
            handle.write('{"spec_hash": "ab')
        code, out, err = _run(capsys, ["scenario", "store", "ls", "--store", store_path])
        assert code == 0 and err.count("\n") == 1 and bad in err
        assert out.splitlines()[1:] == before.splitlines()[1:]
        assert template["key"][:12] in out

    def test_gc_without_a_selector_exits_2(self, capsys, store_path):
        code, _out, err = _run(capsys, ["scenario", "store", "gc", "--store", store_path])
        assert code == 2 and err

    def test_gc_by_scenario_drops_the_run_and_its_grid(self, capsys, store_path):
        code, out, _err = _run(
            capsys, ["scenario", "store", "gc", "--scenario", "baseline", "--store", store_path])
        assert code == 0
        assert out.strip() == "gc: removed 1 run(s), 1 grid(s)"
        _code, out, _err = _run(capsys, ["scenario", "store", "ls", "--store", store_path])
        assert "(no stored runs)" in out and "(no recorded grids)" in out

    def test_gc_of_another_scenario_keeps_everything(self, capsys, store_path):
        code, out, _err = _run(
            capsys, ["scenario", "store", "gc", "--scenario", "heavy-churn", "--store", store_path])
        assert code == 0
        assert out.strip() == "gc: removed 0 run(s), 0 grid(s)"

    def test_gc_all_empties_the_store(self, capsys, store_path):
        code, out, _err = _run(capsys, ["scenario", "store", "gc", "--all", "--store", store_path])
        assert code == 0
        assert out.strip() == "gc: removed 1 run(s), 1 grid(s)"

    @pytest.mark.parametrize("verb", [["ls"], ["show", "x"], ["gc", "--all"]])
    def test_store_verbs_refuse_no_store(self, capsys, verb):
        code, _out, err = _run(capsys, ["scenario", "store", *verb, "--no-store"])
        assert code == 2
        assert "needs the results store" in err

    @pytest.mark.parametrize("argv", [
        ["scenario", "store", "ls"],
        ["scenario", "store", "show", "x"],
        ["scenario", "store", "gc", "--all"],
        ["scenario", "run", "baseline"],
        ["scenario", "grid", "--spec", GRID_SPEC],
        ["scenario", "sweep", "baseline"],
    ])
    def test_a_file_that_is_not_a_store_is_one_line_and_exit_2(self, capsys, tmp_path, argv):
        path = tmp_path / "results.sqlite"
        garbage = b"\0" * 4096
        path.write_bytes(garbage)
        code, out, err = _run(capsys, argv + ["--store", str(path)])
        assert code == 2 and out == ""
        assert err.count("\n") == 1
        assert str(path) in err and "move the file aside" in err
        assert path.read_bytes() == garbage


class TestSchemaVerb:
    def test_prints_the_generated_reference(self, capsys):
        code, out, _err = _run(capsys, ["scenario", "schema"])
        assert code == 0
        assert out == schema_markdown()

    def test_check_accepts_the_committed_doc(self, capsys):
        code, out, _err = _run(capsys, ["scenario", "schema", "--check", SCHEMA_DOC])
        assert code == 0
        assert "is in sync" in out

    def test_check_rejects_a_stale_doc(self, capsys, tmp_path):
        stale = tmp_path / "scenario-spec.md"
        stale.write_text(schema_markdown() + "\nstale line\n", encoding="utf-8")
        code, _out, err = _run(capsys, ["scenario", "schema", "--check", str(stale)])
        assert code == 1
        assert "out of date" in err


class TestTraceVerb:
    def test_summarizes_a_trace_with_its_required_spans(self, capsys, template):
        code, out, _err = _run(capsys, [
            "scenario", "trace", template["trace"],
            "--require-span", "collecting", "--require-span", "aggregating"])
        assert code == 0
        assert out.startswith(f"Trace: {template['trace']} — ")
        assert "collecting" in out

    def test_missing_required_span_exits_1(self, capsys, template):
        code, _out, err = _run(
            capsys, ["scenario", "trace", template["trace"], "--require-span", "no-such-span"])
        assert code == 1
        assert "missing required span(s): no-such-span" in err

    def test_unreadable_trace_exits_2(self, capsys, tmp_path):
        code, _out, err = _run(capsys, ["scenario", "trace", str(tmp_path / "absent.trace.json")])
        assert code == 2
        assert "cannot read trace" in err
