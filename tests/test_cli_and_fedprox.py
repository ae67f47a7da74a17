"""Tests for the command-line interface."""

from __future__ import annotations

import json

import pytest

from repro.cli import ABLATIONS, build_parser, main


class TestCLIParser:
    def test_all_commands_present(self):
        parser = build_parser()
        for argv in (["fig7"], ["fig8", "--fast"], ["ablation", "topologies"], ["list"],
                     ["scenario", "run", "baseline"]):
            args = parser.parse_args(argv)
            assert args.command == argv[0]

    @pytest.mark.parametrize("argv", [["run", "--clients", "3"], ["scenario", "serve"]])
    def test_removed_verbs_are_usage_errors(self, argv, capsys):
        # A custom run is a spec file (``scenario run --spec``); the HTTP
        # surface is gone.
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_missing_command_errors(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_ablation_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["ablation", "does-not-exist"])

    def test_removed_shards_flag_is_a_usage_error(self):
        with pytest.raises(SystemExit) as exit_info:
            main(["scenario", "run", "baseline", "--shards", "2"])
        assert exit_info.value.code == 2

    def test_ablation_registry_matches_module(self):
        assert set(ABLATIONS) == {
            "aggregator-fraction", "payload-compression", "role-rearrangement",
            "broker-bridging", "topologies", "aggregation-strategies",
        }


class TestSpecFileErrors:
    """``--spec FILE`` mistakes are one stderr line and exit 2 on both verbs."""

    @pytest.fixture(params=["run", "grid"])
    def verb(self, request):
        return request.param

    def _fails(self, capsys, argv, expected):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert expected in captured.err and len(captured.err.splitlines()) == 1

    def test_missing_file(self, verb, tmp_path, capsys):
        missing = str(tmp_path / "absent.json")
        self._fails(capsys, ["scenario", verb, "--spec", missing, "--no-store"],
                    f"cannot read spec file {missing}: No such file or directory")

    def test_malformed_json(self, verb, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text('{"name": ')
        self._fails(capsys, ["scenario", verb, "--spec", str(path), "--no-store"],
                    f"{path} is not valid JSON")

    def test_invalid_spec(self, verb, tmp_path, capsys):
        scenario = {"name": "bad", "fleet": {"num_clients": 0}}
        document = scenario if verb == "run" else {
            "name": "bad-grid", "base": scenario, "axes": {"seed": [1]}
        }
        path = tmp_path / "invalid.json"
        path.write_text(json.dumps(document))
        self._fails(capsys, ["scenario", verb, "--spec", str(path), "--no-store"],
                    f"{path} is not a valid spec: num_clients must be >= 1")

    def test_name_and_spec_together(self, verb, tmp_path, capsys):
        name = "baseline" if verb == "run" else "codec-compare"
        self._fails(capsys, ["scenario", verb, name, "--spec", str(tmp_path / "x.json")],
                    "give a registry name or --spec FILE, not both")


class TestCLICommands:
    def test_list_command(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in ABLATIONS:
            assert name in out

    def test_fig7_fast(self, capsys):
        assert main(["fig7", "--fast", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "offline_accuracy_pct" in out
        assert "sdfl_accuracy" in out

    def test_fig8_fast(self, capsys):
        assert main(["fig8", "--fast"]) == 0
        out = capsys.readouterr().out
        assert "hierarchical_total_delay_s" in out
        assert "central_total_delay_s" in out

    def test_ablation_payload_compression(self, capsys):
        assert main(["ablation", "payload-compression"]) == 0
        out = capsys.readouterr().out
        assert "compression_ratio" in out

    def test_custom_run_from_a_spec_file(self, tmp_path, capsys):
        path = tmp_path / "custom.json"
        path.write_text(json.dumps({
            "name": "custom",
            "seed": 5,
            "fleet": {"num_clients": 3},
            "topology": {"clustering": "central"},
            "training": {"rounds": 1, "dataset_samples": 600,
                         "train_for_real": False, "round_deadline_s": None},
        }))
        assert main(["scenario", "run", "--spec", str(path), "--no-store"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("Scenario: custom (seed 5)")
        assert "final_accuracy" in out and "messages" in out
        assert "signature: " in out
