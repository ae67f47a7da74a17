"""Tests for the command-line interface and the FedProx proximal option."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.cli import ABLATIONS, build_parser, main
from repro.ml.layers import Linear, Sequential
from repro.ml.losses import MSELoss
from repro.ml.optim import SGD, Adam
from repro.runtime.experiment import ExperimentConfig, FLExperiment


class TestCLIParser:
    def test_all_commands_present(self):
        parser = build_parser()
        for argv in (["fig7"], ["fig8", "--fast"], ["ablation", "topologies"], ["list"],
                     ["run", "--clients", "3"]):
            args = parser.parse_args(argv)
            assert args.command == argv[0]

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

    def test_run_command_small_experiment(self, capsys):
        code = main([
            "run", "--clients", "3", "--rounds", "1", "--epochs", "1",
            "--dataset-samples", "600", "--client-fraction", "0.05",
            "--policy", "central", "--no-train",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "final accuracy" in out
        assert "total delay" in out
        assert "messages routed" in out


class TestFedProx:
    def _rig(self, mu):
        layer = Linear(1, 1, bias=False, rng=np.random.default_rng(0))
        layer.params["weight"][:] = 0.0
        model = Sequential([layer])
        optimizer = SGD(model, lr=0.05, proximal_mu=mu)
        return model, optimizer

    def _train_toward(self, model, optimizer, target_value, steps=200):
        x = np.ones((1, 1))
        target = np.full((1, 1), target_value)
        loss_fn = MSELoss()
        for _ in range(steps):
            optimizer.zero_grad()
            loss_fn.forward(model.forward(x, training=True), target)
            model.backward(loss_fn.backward())
            optimizer.step()
        return float(model.parameters()["0.weight"].ravel()[0])

    def test_proximal_term_pulls_toward_reference(self):
        plain_model, plain_opt = self._rig(mu=0.0)
        prox_model, prox_opt = self._rig(mu=5.0)
        prox_opt.set_proximal_reference({"0.weight": np.zeros((1, 1))})
        plain = self._train_toward(plain_model, plain_opt, target_value=4.0)
        proximal = self._train_toward(prox_model, prox_opt, target_value=4.0)
        # Without the anchor the weight reaches the data optimum (≈4); with a
        # strong proximal pull toward 0 it stops well short of it.
        assert plain == pytest.approx(4.0, abs=0.1)
        assert proximal < plain - 0.5
        assert proximal > 0.0

    def test_no_reference_means_no_pull(self):
        model, optimizer = self._rig(mu=5.0)  # mu set but reference never installed
        result = self._train_toward(model, optimizer, target_value=2.0)
        assert result == pytest.approx(2.0, abs=0.1)

    def test_clear_reference_restores_plain_training(self):
        model, optimizer = self._rig(mu=5.0)
        optimizer.set_proximal_reference({"0.weight": np.zeros((1, 1))})
        optimizer.clear_proximal_reference()
        result = self._train_toward(model, optimizer, target_value=2.0)
        assert result == pytest.approx(2.0, abs=0.1)

    def test_adam_supports_proximal_term(self):
        layer = Linear(1, 1, bias=False, rng=np.random.default_rng(0))
        layer.params["weight"][:] = 0.0
        model = Sequential([layer])
        optimizer = Adam(model, lr=0.05, proximal_mu=10.0)
        optimizer.set_proximal_reference({"0.weight": np.zeros((1, 1))})
        x = np.ones((1, 1))
        loss_fn = MSELoss()
        for _ in range(300):
            optimizer.zero_grad()
            loss_fn.forward(model.forward(x, training=True), np.full((1, 1), 4.0))
            model.backward(loss_fn.backward())
            optimizer.step()
        assert float(model.parameters()["0.weight"].ravel()[0]) < 3.0

    def test_negative_mu_rejected(self):
        model = Sequential([Linear(1, 1)])
        with pytest.raises(ValueError):
            SGD(model, lr=0.1, proximal_mu=-1.0)

    def test_experiment_with_fedprox_runs_and_anchors(self):
        config = ExperimentConfig(
            num_clients=4, fl_rounds=2, local_epochs=2, dataset_samples=1200,
            client_data_fraction=0.04, partition="dirichlet", dirichlet_alpha=0.3,
            proximal_mu=0.1, seed=6,
        )
        experiment = FLExperiment(config)
        result = experiment.run()
        assert len(result.rounds) == 2
        assert 0.0 <= result.final_accuracy <= 1.0
        # The harness installed a proximal anchor on every client optimizer.
        for optimizer in experiment.client_optimizers.values():
            assert optimizer.proximal_mu == pytest.approx(0.1)
            assert optimizer._proximal_reference  # populated before each round
        with pytest.raises(ValueError):
            ExperimentConfig(proximal_mu=-0.5)
