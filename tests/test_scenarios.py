"""Tests for the declarative scenario engine.

Covers spec validation (bad tiers, unknown fields/kinds, overlapping fault
windows, churn aimed outside the fleet), dict/JSON round-tripping, the named
registry, fault-injection mechanics, deadline-driven straggler cut-off, and
the determinism contract: the same spec + seed must reproduce the identical
delivery order (trace signature) and final model state.
"""

from __future__ import annotations

import json
import os
import re

import numpy as np
import pytest

from repro.runtime.experiment import ExperimentConfig, FLExperiment
from repro.scenarios import (
    FaultSpec,
    FleetSpec,
    NetworkSpec,
    ScenarioRunner,
    ScenarioSpec,
    ScenarioSpecError,
    SweepSpec,
    TrainingSpec,
    build_experiment_config,
    compile_scenario,
    get_scenario,
    scenario_names,
    scenario_summaries,
)
from repro.sim.events import ChurnEvent

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _tiny_spec(**overrides) -> ScenarioSpec:
    """A fast-to-run spec used across the behavioural tests."""
    base = dict(
        name="tiny",
        seed=11,
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
    base.update(overrides)
    return ScenarioSpec(**base)


class TestSpecValidation:
    def test_unknown_device_tier_rejected(self):
        with pytest.raises(ScenarioSpecError, match="tier"):
            FleetSpec(tier="mainframe")

    def test_unknown_tier_in_mix_rejected(self):
        with pytest.raises(ScenarioSpecError, match="tier_mix"):
            FleetSpec(tier_mix={"laptop": 0.5, "quantum": 0.5})

    def test_initial_clients_out_of_range_rejected(self):
        with pytest.raises(ScenarioSpecError, match="initial_clients"):
            FleetSpec(num_clients=4, initial_clients=9)

    def test_unknown_fault_kind_rejected(self):
        with pytest.raises(ScenarioSpecError, match="fault kind"):
            FaultSpec(kind="meteor_strike", start_s=1.0, duration_s=1.0)

    def test_window_fault_needs_duration(self):
        with pytest.raises(ScenarioSpecError, match="duration"):
            FaultSpec(kind="broker_slowdown", start_s=1.0, duration_s=0.0, factor=2.0)

    def test_overlapping_fault_windows_rejected(self):
        with pytest.raises(ScenarioSpecError, match="overlapping"):
            _tiny_spec(
                faults=(
                    FaultSpec(kind="link_degradation", start_s=1.0, duration_s=2.0,
                              clients=("client_001",), factor=0.5),
                    FaultSpec(kind="link_degradation", start_s=2.0, duration_s=2.0,
                              clients=("client_001", "client_002"), factor=0.5),
                )
            )

    def test_non_overlapping_same_kind_windows_accepted(self):
        spec = _tiny_spec(
            faults=(
                FaultSpec(kind="link_degradation", start_s=1.0, duration_s=1.0,
                          clients=("client_001",), factor=0.5),
                FaultSpec(kind="link_degradation", start_s=2.5, duration_s=1.0,
                          clients=("client_001",), factor=0.5),
            )
        )
        assert len(spec.faults) == 2

    def test_disjoint_targets_may_overlap_in_time(self):
        spec = _tiny_spec(
            faults=(
                FaultSpec(kind="client_slow", start_s=1.0, duration_s=2.0,
                          clients=("client_001",), factor=0.1),
                FaultSpec(kind="client_slow", start_s=1.5, duration_s=2.0,
                          clients=("client_002",), factor=0.1),
            )
        )
        assert len(spec.faults) == 2

    def test_fault_targeting_unknown_client_rejected(self):
        with pytest.raises(ScenarioSpecError, match="unknown client"):
            _tiny_spec(
                faults=(
                    FaultSpec(kind="client_crash", start_s=1.0,
                              clients=("client_077",)),
                )
            )

    def test_churn_targeting_unknown_client_rejected(self):
        with pytest.raises(ScenarioSpecError, match="unknown client"):
            _tiny_spec(churn=(ChurnEvent(time=1.0, action="leave", client_id="ghost"),))

    def test_join_for_initial_cohort_member_rejected(self):
        with pytest.raises(ScenarioSpecError, match="initial cohort"):
            _tiny_spec(
                fleet=FleetSpec(num_clients=5, initial_clients=3),
                churn=(ChurnEvent(time=1.0, action="join", client_id="client_000"),),
            )

    def test_join_for_latent_client_accepted(self):
        spec = _tiny_spec(
            fleet=FleetSpec(num_clients=5, initial_clients=3),
            churn=(ChurnEvent(time=1.0, action="join", client_id="client_004"),),
        )
        assert spec.churn[0].client_id == "client_004"


class TestSpecDictForms:
    def test_round_trip_through_json(self):
        spec = get_scenario("heavy-churn")
        clone = ScenarioSpec.from_dict(json.loads(json.dumps(spec.as_dict())))
        assert clone == spec

    def test_unknown_top_level_field_rejected(self):
        with pytest.raises(ScenarioSpecError, match="unknown scenario field"):
            ScenarioSpec.from_dict({"name": "x", "fleeet": {}})
        # The removed process-sharding section is an unknown field like any other.
        with pytest.raises(ScenarioSpecError, match=r"unknown scenario field.*'sharding'"):
            ScenarioSpec.from_dict({"name": "x", "sharding": {"shards": 2}})

    def test_unknown_nested_field_rejected(self):
        with pytest.raises(ScenarioSpecError, match="unknown fleet field"):
            ScenarioSpec.from_dict({"name": "x", "fleet": {"num_cilents": 3}})

    def test_missing_name_rejected(self):
        with pytest.raises(ScenarioSpecError, match="name"):
            ScenarioSpec.from_dict({"fleet": {"num_clients": 3}})

    def test_bad_churn_entry_rejected(self):
        with pytest.raises(ScenarioSpecError, match="churn"):
            ScenarioSpec.from_dict(
                {"name": "x", "churn": [{"time": 1.0, "action": "leave"}]}
            )

    def test_with_seed_returns_pinned_copy(self):
        spec = _tiny_spec()
        other = spec.with_seed(99)
        assert other.seed == 99 and spec.seed == 11
        assert other.fleet == spec.fleet


def _cookbook_documents() -> dict:
    """The ``cat > NAME.json <<'EOF'`` documents of docs/cookbook.md, by file name."""
    with open(os.path.join(REPO_ROOT, "docs", "cookbook.md"), encoding="utf-8") as handle:
        text = handle.read()
    found = re.findall(r"^cat > (\S+\.json) <<'EOF'\n(.*?)^EOF$", text, re.S | re.M)
    return {name: json.loads(body) for name, body in found}


class TestCookbookDocuments:
    """The cookbook's JSON recipes load, so the documented way to ask for a
    custom run cannot rot."""

    def test_custom_run_spec_compiles_to_its_documented_knobs(self):
        spec = ScenarioSpec.from_dict(_cookbook_documents()["my_run.json"])
        config = build_experiment_config(spec)
        assert (config.num_clients, config.fl_rounds) == (8, 3)
        assert config.clustering_policy == "central"
        assert (config.partition, config.dirichlet_alpha) == ("dirichlet", 0.3)
        assert config.tier_mix == {"laptop": 0.35, "phone": 0.40, "rpi": 0.20, "server": 0.05}
        assert config.round_deadline_s is None

    def test_every_document_loads(self):
        documents = _cookbook_documents()
        assert {"my_run.json", "my_scenario.json", "my_grid.json"} <= set(documents)
        for document in documents.values():
            (SweepSpec if "axes" in document else ScenarioSpec).from_dict(document)


class TestRegistry:
    def test_registry_has_at_least_six_scenarios(self):
        names = scenario_names()
        assert len(names) >= 6
        for expected in ("baseline", "heavy-churn", "straggler-heavy",
                         "degraded-wan", "bridged-multi-region", "flash-crowd"):
            assert expected in names

    def test_unknown_name_raises_with_options(self):
        with pytest.raises(KeyError, match="baseline"):
            get_scenario("no-such-scenario")

    def test_summaries_cover_every_scenario(self):
        rows = scenario_summaries()
        assert [row["name"] for row in rows] == scenario_names()
        assert all(row["clients"] >= 1 and row["rounds"] >= 1 for row in rows)

    def test_a_named_builder_runs_at_get_scenario_not_at_registration(self, monkeypatch):
        from repro.scenarios import register_scenario, registry

        monkeypatch.setattr(registry, "_REGISTRY", dict(registry._REGISTRY))
        calls = []

        def builder():
            calls.append(1)
            return ScenarioSpec(name="deferred", seed=3)

        assert register_scenario(builder, name="deferred") == "deferred"
        assert "deferred" in scenario_names() and not calls
        assert get_scenario("deferred") is not get_scenario("deferred")
        assert len(calls) == 2
        # Without a name the builder must run once, to read it.
        assert register_scenario(builder) == "deferred" and len(calls) == 3

    def test_registry_specs_validate_and_compile_config(self):
        for name in scenario_names():
            assert get_scenario(name).name == name
            config = build_experiment_config(get_scenario(name))
            assert isinstance(config, ExperimentConfig)
            assert config.record_delivery_trace


class TestFaultMechanics:
    def test_broker_slowdown_window_applies_and_restores(self):
        spec = _tiny_spec(
            faults=(
                FaultSpec(kind="broker_slowdown", start_s=0.5, duration_s=1.0,
                          factor=10.0),
            )
        )
        compiled = compile_scenario(spec)
        network = compiled.experiment.network
        base_message = network.broker_processing_s_per_message
        scheduler = compiled.experiment.scheduler

        scheduler.run_until_time(0.6)
        assert network.broker_processing_s_per_message == pytest.approx(10 * base_message)
        scheduler.run_until_time(2.0)
        assert network.broker_processing_s_per_message == pytest.approx(base_message)
        assert compiled.injector.faults_started == 1
        assert compiled.injector.faults_ended == 1

    def test_link_degradation_window_overrides_and_restores(self):
        spec = _tiny_spec(
            faults=(
                FaultSpec(kind="link_degradation", start_s=0.5, duration_s=1.0,
                          clients=("client_001",), factor=0.1, latency_add_s=0.2),
            )
        )
        compiled = compile_scenario(spec)
        network = compiled.experiment.network
        scheduler = compiled.experiment.scheduler
        base = network.link_for("client_001")

        scheduler.run_until_time(0.6)
        degraded = network.link_for("client_001")
        assert degraded.bandwidth_bps == pytest.approx(base.bandwidth_bps * 0.1)
        assert degraded.latency_s == pytest.approx(base.latency_s + 0.2)
        scheduler.run_until_time(2.0)
        assert network.link_for("client_001") == base

    def test_client_crash_fires_and_queues_rejoin(self):
        spec = _tiny_spec(
            faults=(
                FaultSpec(kind="client_crash", start_s=0.5, duration_s=0.3,
                          clients=("client_004",), rejoin=True),
            )
        )
        compiled = compile_scenario(spec)
        experiment = compiled.experiment
        scheduler = experiment.scheduler

        assert experiment.client_by_id("client_004").mqtt.connected
        scheduler.run_until_quiet()  # drain setup traffic
        scheduler.run_until_time(1.0)
        assert not experiment.client_by_id("client_004").mqtt.connected
        assert compiled.injector.crashes_injected == 1
        assert compiled.due_admissions(0.5) == []  # outage not over yet
        assert compiled.due_admissions(1.0) == ["client_004"]
        assert compiled.due_admissions(1.0) == []  # popped exactly once

    def test_fault_transitions_land_in_event_log(self):
        spec = _tiny_spec(
            faults=(
                FaultSpec(kind="broker_slowdown", start_s=0.2, duration_s=0.4,
                          factor=4.0),
            )
        )
        compiled = compile_scenario(spec)
        compiled.experiment.scheduler.run_until_time(1.0)
        kinds = compiled.experiment.event_log.kinds()
        assert kinds.get("fault_start") == 1
        assert kinds.get("fault_end") == 1


class TestScenarioRunner:
    def test_same_spec_and_seed_byte_identical(self):
        spec = _tiny_spec(
            churn=(ChurnEvent(time=0.30, action="leave", client_id="client_004"),),
            faults=(
                FaultSpec(kind="client_crash", start_s=0.45, duration_s=0.2,
                          clients=("client_003",), rejoin=True),
            ),
        )
        runner = ScenarioRunner()
        first = runner.run(spec)
        second = runner.run(spec)

        assert first.signature == second.signature
        assert first.round_rows() == second.round_rows()
        assert first.summary_row() == second.summary_row()
        assert ScenarioRunner.format_rounds(first) == ScenarioRunner.format_rounds(second)

        # The churn actually happened and the run still completed.
        assert first.clients_dropped >= 1
        assert len(first.rounds) == spec.training.rounds

    def test_identical_final_model_state(self):
        spec = _tiny_spec()
        runner = ScenarioRunner()
        first = runner.run(spec)
        second = runner.run(spec)
        state_a = first.experiment.client_models["client_000"].state_dict()
        state_b = second.experiment.client_models["client_000"].state_dict()
        assert set(state_a) == set(state_b)
        for key in state_a:
            assert np.array_equal(state_a[key], state_b[key])

    def test_seed_override_changes_signature(self):
        runner = ScenarioRunner()
        base = runner.run(_tiny_spec())
        other = runner.run(_tiny_spec(), seed=12)
        assert other.seed == 12
        assert base.signature != other.signature

    def test_flash_crowd_admissions_grow_the_round(self):
        spec = _tiny_spec(
            fleet=FleetSpec(num_clients=6, initial_clients=4),
            training=TrainingSpec(
                rounds=3, local_epochs=1, dataset_samples=400,
                client_data_fraction=0.05, train_for_real=False,
                round_deadline_s=5.0,
            ),
            churn=(
                # Due after setup (~0.1 s) but before the round-1 boundary
                # (~0.5 s), so the burst joins between rounds 0 and 1.
                ChurnEvent(time=0.30, action="join", client_id="client_004"),
                ChurnEvent(time=0.30, action="join", client_id="client_005"),
            ),
        )
        result = ScenarioRunner().run(spec)
        assert result.rounds[0].participants == 4
        assert result.rounds[-1].participants == 6
        assert result.clients_admitted == 2

    def test_committed_bridged_multi_region_signature(self):
        path = os.path.join(
            REPO_ROOT, "tests", "data", "bridged-multi-region.signatures.json"
        )
        with open(path, "r", encoding="utf-8") as handle:
            golden = json.load(handle)
        result = ScenarioRunner().run(golden["scenario"])
        assert result.signature == golden["signature"]

    def test_64_client_fleet_runs_every_round_deterministically(self):
        # Past the 58-client size that once crashed the run: every client
        # takes part in every round, and a rerun reproduces the signature.
        spec = _tiny_spec(
            fleet=FleetSpec(num_clients=64),
            training=TrainingSpec(
                rounds=2, local_epochs=1, dataset_samples=800,
                client_data_fraction=0.05, train_for_real=False,
            ),
        )
        runner = ScenarioRunner()
        first = runner.run(spec)
        second = runner.run(spec)
        assert first.rounds_completed == 2
        assert first.rounds[-1].participants == 64
        assert first.signature == second.signature

    def test_run_suite_orders_by_name_then_seed(self):
        runner = ScenarioRunner()
        results = runner.run_suite(["baseline"], seeds=[1, 2])
        assert [r.seed for r in results] == [1, 2]
        assert all(r.spec.name == "baseline" for r in results)
        assert results[0].signature != results[1].signature


class TestDeadlineRounds:
    def test_straggler_cut_off_under_tight_deadline(self):
        config = ExperimentConfig(
            num_clients=6, fl_rounds=2, local_epochs=1, dataset_samples=400,
            client_data_fraction=0.05, train_for_real=False, seed=5,
            round_deadline_s=0.02,
        )
        experiment = FLExperiment(config)
        experiment.setup()
        for client_id in ("client_004", "client_005"):
            experiment.network.push_link_override(
                client_id,
                experiment.network.degraded_profile(client_id, bandwidth_factor=0.01),
            )
        first = experiment.run_round(0)
        assert first.stragglers_cut >= 1
        assert experiment.scheduler.deliveries_cancelled >= 1
        # Survivors carry the session forward (participants counts the round's
        # starters; further cut-offs may shrink the fleet mid-round).
        second = experiment.run_round(1)
        assert second.participants < config.num_clients
        assert len(experiment.participants()) >= 1

    def test_generous_deadline_cuts_nobody(self):
        config = ExperimentConfig(
            num_clients=4, fl_rounds=1, local_epochs=1, dataset_samples=400,
            client_data_fraction=0.05, train_for_real=False, seed=5,
            round_deadline_s=60.0,
        )
        experiment = FLExperiment(config)
        experiment.setup()
        result = experiment.run_round(0)
        assert result.stragglers_cut == 0
        assert result.participants == 4


class TestNetworkSpecApplication:
    def test_link_scaling_applied_to_every_client(self):
        spec = _tiny_spec(
            network=NetworkSpec(latency_scale=10.0, bandwidth_scale=0.5,
                                jitter_s=0.001, loss_rate=0.01),
        )
        compiled = compile_scenario(spec)
        experiment = compiled.experiment
        for client_id in experiment.fleet.device_ids:
            base = experiment.fleet.profile(client_id).link_profile()
            link = experiment.network.link_for(client_id)
            assert link.latency_s == pytest.approx(base.latency_s * 10.0)
            assert link.bandwidth_bps == pytest.approx(base.bandwidth_bps * 0.5)
            assert link.loss_rate == pytest.approx(0.01)

    def test_default_network_spec_leaves_links_alone(self):
        compiled = compile_scenario(_tiny_spec())
        experiment = compiled.experiment
        client_id = experiment.fleet.device_ids[0]
        assert experiment.network.link_for(client_id) == (
            experiment.fleet.profile(client_id).link_profile()
        )


class TestExperimentConfigScenarioFields:
    def test_tier_mix_builds_mixed_fleet(self):
        config = ExperimentConfig(
            num_clients=12, fl_rounds=1, tier_mix={"rpi": 0.5, "server": 0.5}, seed=0
        )
        experiment = FLExperiment(config)
        experiment.setup()
        tiers = {experiment.fleet.profile(cid).tier for cid in experiment.fleet.device_ids}
        assert tiers <= {"rpi", "server"}
        assert len(tiers) == 2

    def test_bad_tier_mix_rejected(self):
        with pytest.raises(ValueError, match="tier_mix"):
            ExperimentConfig(tier_mix={"hal9000": 1.0})

    def test_initial_clients_bounds_checked(self):
        with pytest.raises(ValueError, match="initial_clients"):
            ExperimentConfig(num_clients=3, initial_clients=5)


class TestReviewRegressions:
    """Regressions for the fault/cancel edge cases the code review surfaced."""

    def test_cross_kind_overlapping_windows_restore_correctly(self):
        # link_degradation [0.5, 1.5) and client_slow [1.0, 2.0) on the same
        # client: when the degradation ends mid-slow-window, the slow profile
        # must remain; when the slow window ends, the base link returns.
        spec = _tiny_spec(
            faults=(
                FaultSpec(kind="link_degradation", start_s=0.5, duration_s=1.0,
                          clients=("client_001",), factor=0.5),
                FaultSpec(kind="client_slow", start_s=1.0, duration_s=1.0,
                          clients=("client_001",), factor=0.01),
            )
        )
        compiled = compile_scenario(spec)
        network = compiled.experiment.network
        scheduler = compiled.experiment.scheduler
        base = network.link_for("client_001")

        scheduler.run_until_time(1.7)  # degradation ended, slow window active
        assert network.link_for("client_001").bandwidth_bps == pytest.approx(
            base.bandwidth_bps * 0.01
        )
        scheduler.run_until_time(2.5)  # both windows closed
        assert network.link_for("client_001") == base

    def test_crash_does_not_queue_rejoin_for_already_gone_client(self):
        spec = _tiny_spec(
            churn=(ChurnEvent(time=0.30, action="leave", client_id="client_004"),),
            faults=(
                FaultSpec(kind="client_crash", start_s=0.60, duration_s=0.2,
                          clients=("client_004",), rejoin=True),
            ),
        )
        compiled = compile_scenario(spec)
        scheduler = compiled.experiment.scheduler
        scheduler.run_until_quiet()
        scheduler.run_until_time(1.0)  # churn leave fires, then the crash no-ops
        assert compiled.injector.crashes_injected == 0
        assert compiled.due_admissions(5.0) == []

    def test_cancelled_delivery_does_not_clamp_future_fifo_traffic(self):
        from repro.mqtt.broker import MQTTBroker
        from repro.mqtt.client import MQTTClient
        from repro.mqtt.network import LinkProfile, NetworkModel
        from repro.runtime.scheduler import EventScheduler
        from repro.sim.clock import SimulationClock

        clock = SimulationClock()
        network = NetworkModel(seed=0)
        network.set_link("sub", LinkProfile(latency_s=0.001, bandwidth_bps=1e4))
        broker = MQTTBroker("b", network=network, clock=clock)
        scheduler = EventScheduler(clock=clock)
        scheduler.attach_broker(broker)
        subscriber = MQTTClient("sub")
        subscriber.connect(broker)
        subscriber.subscribe("bus")
        arrivals = []
        subscriber.on_message = lambda _c, m: arrivals.append((bytes(m.payload), clock.now()))
        scheduler.register(subscriber)
        publisher = MQTTClient("pub")
        publisher.connect(broker)

        publisher.publish("bus", b"L" * 5000)  # ~0.5 s in flight
        scheduler.cancel_deliveries(lambda r: r.message.size_bytes > 100)
        network.set_link("sub", LinkProfile(latency_s=0.001, bandwidth_bps=1e9))
        publisher.publish("bus", b"s")
        scheduler.run_until_idle()

        assert [payload for payload, _ in arrivals] == [b"s"]
        # Without the tail rollback this would arrive at ~0.5 s.
        assert arrivals[0][1] < 0.1


class TestRoundAnchoredFaults:
    """The ``{"round": N, "phase": ...}`` window notation."""

    def test_bad_anchor_phase_rejected(self):
        with pytest.raises(ScenarioSpecError, match="phase"):
            FaultSpec(kind="broker_slowdown", round=1, phase="advanced",
                      duration_s=1.0, factor=2.0)

    def test_anchor_round_beyond_budget_rejected(self):
        with pytest.raises(ScenarioSpecError, match="anchored to round"):
            _tiny_spec(
                faults=(
                    FaultSpec(kind="broker_slowdown", round=9, phase="collecting",
                              duration_s=1.0, factor=2.0),
                )
            )

    def test_round_trip_through_json(self):
        spec = _tiny_spec(
            faults=(
                FaultSpec(kind="link_degradation", round=1, phase="collecting",
                          duration_s=0.4, clients=("client_001",), factor=0.1),
            )
        )
        clone = ScenarioSpec.from_dict(json.loads(json.dumps(spec.as_dict())))
        assert clone.faults[0].round == 1
        assert clone.faults[0].phase == "collecting"
        assert clone.faults[0].is_round_anchored

    def test_same_anchor_overlap_rejected_but_different_anchors_allowed(self):
        with pytest.raises(ScenarioSpecError, match="overlapping"):
            _tiny_spec(
                faults=(
                    FaultSpec(kind="link_degradation", round=1, phase="collecting",
                              duration_s=1.0, clients=("client_001",), factor=0.5),
                    FaultSpec(kind="link_degradation", round=1, phase="collecting",
                              start_s=0.5, duration_s=1.0, clients=("client_001",),
                              factor=0.5),
                )
            )
        spec = _tiny_spec(
            faults=(
                FaultSpec(kind="link_degradation", round=0, phase="collecting",
                          duration_s=1.0, clients=("client_001",), factor=0.5),
                FaultSpec(kind="link_degradation", round=1, phase="collecting",
                          duration_s=1.0, clients=("client_001",), factor=0.5),
            )
        )
        assert len(spec.faults) == 2
        # A wall window and a round window can never be compared statically.
        mixed = _tiny_spec(
            faults=(
                FaultSpec(kind="link_degradation", start_s=0.0, duration_s=99.0,
                          clients=("client_001",), factor=0.5),
                FaultSpec(kind="link_degradation", round=1, phase="collecting",
                          duration_s=1.0, clients=("client_001",), factor=0.5),
            )
        )
        assert len(mixed.faults) == 2

    def test_window_opens_when_the_anchored_round_collects(self):
        spec = _tiny_spec(
            faults=(
                FaultSpec(kind="link_degradation", round=1, phase="collecting",
                          duration_s=0.2, clients=("client_001",), factor=0.01),
            )
        )
        compiled = compile_scenario(spec)
        experiment = compiled.experiment
        network = experiment.network
        base = network.link_for("client_001")

        # Round 0 runs entirely outside the window: the link stays pristine.
        assert compiled.injector.anchors_fired == 0
        experiment.run_round(0)
        assert compiled.injector.anchors_fired == 1  # armed at the boundary
        round1_link = network.link_for("client_001")
        # The window opened the moment round 1 entered collecting, inside the
        # boundary drain, and closes 0.2 s later on the scheduler.
        assert compiled.injector.faults_started == 1
        experiment.run_round(1)
        assert compiled.injector.faults_ended == 1
        assert network.link_for("client_001") == base

    def test_round0_anchor_fires_at_bind_time(self):
        spec = _tiny_spec(
            faults=(
                FaultSpec(kind="broker_slowdown", round=0, phase="collecting",
                          duration_s=0.1, factor=5.0),
            )
        )
        compiled = compile_scenario(spec)
        # setup() already drove the lifecycle into round 0's collecting phase,
        # so the anchor must have been compiled immediately.
        assert compiled.injector.anchors_fired == 1

    def test_round2_blackout_scenario_is_deterministic_and_degrades_round2(self):
        runner = ScenarioRunner()
        first = runner.run("round2-blackout")
        second = runner.run("round2-blackout")
        assert first.signature == second.signature
        assert first.faults_started == 2
        messaging = [r.delay.messaging_s for r in first.rounds]
        # The blackout is anchored to round 2: its messaging makespan must
        # stand out from the clean rounds.
        assert messaging[2] > 2 * max(messaging[0], messaging[1], messaging[3])


class TestMidRoundAdmission:
    def test_bad_admission_policy_rejected(self):
        with pytest.raises(ScenarioSpecError, match="admission"):
            FleetSpec(num_clients=4, admission="whenever")

    def test_mid_round_joiners_contribute_to_the_joined_round(self):
        spec = get_scenario("mid-round-flash-crowd")
        compiled = compile_scenario(spec)
        experiment = compiled.experiment
        session_id = experiment.config.session_id
        result = experiment.run_round(0)
        assert result.participants == 5  # the joiners arrived *after* kickoff
        assert experiment.midround_admissions == 5
        # Every joiner uploaded into round 0 and the weighted global reflects
        # all ten contributions (10 clients x their sample counts).
        uploads = {c.client_id: c.participation(session_id).rounds.uploads_sent
                   for c in experiment.clients}
        assert all(count >= 1 for count in uploads.values())
        record = experiment.parameter_server.record(session_id)
        total_samples = sum(
            len(experiment.client_datasets[c.client_id]) for c in experiment.clients
        )
        assert record.total_weight == pytest.approx(total_samples)

    def test_mid_round_flash_crowd_scenario_is_deterministic(self):
        runner = ScenarioRunner()
        first = runner.run("mid-round-flash-crowd")
        second = runner.run("mid-round-flash-crowd")
        assert first.signature == second.signature
        assert first.clients_admitted == 5
        assert [r.participants for r in first.rounds] == [5, 10, 10, 10]

    def test_boundary_policy_still_defers_to_round_boundaries(self):
        spec = get_scenario("flash-crowd")  # admission defaults to round_boundary
        compiled = compile_scenario(spec)
        experiment = compiled.experiment
        experiment.run_round(0)
        assert experiment.midround_admissions == 0
        assert len(compiled.pending_admissions) == 5
