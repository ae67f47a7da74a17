"""Tests for the runtime: message pump, critical-path delay model, FLExperiment."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.clustering import ClusteringConfig, ClusteringEngine
from repro.mqtt.broker import MQTTBroker
from repro.mqtt.client import MQTTClient
from repro.runtime.delay import CriticalPathDelayModel
from repro.runtime.experiment import ExperimentConfig, FLExperiment
from repro.runtime.pump import MessagePump
from repro.sim.costs import CostModel
from repro.sim.device import DeviceFleet


def _connect(broker, client_id):
    client = MQTTClient(client_id)
    client.connect(broker)
    return client


class TestMessagePump:
    def test_sweep_and_counters(self, broker):
        pump = MessagePump()
        a, b = _connect(broker, "a"), _connect(broker, "b")
        pump.register(a)
        pump.register(b)
        pump.register(a)  # idempotent
        b.subscribe("t")
        a.publish("t", b"x")
        assert pump.sweep() == 1
        assert pump.total_messages == 1
        assert pump.total_sweeps == 1

    def test_run_until_idle_follows_chains(self, broker):
        pump = MessagePump()
        a, b, c = (_connect(broker, x) for x in "abc")
        for client in (a, b, c):
            pump.register(client)
        a.subscribe("step1")
        b.subscribe("step2")
        c.subscribe("step3")
        a.on_message = lambda _c, m: a.publish("step2", b"")
        b.on_message = lambda _c, m: b.publish("step3", b"")
        hits = []
        c.on_message = lambda _c, m: hits.append(m.topic)
        a.publish("step1", b"")  # a's own publish is not echoed; use an external sender
        external = _connect(broker, "ext")
        external.publish("step1", b"")
        pump.run_until_idle()
        assert "step3" in hits

    def test_run_until_predicate(self, broker):
        pump = MessagePump()
        a = _connect(broker, "a")
        b = _connect(broker, "b")
        pump.register(a)
        pump.register(b)
        counter = []
        b.on_message = lambda _c, m: counter.append(1)
        b.subscribe("t")
        for _ in range(5):
            a.publish("t", b"x")
        assert pump.run_until(lambda: len(counter) >= 5)
        assert not pump.run_until(lambda: len(counter) >= 99)

    def test_unregister(self, broker):
        pump = MessagePump()
        a = _connect(broker, "a")
        pump.register(a)
        pump.unregister(a)
        assert pump.clients == []

    def test_non_quiescing_loop_detected(self, broker):
        pump = MessagePump(max_sweeps=10)
        a, b = _connect(broker, "a"), _connect(broker, "b")
        pump.register(a)
        pump.register(b)
        a.subscribe("ping")
        b.subscribe("pong")
        a.on_message = lambda _c, m: a.publish("pong", b"")
        b.on_message = lambda _c, m: b.publish("ping", b"")
        external = _connect(broker, "ext")
        external.publish("ping", b"")
        with pytest.raises(RuntimeError, match="did not quiesce"):
            pump.run_until_idle()

    def test_callable_alias(self, broker):
        pump = MessagePump()
        assert pump() == 0


class TestCriticalPathDelayModel:
    def _model(self, num_devices=20, tier="phone"):
        fleet = DeviceFleet.homogeneous(num_devices, tier=tier)
        return fleet, CriticalPathDelayModel(fleet, CostModel())

    def _topology(self, fleet, policy, fraction=0.3):
        engine = ClusteringEngine(ClusteringConfig(policy=policy, aggregator_fraction=fraction))
        return engine.build("s", fleet.device_ids)

    def _delay(self, model, topology, fleet, payload=68_000, samples=100, epochs=1, memory=None, informed=0):
        return model.round_delay(
            topology=topology,
            round_index=0,
            num_samples={cid: samples for cid in fleet.device_ids},
            payload_bytes=payload,
            num_parameters=17_000,
            epochs=epochs,
            available_memory=memory,
            clients_informed=informed,
        )

    def test_breakdown_fields_positive_and_consistent(self):
        fleet, model = self._model(10)
        topology = self._topology(fleet, "hierarchical")
        delay = self._delay(model, topology, fleet)
        assert delay.total_s > 0
        assert delay.training_s > 0
        assert delay.aggregation_s > 0
        assert delay.total_s >= delay.training_s
        assert set(delay.per_client_completion_s) == set(fleet.device_ids)
        assert delay.as_dict()["total_s"] == delay.total_s

    def test_delay_grows_with_client_count(self):
        totals = []
        for n in (5, 10, 20):
            fleet, model = self._model(n)
            topology = self._topology(fleet, "central")
            totals.append(self._delay(model, topology, fleet).total_s)
        assert totals[0] < totals[1] < totals[2]

    def test_delay_grows_with_samples_and_epochs(self):
        fleet, model = self._model(5)
        topology = self._topology(fleet, "central")
        base = self._delay(model, topology, fleet, samples=50, epochs=1).total_s
        more_data = self._delay(model, topology, fleet, samples=500, epochs=1).total_s
        more_epochs = self._delay(model, topology, fleet, samples=50, epochs=5).total_s
        assert more_data > base and more_epochs > base

    def test_delay_grows_with_payload(self):
        fleet, model = self._model(8)
        topology = self._topology(fleet, "central")
        small = self._delay(model, topology, fleet, payload=10_000).total_s
        large = self._delay(model, topology, fleet, payload=10_000_000).total_s
        assert large > small

    def test_central_degrades_faster_than_hierarchical_at_scale(self):
        """The Fig. 8 mechanism: the gap (hierarchical - central) shrinks with N."""
        gaps = []
        for n in (5, 20):
            fleet, model = self._model(n)
            hierarchical = self._delay(model, self._topology(fleet, "hierarchical"), fleet).total_s
            central = self._delay(model, self._topology(fleet, "central"), fleet).total_s
            gaps.append(hierarchical - central)
        assert gaps[1] < gaps[0]

    def test_memory_scarcity_increases_delay(self):
        fleet, model = self._model(15)
        topology = self._topology(fleet, "central")
        plenty = self._delay(model, topology, fleet, memory={cid: 10**9 for cid in fleet.device_ids})
        scarce = self._delay(model, topology, fleet, memory={cid: 100_000 for cid in fleet.device_ids})
        assert scarce.total_s > plenty.total_s

    def test_coordination_term(self):
        fleet, model = self._model(6)
        topology = self._topology(fleet, "hierarchical")
        with_informed = self._delay(model, topology, fleet, informed=6)
        without = self._delay(model, topology, fleet, informed=0)
        assert with_informed.coordination_s > 0
        assert with_informed.total_s > without.total_s

    def test_faster_devices_lower_delay(self):
        slow_fleet, slow_model = self._model(6, tier="rpi")
        fast_fleet, fast_model = self._model(6, tier="server")
        slow = self._delay(slow_model, self._topology(slow_fleet, "central"), slow_fleet).total_s
        fast = self._delay(fast_model, self._topology(fast_fleet, "central"), fast_fleet).total_s
        assert fast < slow

    def test_invalid_inputs_rejected(self):
        fleet, model = self._model(4)
        topology = self._topology(fleet, "central")
        with pytest.raises(ValueError):
            self._delay(model, topology, fleet, payload=0)


class TestFLExperiment:
    @pytest.fixture(scope="class")
    def quick_config(self):
        return ExperimentConfig(
            num_clients=4, fl_rounds=2, local_epochs=1, dataset_samples=600,
            client_data_fraction=0.05, batch_size=16, seed=3,
        )

    def test_full_run_produces_results(self, quick_config):
        result = FLExperiment(quick_config).run()
        assert len(result.rounds) == 2
        assert 0.0 <= result.final_accuracy <= 1.0
        assert result.total_delay_s > 0
        assert result.total_traffic_bytes > 0
        assert result.total_messages > 0
        assert all(r.delay.total_s > 0 for r in result.rounds)
        assert len(result.accuracies) == 2 and len(result.round_delays) == 2
        assert result.as_rows()[0]["round"] == 0

    def test_accuracy_improves_over_rounds(self):
        config = ExperimentConfig(
            num_clients=5, fl_rounds=3, local_epochs=3, dataset_samples=2500,
            client_data_fraction=0.03, seed=11,
        )
        result = FLExperiment(config).run()
        assert result.rounds[-1].test_accuracy > result.rounds[0].test_accuracy

    def test_deterministic_given_seed(self, quick_config):
        a = FLExperiment(quick_config).run()
        b = FLExperiment(quick_config).run()
        assert a.accuracies == b.accuracies
        assert a.round_delays == b.round_delays
        assert a.total_traffic_bytes == b.total_traffic_bytes

    def test_different_seeds_differ(self, quick_config):
        from dataclasses import replace

        a = FLExperiment(quick_config).run()
        b = FLExperiment(replace(quick_config, seed=99)).run()
        assert a.accuracies != b.accuracies

    def test_train_for_real_false_skips_numerics(self, quick_config):
        from dataclasses import replace

        config = replace(quick_config, train_for_real=False)
        result = FLExperiment(config).run()
        assert all(r.mean_train_loss == 0.0 for r in result.rounds)
        assert result.total_messages > 0

    def test_cached_epoch_orders_train_exactly_like_a_loader_rebuilt_every_round(self, quick_config):
        """Per-round-identical shuffles are the pinned behaviour: the generator
        depends on ``(seed, "loader", client)`` only, so keeping its draws
        changes no parameter and no loss."""
        from dataclasses import replace

        from repro.ml.data import DataLoader

        config = replace(quick_config, local_epochs=2)
        cached, rebuilt = FLExperiment(config).setup(), FLExperiment(config).setup()
        client_id = cached.clients[0].client_id
        for _ in range(3):
            loss = cached._train_client(client_id)
            loader = DataLoader(
                rebuilt.client_datasets[client_id], batch_size=config.batch_size, shuffle=True,
                rng=rebuilt.seeds.generator("loader", client_id),
            )
            model, optimizer = rebuilt.client_models[client_id], rebuilt.client_optimizers[client_id]
            assert loss == float(np.mean([model.train_epoch(loader, optimizer) for _ in range(2)]))
            for name, value in cached.client_models[client_id].state_dict().items():
                assert np.array_equal(value, model.state_dict()[name]), name
        _loader, orders = cached._client_epochs[client_id]
        samples = len(cached.client_datasets[client_id])
        assert [order.shape for order in orders] == [(samples,)] * 2  # indices, never batches
        assert all(order.dtype.kind == "i" for order in orders)

    def test_central_policy_has_single_aggregator(self, quick_config):
        from dataclasses import replace

        experiment = FLExperiment(replace(quick_config, clustering_policy="central"))
        result = experiment.run()
        assert all(len(r.aggregator_ids) == 1 for r in result.rounds)

    def test_multi_region_matches_single_region_accuracy(self, quick_config):
        from dataclasses import replace

        single = FLExperiment(replace(quick_config, num_regions=1)).run()
        bridged = FLExperiment(replace(quick_config, num_regions=3)).run()
        assert bridged.final_accuracy == pytest.approx(single.final_accuracy, abs=1e-12)
        assert len(FLExperiment(replace(quick_config, num_regions=3)).setup().brokers) == 3

    def test_dirichlet_partition_runs(self, quick_config):
        from dataclasses import replace

        result = FLExperiment(replace(quick_config, partition="dirichlet", dirichlet_alpha=0.3)).run()
        assert len(result.rounds) == 2

    def test_custom_cost_model_scales_delay(self, quick_config):
        slow = CostModel(train_time_per_sample_s=0.1)
        fast = CostModel(train_time_per_sample_s=1e-4)
        slow_result = FLExperiment(quick_config, cost_model=slow).run()
        fast_result = FLExperiment(quick_config, cost_model=fast).run()
        assert slow_result.total_delay_s > fast_result.total_delay_s

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            ExperimentConfig(num_clients=0)
        with pytest.raises(ValueError):
            ExperimentConfig(partition="by_zodiac_sign")
        with pytest.raises(ValueError):
            ExperimentConfig(clustering_policy="mesh")
        with pytest.raises(ValueError):
            ExperimentConfig(client_data_fraction=0.0)

    def test_setup_idempotent(self, quick_config):
        experiment = FLExperiment(quick_config)
        experiment.setup()
        brokers_before = experiment.brokers
        experiment.setup()
        assert experiment.brokers is brokers_before


class TestPerPhaseRoundTiming:
    """RoundResult carries the lifecycle-derived per-phase breakdown."""

    def test_phase_columns_exported_and_sane(self):
        config = ExperimentConfig(
            num_clients=4, fl_rounds=2, local_epochs=1, dataset_samples=600,
            client_data_fraction=0.05, batch_size=16, seed=3, train_for_real=False,
        )
        result = FLExperiment(config).run()
        for round_result in result.rounds:
            row = round_result.as_dict()
            for key in ("planning_s", "collecting_s", "aggregating_s"):
                assert key in row
                assert row[key] >= 0.0
            # The analytic critical-path advance is excluded, so the phase
            # breakdown stays on the observed-messaging footing.
            observed = row["collecting_s"] + row["aggregating_s"] + row["planning_s"]
            assert observed <= row["messaging_s"] + row["round_delay_s"] + 1e-9
        # Contributions were in flight for a nonzero simulated span.
        assert any(r.collecting_s > 0 for r in result.rounds)
