"""End-to-end tests of the SDFLMQ client choreography over the in-process broker.

These are the highest-value tests in the suite: they run the complete
create-session → cluster → train → upload → hierarchical aggregation → global
store → global update cycle through real MQTT messages and verify both the
protocol behaviour (roles, rounds, completion) and the numerical outcome
(the stored global model equals the flat FedAvg of the clients' uploads).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.aggregation import FedAvg, ModelContribution
from repro.core.client import SDFLMQClient
from repro.core.clustering import ClusteringConfig
from repro.core.coordinator import Coordinator, CoordinatorConfig
from repro.core.errors import RoleError, SDFLMQError
from repro.core.parameter_server import ParameterServer
from repro.core.role_optimizers import RoundRobinPolicy
from repro.core.roles import Role
from repro.core.session import SessionState
from repro.ml.models import ClassifierModel, make_mlp
from repro.ml.state import cast_state_dict, state_dict_nbytes
from repro.mqtt.broker import MQTTBroker
from repro.runtime.pump import MessagePump
from repro.sim.resources import ResourceAccountant

from _support import states_allclose

SESSION = "itest"


def build_stack(broker, num_clients, policy="hierarchical", fraction=0.3, fl_rounds=2,
                role_policy=None, rebalance=True, aggregators_train=True, resources=None):
    pump = MessagePump()
    coordinator = Coordinator(
        broker,
        config=CoordinatorConfig(
            clustering=ClusteringConfig(
                policy=policy, aggregator_fraction=fraction, aggregators_train=aggregators_train
            ),
            rebalance_every_round=rebalance,
        ),
        policy=role_policy,
    )
    server = ParameterServer(broker)
    pump.register(coordinator.mqtt)
    pump.register(server.mqtt)

    clients, models = [], {}
    for index in range(num_clients):
        client_id = f"client_{index:03d}"
        if resources is not None:
            resources.register_device(client_id, 10**7)
        client = SDFLMQClient(client_id, broker=broker, pump=pump.run_until_idle, resources=resources)
        pump.register(client.mqtt)
        clients.append(client)
        models[client_id] = ClassifierModel(make_mlp(12, (6,), 4, seed=42), name="mlp")

    clients[0].create_fl_session(
        session_id=SESSION, fl_rounds=fl_rounds, model_name="mlp",
        session_capacity_min=num_clients, session_capacity_max=num_clients,
    )
    for client in clients[1:]:
        client.join_fl_session(session_id=SESSION, fl_rounds=fl_rounds, model_name="mlp")
    pump.run_until_idle()

    for index, client in enumerate(clients):
        if client.role(SESSION).trains:  # an aggregator-only client holds no model
            client.set_model(SESSION, models[client.client_id], num_samples=10 * (index + 1))
    return pump, coordinator, server, clients, models


def perturb(model: ClassifierModel, offset: float) -> None:
    """Give each client a distinct, deterministic 'local update'."""
    for key, value in model.network.parameters().items():
        value += offset


def run_round(pump, clients, models, offsets):
    uploads = {}
    clients = [client for client in clients if client.role(SESSION).trains]
    for client, offset in zip(clients, offsets):
        perturb(models[client.client_id], offset)
        uploads[client.client_id] = {
            "state": models[client.client_id].state_dict(),
            "weight": float(client.models.record(SESSION).num_samples),
        }
        client.send_local(SESSION)
    pump.run_until_idle()
    for client in clients:
        client.wait_global_update(SESSION)
    return uploads


class TestSingleRoundCorrectness:
    @pytest.mark.parametrize("policy,num_clients", [("central", 4), ("hierarchical", 6), ("hierarchical", 9)])
    def test_global_model_equals_flat_fedavg(self, policy, num_clients):
        broker = MQTTBroker("itest-broker")
        pump, coordinator, server, clients, models = build_stack(broker, num_clients, policy=policy)
        uploads = run_round(pump, clients, models, offsets=np.linspace(-0.5, 0.5, num_clients))

        expected = FedAvg().aggregate(
            [
                ModelContribution(state=u["state"], weight=u["weight"], sender_id=cid)
                for cid, u in uploads.items()
            ]
        )
        stored = server.record(SESSION).state
        assert stored is not None
        # float32 wire encoding bounds the achievable precision.
        for key in expected:
            np.testing.assert_allclose(np.asarray(stored[key], dtype=np.float64), expected[key],
                                       rtol=1e-5, atol=1e-5)

    def test_all_clients_receive_identical_global_model(self):
        broker = MQTTBroker("itest-broker")
        pump, _, _, clients, models = build_stack(broker, 5)
        run_round(pump, clients, models, offsets=np.linspace(0, 1, 5))
        reference = models[clients[0].client_id].state_dict()
        for client in clients[1:]:
            assert states_allclose(models[client.client_id].state_dict(), reference)

    def test_weighting_by_num_samples(self):
        broker = MQTTBroker("itest-broker")
        pump, _, server, clients, models = build_stack(broker, 3, policy="central")
        # client_002 has 3x the samples of client_000; its update dominates.
        uploads = run_round(pump, clients, models, offsets=[0.0, 0.0, 1.0])
        stored = server.record(SESSION).state
        expected = FedAvg().aggregate(
            [ModelContribution(u["state"], weight=u["weight"]) for u in uploads.values()]
        )
        for key in expected:
            np.testing.assert_allclose(np.asarray(stored[key], dtype=np.float64), expected[key],
                                       rtol=1e-5, atol=1e-5)


class RecordingFedAvg(FedAvg):
    """FedAvg that logs, per aggregation, its inputs as ``(sender, nbytes)``."""

    def __init__(self, log, owner):
        self.log, self.owner = log, owner

    def aggregate(self, contributions, dtype=np.float64):
        self.log[self.owner] = [(c.sender_id, c.nbytes) for c in contributions]
        return super().aggregate(contributions, dtype)


def record_aggregations(clients):
    log = {}
    for client in clients:
        client._aggregators[SESSION] = RecordingFedAvg(log, client.client_id)
    return log


class TestWireDtype:
    """Aggregates leave an aggregator in the dtype the uploads arrived in."""

    def test_three_tier_global_is_the_float32_of_the_float64_reduction(self, broker):
        pump, coordinator, server, clients, models = build_stack(broker, 10, fraction=0.5)
        topology = coordinator.session(SESSION).topology
        assert topology.num_levels == 3
        log = record_aggregations(clients)
        uploads = run_round(pump, clients, models, offsets=np.linspace(0.1, 1.0, 10))
        wire = {
            cid: ModelContribution(cast_state_dict(u["state"], "float32"), u["weight"], cid)
            for cid, u in uploads.items()
        }

        def relayed(cid):
            """What ``cid`` sends up: float32 of the float64 mean of what it took in."""
            if cid not in log:
                return wire[cid]
            inputs = [wire[s] if s == cid else relayed(s) for s, _nbytes in log[cid]]
            state = cast_state_dict(FedAvg().aggregate(inputs), "float32")
            return ModelContribution(state, sum(c.weight for c in inputs), cid)

        stored = server.record(SESSION).state
        tiered = relayed(topology.root_id).state
        flat = FedAvg().aggregate(list(wire.values()))
        assert sorted(log) == topology.aggregator_ids
        for key, value in stored.items():
            assert value.dtype == np.float32
            np.testing.assert_array_equal(value, tiered[key])
            np.testing.assert_allclose(value, flat[key], rtol=1e-6)

    def test_relayed_aggregate_is_charged_like_one_upload(self, broker):
        resources = ResourceAccountant()
        pump, coordinator, _, clients, models = build_stack(
            broker, 10, fraction=0.5, resources=resources
        )
        log = record_aggregations(clients)
        uploads = run_round(pump, clients, models, offsets=np.zeros(10))
        upload_nbytes = state_dict_nbytes(cast_state_dict(uploads["client_000"]["state"], "float32"))
        topology = coordinator.session(SESSION).topology
        assert any(topology.node(child).role.aggregates for child in topology.node(topology.root_id).children)
        for aggregator, inputs in log.items():
            assert {nbytes for _sender, nbytes in inputs} == {upload_nbytes}
            # Peers are charged while buffered, the aggregator's own update is not.
            assert resources.high_water(aggregator) == upload_nbytes * topology.node(aggregator).fan_in
        assert all(resources.in_use(client.client_id) == 0 for client in clients)

    def test_aggregator_without_a_model_relays_float32(self, broker):
        pump, coordinator, server, clients, models = build_stack(
            broker, 5, fraction=0.4, aggregators_train=False
        )
        topology = coordinator.session(SESSION).topology
        relays = [c for c in clients if c.role(SESSION) is Role.AGGREGATOR]
        assert len(relays) == 2 and not any(c.models.has_model(SESSION) for c in relays)
        log = record_aggregations(clients)
        uploads = run_round(pump, clients, models, offsets=np.linspace(0.1, 0.3, 3))
        upload_nbytes = state_dict_nbytes(cast_state_dict(uploads["client_002"]["state"], "float32"))
        # The root took in exactly one frame: the inner relay's partial aggregate.
        assert log[topology.root_id] == [(topology.node(topology.root_id).children[0], upload_nbytes)]
        assert all(value.dtype == np.float32 for value in server.record(SESSION).state.values())

    def test_float64_contributions_still_aggregate_to_float64(self):
        states = [{"w": np.full(3, value)} for value in (1.0, 2.0)]
        result = FedAvg().aggregate([ModelContribution(state) for state in states])
        assert result["w"].dtype == np.float64


class TestMultiRoundProtocol:
    def test_round_counter_advances_and_session_completes(self):
        broker = MQTTBroker("itest-broker")
        pump, coordinator, server, clients, models = build_stack(broker, 5, fl_rounds=3)
        for round_index in range(3):
            run_round(pump, clients, models, offsets=np.full(5, 0.1))
            for client in clients:
                client.report_stats(SESSION)
            pump.run_until_idle()
        session = coordinator.session(SESSION)
        assert session.state is SessionState.COMPLETED
        assert session.completed_rounds == 3
        assert server.record(SESSION).version == 3
        assert all(client.participation(SESSION).rounds.completed for client in clients)

    def test_client_round_view_follows_coordinator(self):
        broker = MQTTBroker("itest-broker")
        pump, coordinator, _, clients, models = build_stack(broker, 4, fl_rounds=3)
        assert all(client.participation(SESSION).current_round == 0 for client in clients)
        run_round(pump, clients, models, offsets=np.zeros(4))
        for client in clients:
            client.report_stats(SESSION)
        pump.run_until_idle()
        assert coordinator.session(SESSION).round_index == 1
        assert all(client.participation(SESSION).current_round == 1 for client in clients)

    def test_round_robin_rearrangement_changes_aggregators(self):
        broker = MQTTBroker("itest-broker")
        pump, coordinator, _, clients, models = build_stack(
            broker, 6, fl_rounds=3, role_policy=RoundRobinPolicy()
        )
        first_aggregators = set(coordinator.session(SESSION).topology.aggregator_ids)
        run_round(pump, clients, models, offsets=np.zeros(6))
        for client in clients:
            client.report_stats(SESSION)
        pump.run_until_idle()
        second_aggregators = set(coordinator.session(SESSION).topology.aggregator_ids)
        assert first_aggregators != second_aggregators
        # Only clients whose assignment changed were re-contacted.
        assert coordinator.role_messages_sent > 6  # initial arrangement + some updates
        # Aggregation still works after the role hand-over.
        run_round(pump, clients, models, offsets=np.full(6, 0.2))
        assert all(client.participation(SESSION).current_round >= 1 for client in clients)

    def test_static_rearrangement_contacts_nobody(self):
        broker = MQTTBroker("itest-broker")
        pump, coordinator, _, clients, models = build_stack(broker, 5, fl_rounds=2, rebalance=True)
        initial_messages = coordinator.role_messages_sent
        run_round(pump, clients, models, offsets=np.zeros(5))
        for client in clients:
            client.report_stats(SESSION)
        pump.run_until_idle()
        # Static policy keeps the same topology → zero set_role messages at the boundary.
        assert coordinator.role_messages_sent == initial_messages
        assert coordinator.rebalances == 1


class TestClientErrorHandling:
    def test_send_local_without_role_raises(self, broker):
        client = SDFLMQClient("loner", broker=broker)
        client._ensure_participation("ghost", "mlp", 1, "fedavg")
        client.set_model("ghost", ClassifierModel(make_mlp(4, (3,), 2, seed=0)))
        with pytest.raises(RoleError):
            client.send_local("ghost")

    def test_send_local_without_model_raises(self, broker):
        pump, _, _, clients, _ = build_stack(broker, 3)
        bare = clients[0]
        bare._ensure_participation("no-model", "mlp", 1, "fedavg")
        with pytest.raises(KeyError):
            bare.send_local("no-model")

    def test_wait_global_update_times_out_when_stalled(self, broker):
        pump, _, _, clients, models = build_stack(broker, 3)
        # Only one of three clients uploads: aggregation cannot complete.
        clients[0].send_local(SESSION)
        pump.run_until_idle()
        with pytest.raises(SDFLMQError):
            clients[0].wait_global_update(SESSION, max_pumps=5)

    def test_unknown_session_access_raises(self, broker):
        client = SDFLMQClient("x", broker=broker)
        with pytest.raises(SDFLMQError):
            client.participation("never-joined")

    def test_receive_model_in_trainer_role_buffers(self, broker):
        # A contribution can land before the receiving client has processed
        # its promotion (mid-round re-plan): it must be buffered, not lost —
        # _reconcile_pending aggregates or forwards it once the role arrives.
        pump, coordinator, _, clients, models = build_stack(broker, 5)
        trainer = next(c for c in clients if c.role(SESSION) is Role.TRAINER)
        trainer._handle_receive_model(
            SESSION, {"state": {"w": np.zeros(2)}, "weight": 1.0, "sender": "peer"}
        )
        participation = trainer.participation(SESSION)
        assert [c.sender_id for c in participation.buffer.pending] == ["peer"]


class TestResourceAccounting:
    def test_aggregator_memory_charged_and_released(self, broker):
        from repro.sim.resources import ResourceAccountant

        resources = ResourceAccountant()
        pump = MessagePump()
        coordinator = Coordinator(
            broker,
            config=CoordinatorConfig(clustering=ClusteringConfig(policy="central")),
        )
        server = ParameterServer(broker)
        pump.register(coordinator.mqtt)
        pump.register(server.mqtt)
        clients = []
        for index in range(3):
            client_id = f"client_{index:03d}"
            resources.register_device(client_id, 10**7)
            client = SDFLMQClient(client_id, broker=broker, pump=pump.run_until_idle, resources=resources)
            pump.register(client.mqtt)
            clients.append(client)
            client_model = ClassifierModel(make_mlp(10, (4,), 3, seed=1))
            if index == 0:
                client.create_fl_session(session_id=SESSION, fl_rounds=1, model_name="m",
                                         session_capacity_min=3, session_capacity_max=3)
            else:
                client.join_fl_session(session_id=SESSION, fl_rounds=1, model_name="m")
            pump.run_until_idle()
            client.set_model(SESSION, client_model, num_samples=5)

        for client in clients:
            client.send_local(SESSION)
        pump.run_until_idle()

        root = coordinator.session(SESSION).topology.root_id
        assert resources.high_water(root) > 0
        assert resources.in_use(root) == 0  # released after aggregation
