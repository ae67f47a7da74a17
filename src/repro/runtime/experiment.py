"""End-to-end FL experiment orchestration.

:class:`FLExperiment` wires a complete SDFLMQ deployment together — broker,
coordinator, parameter server, N clients with their local datasets and device
profiles — and runs the per-round choreography the paper describes:

1. every client trains locally for ``local_epochs`` epochs,
2. every client sends its model for aggregation (``send_local``),
3. the aggregation cascade runs through the hierarchy to the parameter server,
4. the global update synchronizer pushes the new global model to all clients,
5. clients report readiness + stats, the coordinator advances the round and
   re-runs the load balancer.

Alongside the learning metrics, the harness computes the simulated *total
processing delay* of every round with the critical-path model, which is the
quantity Fig. 8 reports.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.core.client import SDFLMQClient
from repro.core.clustering import ClusteringConfig
from repro.core.coordinator import Coordinator, CoordinatorConfig
from repro.core.parameter_server import ParameterServer
from repro.core.role_optimizers import get_policy
from repro.core.rounds import PhaseTimer, RoundLifecycle, RoundPhase
from repro.core.session import SessionState
from repro.core.topics import SDFLMQ_ROOT
from repro.ml.data import ArrayDataset, DataLoader, train_test_split
from repro.ml.datasets import SyntheticDigitsConfig, synthetic_digits
from repro.ml.models import ClassifierModel, make_paper_mlp
from repro.ml.optim import Adam
from repro.ml.partition import dirichlet_partition, iid_partition, shard_partition
from repro.mqtt.bridge import BrokerBridge
from repro.mqtt.broker import MQTTBroker
from repro.mqtt.network import NetworkModel
from repro.mqttfc.compression import CompressionConfig
from repro.runtime.delay import CriticalPathDelayModel, RoundDelayBreakdown
from repro.runtime.pump import MessagePump
from repro.runtime.scheduler import EventScheduler
from repro.sim.clock import SimulationClock
from repro.sim.costs import CostModel
from repro.sim.device import DeviceFleet
from repro.sim.events import EventLog
from repro.sim.resources import ResourceAccountant
from repro.utils.rng import SeedSequenceFactory
from repro.utils.validation import require_in_range, require_positive

__all__ = ["ExperimentConfig", "RoundResult", "ExperimentResult", "FLExperiment"]

#: Side of the synthetic digit images; the model's input is its square.
INPUT_SIDE = 16
#: Digit classes of the synthetic dataset (the model's output width).
NUM_CLASSES = 10
#: Share of the synthetic dataset held out as the global test split.
TEST_FRACTION = 0.15
#: Model name every client announces when it creates or joins the session.
MODEL_NAME = "mlp"


@dataclass
class ExperimentConfig:
    """Everything needed to reproduce one FL run.

    The defaults correspond to the paper's Fig. 7 setup: 5 clients, 1 % of the
    (synthetic) digit dataset each, a single-hidden-layer MLP, FedAvg, 5 local
    epochs, 10 FL rounds, 2-layer hierarchical clustering with 30 % of clients
    acting as aggregators.
    """

    name: str = "sdflmq"
    # Federation shape
    num_clients: int = 5
    fl_rounds: int = 10
    local_epochs: int = 5
    batch_size: int = 32
    learning_rate: float = 1e-3
    # Dataset
    dataset_samples: int = 6000
    client_data_fraction: float = 0.01
    partition: str = "iid"
    dirichlet_alpha: float = 0.5
    # Topology / coordination
    clustering_policy: str = "hierarchical"
    aggregator_fraction: float = 0.30
    aggregation: str = "fedavg"
    role_policy: str = "static"
    rebalance_every_round: bool = True
    # Devices
    device_tier: str = "laptop"
    tier_mix: Optional[Dict[str, float]] = None
    memory_pressure: float = 0.0
    device_memory_override_bytes: Optional[int] = None
    # Transport
    compression_enabled: bool = True
    num_regions: int = 1
    #: Update-compression codec for contributions on the wire ("none",
    #: "fp16", "int8", "topk[=d]", "delta", or composed e.g. "delta+int8").
    update_codec: str = "none"
    # Behaviour
    train_for_real: bool = True
    seed: int = 42
    session_id: str = "session_01"
    # Scenario hooks.  ``initial_clients`` (default: all) is how many clients
    # connect and join the session during setup; the rest are provisioned
    # (dataset, model, optimizer) but stay offline until a scenario admits
    # them (flash-crowd joins).  ``round_deadline_s`` switches the round drain
    # from run-to-completion to time-driven checkpoints: uploads still in
    # flight at the deadline are cut off and their senders dropped from the
    # round, exactly like a straggler missing a synchronization barrier.
    initial_clients: Optional[int] = None
    round_deadline_s: Optional[float] = None
    record_delivery_trace: bool = False

    def __post_init__(self) -> None:
        require_positive(self.num_clients, "num_clients")
        require_positive(self.fl_rounds, "fl_rounds")
        require_positive(self.local_epochs, "local_epochs")
        require_positive(self.batch_size, "batch_size")
        require_positive(self.learning_rate, "learning_rate")
        require_positive(self.dataset_samples, "dataset_samples")
        require_in_range(self.client_data_fraction, "client_data_fraction", 0.0, 1.0, inclusive=False)
        if self.partition not in ("iid", "dirichlet", "shard"):
            raise ValueError(f"unknown partition scheme {self.partition!r}")
        if self.clustering_policy not in ("hierarchical", "central"):
            raise ValueError(f"unknown clustering policy {self.clustering_policy!r}")
        require_in_range(self.memory_pressure, "memory_pressure", 0.0, 1.0)
        require_positive(self.num_regions, "num_regions")
        from repro.mqttfc.codecs import parse_codec_spec

        parse_codec_spec(self.update_codec)  # raises CodecError on bad specs
        if self.device_memory_override_bytes is not None:
            require_positive(self.device_memory_override_bytes, "device_memory_override_bytes")
        if self.tier_mix is not None:
            from repro.sim.device import DEVICE_TIERS

            unknown = set(self.tier_mix) - set(DEVICE_TIERS)
            if unknown:
                raise ValueError(f"unknown tiers in tier_mix: {sorted(unknown)}")
        if self.initial_clients is not None:
            require_positive(self.initial_clients, "initial_clients")
            if self.initial_clients > self.num_clients:
                raise ValueError(
                    f"initial_clients ({self.initial_clients}) cannot exceed "
                    f"num_clients ({self.num_clients})"
                )
        if self.round_deadline_s is not None:
            require_positive(self.round_deadline_s, "round_deadline_s")


@dataclass
class RoundResult:
    """Metrics for one completed FL round."""

    round_index: int
    test_accuracy: float
    test_loss: float
    mean_train_loss: float
    delay: RoundDelayBreakdown
    traffic_bytes: int
    messages_routed: int
    roles_changed: int
    overflow_events: int
    aggregator_ids: List[str] = field(default_factory=list)
    participants: int = 0
    stragglers_cut: int = 0
    #: Per-phase breakdown of the observed simulated time (derived from the
    #: round lifecycle's event timestamps): how long the round spent with
    #: roles being (re)arranged, contributions in flight, and the stored
    #: global settling.  The analytic critical-path advance is excluded, so
    #: these sit on the same footing as ``messaging_s``.
    planning_s: float = 0.0
    collecting_s: float = 0.0
    aggregating_s: float = 0.0


@dataclass
class ExperimentResult:
    """Aggregate outcome of one FL experiment."""

    config: ExperimentConfig
    rounds: List[RoundResult]
    final_accuracy: float
    total_delay_s: float
    total_traffic_bytes: int
    total_messages: int
    peak_aggregator_memory_bytes: int
    role_changes_total: int

    @property
    def accuracies(self) -> List[float]:
        """Per-round test accuracies in order."""
        return [r.test_accuracy for r in self.rounds]


class FLExperiment:
    """Builds and runs one complete SDFLMQ federated-learning experiment."""

    def __init__(
        self,
        config: Optional[ExperimentConfig] = None,
        cost_model: Optional[CostModel] = None,
    ) -> None:
        self.config = config or ExperimentConfig()
        self.seeds = SeedSequenceFactory(self.config.seed)
        self._built = False

        # Populated by setup()
        self.clock: SimulationClock
        self.broker: MQTTBroker
        self.fleet: DeviceFleet
        self.network: NetworkModel
        self.resources: ResourceAccountant
        self.event_log: EventLog
        self.coordinator: Coordinator
        self.parameter_server: ParameterServer
        self.pump: MessagePump
        self.scheduler: EventScheduler
        self.clients: List[SDFLMQClient] = []
        self.client_models: Dict[str, ClassifierModel] = {}
        self.client_datasets: Dict[str, ArrayDataset] = {}
        self.client_optimizers: Dict[str, Adam] = {}
        #: Per client, its loader and the sample order of each local epoch
        #: (index arrays only; see :meth:`_train_client`).
        self._client_epochs: Dict[str, tuple[DataLoader, List[np.ndarray]]] = {}
        self.test_set: ArrayDataset
        self.delay_model: CriticalPathDelayModel
        self.cost_model: CostModel = cost_model or CostModel()
        #: The coordinator's round-lifecycle state machine for the session —
        #: the single home of phase, restart epoch, roster and deadline state.
        #: Populated by setup(); scenario fault plans subscribe to it for
        #: round-anchored windows.
        self.lifecycle: RoundLifecycle
        self._client_brokers: Dict[str, MQTTBroker] = {}
        self._pending_midround_uploads: set = set()
        self.stragglers_cut_total = 0
        self.clients_admitted = 0
        self.midround_admissions = 0

    # -------------------------------------------------------------- datasets

    def _build_datasets(self) -> None:
        config = self.config
        dataset = synthetic_digits(
            SyntheticDigitsConfig(
                num_samples=config.dataset_samples,
                num_classes=NUM_CLASSES,
                side=INPUT_SIDE,
                seed=self.seeds.seed("dataset"),
            )
        )
        train_set, test_set = train_test_split(
            dataset, test_fraction=TEST_FRACTION, rng=self.seeds.generator("split")
        )
        self.test_set = test_set

        per_client = max(1, int(round(len(train_set) * config.client_data_fraction)))
        needed = min(len(train_set), per_client * config.num_clients)
        selection = self.seeds.generator("selection").choice(len(train_set), size=needed, replace=False)
        pool = train_set.subset(selection)

        rng = self.seeds.generator("partition")
        if config.partition == "iid":
            parts = iid_partition(pool, config.num_clients, rng=rng)
        elif config.partition == "dirichlet":
            parts = dirichlet_partition(pool, config.num_clients, alpha=config.dirichlet_alpha, rng=rng)
        else:
            parts = shard_partition(pool, config.num_clients, rng=rng)

        for index, part in enumerate(parts):
            client_id = self._client_id(index)
            self.client_datasets[client_id] = pool.subset(part)

    def _client_id(self, index: int) -> str:
        return f"client_{index:03d}"

    # ----------------------------------------------------------------- setup

    def setup(self) -> "FLExperiment":
        """Construct the full deployment and establish the FL session."""
        if self._built:
            return self
        config = self.config
        self._build_datasets()

        self.clock = SimulationClock()
        self.event_log = EventLog()
        self.resources = ResourceAccountant()

        if config.tier_mix is not None:
            self.fleet = DeviceFleet.heterogeneous(
                config.num_clients,
                tier_mix=dict(config.tier_mix),
                prefix="client",
                seed=self.seeds.seed("fleet"),
            )
        else:
            self.fleet = DeviceFleet.homogeneous(
                config.num_clients, tier=config.device_tier, prefix="client", seed=self.seeds.seed("fleet")
            )

        if config.device_memory_override_bytes is not None:
            for client_id in self.fleet.device_ids:
                profile = self.fleet.profile(client_id)
                self.fleet.scale_memory(
                    client_id, config.device_memory_override_bytes / profile.memory_bytes
                )

        self.network = NetworkModel(seed=self.seeds.seed("network"))
        for client_id in self.fleet.device_ids:
            profile = self.fleet.profile(client_id)
            self.network.set_link(client_id, profile.link_profile())
            self.resources.register_device(client_id, profile.memory_bytes)

        # One broker per region, bridged in a chain (paper §III.F).  The
        # coordinator and parameter server live on region 0's broker; clients
        # are spread round-robin across the regional brokers.
        self.brokers = [
            MQTTBroker(f"edge-broker-{region}", network=self.network, clock=self.clock)
            for region in range(config.num_regions)
        ]
        self.bridges = [
            BrokerBridge(self.brokers[i], self.brokers[i + 1])
            for i in range(len(self.brokers) - 1)
        ]
        self.broker = self.brokers[0]
        # Event-driven runtime: every broker hands its deliveries to a shared
        # time-ordered scheduler, which advances the simulation clock to each
        # record's ``deliver_at`` as the choreography drains.
        self.scheduler = EventScheduler(
            clock=self.clock, record_trace=config.record_delivery_trace
        )
        self.pump = MessagePump(scheduler=self.scheduler)
        for broker in self.brokers:
            self.scheduler.attach_broker(broker)

        coordinator_config = CoordinatorConfig(
            clustering=ClusteringConfig(
                policy=config.clustering_policy,
                aggregator_fraction=config.aggregator_fraction,
            ),
            auto_start_when_full=True,
            rebalance_every_round=config.rebalance_every_round,
        )
        # One switch for every endpoint: coordinator, parameter server, clients.
        compression = CompressionConfig(enabled=config.compression_enabled)
        self.coordinator = Coordinator(
            self.broker,
            config=coordinator_config,
            policy=get_policy(config.role_policy),
            event_log=self.event_log,
            compression=compression,
        )
        self.parameter_server = ParameterServer(
            self.broker, event_log=self.event_log, compression=compression
        )
        self.pump.register(self.coordinator.mqtt)
        self.pump.register(self.parameter_server.mqtt)

        initial = config.initial_clients or config.num_clients
        for index in range(config.num_clients):
            client_id = self._client_id(index)
            broker = self.brokers[index % len(self.brokers)]
            self._client_brokers[client_id] = broker
            client = SDFLMQClient(
                client_id,
                # Latent clients (index >= initial) are provisioned but stay
                # offline until a scenario admits them via admit_client().
                broker=broker if index < initial else None,
                preferred_role="trainer_aggregator",
                aggregation=config.aggregation,
                compression=compression,
                stats_provider=(lambda cid=client_id: self.fleet.stats(cid)),
                resources=self.resources,
                pump=self.pump.run_until_idle,
                update_codec=config.update_codec,
            )
            client.on_role_assigned = self._client_role_assigned
            self.clients.append(client)
            self.pump.register(client.mqtt)

            network = make_paper_mlp(
                input_dim=INPUT_SIDE * INPUT_SIDE,
                num_classes=NUM_CLASSES,
                seed=config.seed,
            )
            model = ClassifierModel(network, name=MODEL_NAME)
            self.client_models[client_id] = model
            self.client_optimizers[client_id] = Adam(network, lr=config.learning_rate)

        # Establish the session: the first client creates it, the rest of the
        # initial cohort join.  The capacity window [initial, num_clients]
        # leaves room for latent clients to flash-crowd in mid-session.
        creator = self.clients[0]
        creator.create_fl_session(
            session_id=config.session_id,
            fl_rounds=config.fl_rounds,
            model_name=MODEL_NAME,
            session_capacity_min=initial,
            session_capacity_max=config.num_clients,
            aggregation=config.aggregation,
        )
        for client in self.clients[1:initial]:
            client.join_fl_session(
                session_id=config.session_id,
                fl_rounds=config.fl_rounds,
                model_name=MODEL_NAME,
                num_samples=len(self.client_datasets[client.client_id]),
            )
        self.pump.run_until_idle()

        session = self.coordinator.session(config.session_id)
        if session.state != SessionState.RUNNING:
            # With latent clients the session has quorum but is not full, so
            # auto-start never fires; start it explicitly.
            if session.state == SessionState.READY:
                self.coordinator.start_session(config.session_id)
                self.pump.run_until_idle()
            if session.state != SessionState.RUNNING:
                raise RuntimeError(
                    f"session failed to start: state={session.state.value!r}, "
                    f"contributors={len(session.contributors)}/{initial}"
                )

        for client in self.clients[:initial]:
            client.set_model(
                config.session_id,
                self.client_models[client.client_id],
                num_samples=len(self.client_datasets[client.client_id]),
            )

        self.lifecycle = session.lifecycle
        #: Per-phase round timing, fed by the lifecycle's timestamped events.
        #: Primed with the current state: the session is already COLLECTING
        #: round 0 by the time setup finishes.
        self.phase_timer = PhaseTimer()
        self.phase_timer.prime(
            self.lifecycle.phase, self.lifecycle.round_index, self.clock.now()
        )
        self.lifecycle.subscribe(self.phase_timer.on_event)
        self.delay_model = CriticalPathDelayModel(self.fleet, self.cost_model, self.network)
        self._built = True
        return self

    # ------------------------------------------------------------------- run

    def _train_client(self, client_id: str) -> float:
        """Run the local training phase for one client; returns the mean loss.

        The shuffle generator is a function of ``(seed, "loader", client)``
        alone, so a client visits its samples in the same per-epoch orders
        every round — the pinned behaviour every golden signature holds.  The
        orders are therefore drawn once per client and kept as index arrays;
        the batches themselves are gathered afresh each epoch.
        """
        config = self.config
        model = self.client_models[client_id]
        if not config.train_for_real:
            # Delay-focused experiments skip the numerics but keep the exact
            # messaging behaviour; a tiny deterministic perturbation keeps the
            # parameter payloads changing round to round.
            for value in model.network.parameters().values():
                value += 1e-6
            return 0.0
        optimizer = self.client_optimizers[client_id]
        epochs = self._client_epochs.get(client_id)
        if epochs is None:
            loader = DataLoader(
                self.client_datasets[client_id],
                batch_size=config.batch_size,
                shuffle=True,
                rng=self.seeds.generator("loader", client_id),
            )
            epochs = loader, [loader.draw_order() for _ in range(config.local_epochs)]
            self._client_epochs[client_id] = epochs
        loader, orders = epochs
        losses = [model.train_epoch(loader.batches(order), optimizer) for order in orders]
        return float(np.mean(losses))

    def run_round(self, round_index: int) -> RoundResult:
        """Execute one complete FL round and return its metrics.

        Clients that are disconnected (crashed by a fault plan, cut off at a
        previous deadline, or still latent) simply sit the round out; the
        round runs over the currently connected session participants.
        """
        config = self.config
        session_id = config.session_id
        session = self.coordinator.session(session_id)
        topology = session.topology
        if topology is None:
            raise RuntimeError("session has no topology; was setup() called?")

        if config.memory_pressure > 0:
            self.fleet.drift(round_index, memory_pressure=config.memory_pressure)

        clock_before = self.clock.now()
        traffic_before = self._total_traffic_bytes()
        messages_before = self._total_messages_published()
        overflow_before = self.resources.overflow_count()
        roles_before = self.coordinator.role_messages_sent
        cut_before = self.stragglers_cut_total

        # Fire timed actions the analytic clock advance jumped over (a fault
        # window opening between rounds must degrade *this* round's uploads).
        self.scheduler.run_until_time(self.clock.now())

        participants = self.participants()
        if not participants:
            raise RuntimeError(f"round {round_index}: no connected session participants")
        train_losses: Dict[str, float] = {}
        for client in participants:
            train_losses[client.client_id] = self._train_client(client.client_id)
            client.send_local(session_id)
        if config.round_deadline_s is not None:
            self._drain_round_deadline(session_id)
        else:
            self.pump.run_until_idle()

        # Re-filter: a participant may have crashed or been cut off while the
        # round's messages drained.
        for client in self.participants():
            client.wait_global_update(session_id)

        # Evaluate the freshly synchronized global model on the held-out set.
        survivors = self.participants()
        if not survivors:
            raise RuntimeError(f"round {round_index}: every participant dropped mid-round")
        reference_client = survivors[0]
        reference = self.client_models[reference_client.client_id]
        evaluation = reference.evaluate(self.test_set)

        payload_bytes = reference_client.models.record(session_id).payload_nbytes
        num_parameters = reference.num_parameters
        available_memory = {
            cid: self.fleet.stats(cid).available_memory_bytes for cid in self.fleet.device_ids
        }
        num_samples = {cid: len(ds) for cid, ds in self.client_datasets.items()}
        clients_informed = (
            len(topology.client_ids) if round_index == 0 else self._last_roles_changed
        )
        delay = self.delay_model.round_delay(
            topology=topology,
            round_index=round_index,
            num_samples=num_samples,
            payload_bytes=payload_bytes,
            num_parameters=num_parameters,
            epochs=config.local_epochs,
            available_memory=available_memory,
            clients_informed=clients_informed,
        )
        self.clock.advance(delay.total_s)
        # The analytic advance above is already reported as round_delay_s;
        # discount it from the open lifecycle phase so the per-phase columns
        # stay pure observed messaging/settling time.
        self.phase_timer.exclude(delay.total_s)

        mean_loss = float(np.mean(list(train_losses.values()))) if train_losses else 0.0
        for client in survivors:
            client.report_stats(session_id, train_loss=train_losses.get(client.client_id, 0.0))
        if config.round_deadline_s is not None:
            self._drain_round_boundary(session_id, round_index)
        else:
            self.pump.run_until_idle()
        self._last_roles_changed = self.coordinator.role_messages_sent - roles_before

        # The scheduler advanced the clock to every delivery's ``deliver_at``
        # while the round's messages drained; everything beyond the analytic
        # advance above is the observed messaging makespan.
        delay.messaging_s = max(0.0, self.clock.now() - clock_before - delay.total_s)

        phase_times = self.phase_timer.round_times(round_index)

        return RoundResult(
            round_index=round_index,
            test_accuracy=float(evaluation["accuracy"]),
            test_loss=float(evaluation["loss"]),
            mean_train_loss=mean_loss,
            delay=delay,
            traffic_bytes=self._total_traffic_bytes() - traffic_before,
            messages_routed=self._total_messages_published() - messages_before,
            roles_changed=self._last_roles_changed,
            overflow_events=self.resources.overflow_count() - overflow_before,
            aggregator_ids=list(topology.aggregator_ids),
            participants=len(participants),
            stragglers_cut=self.stragglers_cut_total - cut_before,
            planning_s=phase_times["planning_s"],
            collecting_s=phase_times["collecting_s"],
            aggregating_s=phase_times["aggregating_s"],
        )

    _last_roles_changed: int = 0

    # -------------------------------------------------- scenario churn hooks

    def client_by_id(self, client_id: str) -> SDFLMQClient:
        """Look up one of the experiment's clients by id."""
        for client in self.clients:
            if client.client_id == client_id:
                return client
        raise KeyError(f"unknown client id {client_id!r}")

    def participants(self) -> List[SDFLMQClient]:
        """Connected clients that are currently in the session."""
        session_id = self.config.session_id
        return [
            c for c in self.clients
            if c.mqtt.connected and session_id in c.sessions()
        ]

    def crash_client(self, client_id: str) -> None:
        """Ungracefully disconnect a client (its last-will fires).

        The coordinator notices through the broker, removes the client from
        the session, re-plans the topology and — mid-round — restarts the
        round for the survivors, exactly as in the churn examples.
        """
        self.client_by_id(client_id).disconnect(unexpected=True)

    def admit_client(self, client_id: str) -> None:
        """Connect a latent or previously crashed client and (re)join the session.

        Must be called at a round boundary (between :meth:`run_round` calls):
        the coordinator folds the newcomer into the topology immediately, so
        admitting mid-round would leave an aggregator waiting for an upload
        that never comes.
        """
        config = self.config
        client = self.client_by_id(client_id)
        if client.mqtt.connected:
            return
        client.connect(self._client_brokers[client_id])
        # Suppress the client's auto-pump during the join handshake: a full
        # run_until_idle would fast-forward through fault/churn actions
        # scheduled later on the timeline.
        pump_fn, client.pump = client.pump, None
        try:
            client.join_fl_session(
                session_id=config.session_id,
                fl_rounds=config.fl_rounds,
                model_name=MODEL_NAME,
                num_samples=len(self.client_datasets[client_id]),
            )
        finally:
            client.pump = pump_fn
        if not client.models.has_model(config.session_id):
            client.set_model(
                config.session_id,
                self.client_models[client_id],
                num_samples=len(self.client_datasets[client_id]),
            )
        self._drain_control(config.session_id)
        self.clients_admitted += 1

    def admit_client_mid_round(self, client_id: str) -> None:
        """Connect and join a latent/crashed client *inside* a running round.

        Unlike :meth:`admit_client` this never drains the scheduler: the join
        handshake's messages flow through the ongoing round's event drain in
        strict time order.  The coordinator folds the newcomer into the
        topology on its ADMIT transition and re-issues the grown aggregators'
        expected-contribution counts; once the newcomer's ``set_role`` lands,
        :meth:`_client_role_assigned` triggers its first training + upload so
        the re-issued counts are actually met.
        """
        config = self.config
        session = self.coordinator.session(config.session_id)
        if not session.is_active:
            return  # the session completed/terminated before the admission fired
        client = self.client_by_id(client_id)
        if client.mqtt.connected:
            return
        client.connect(self._client_brokers[client_id])
        # Tell the coordinator this join is a mid-round arrival (out-of-band,
        # so the join request's wire size — and with it every modelled
        # delivery latency — stays identical to a boundary join's).
        self.coordinator.note_mid_round_join(client_id)
        # Suppress the auto-pump: draining here would fast-forward the very
        # round this admission is supposed to land inside.
        pump_fn, client.pump = client.pump, None
        try:
            client.join_fl_session(
                session_id=config.session_id,
                fl_rounds=config.fl_rounds,
                model_name=MODEL_NAME,
                num_samples=len(self.client_datasets[client_id]),
            )
        finally:
            client.pump = pump_fn
        if not client.models.has_model(config.session_id):
            client.set_model(
                config.session_id,
                self.client_models[client_id],
                num_samples=len(self.client_datasets[client_id]),
            )
        self._pending_midround_uploads.add(client_id)
        self.clients_admitted += 1
        self.midround_admissions += 1

    def _client_role_assigned(self, client_id: str, session_id: str, assignment) -> None:
        """First-upload trigger for mid-round admissions (set_role hook).

        Fires for every applied ``set_role``; only clients flagged by
        :meth:`admit_client_mid_round` react.  The upload is skipped when the
        round has already moved past the point where a new contribution can
        be aggregated — the lifecycle left COLLECTING, the client already
        uploaded this round, or it already holds this round's global model —
        in which case the newcomer simply participates from the next round.
        """
        if session_id != self.config.session_id:
            return
        if client_id not in self._pending_midround_uploads:
            return
        self._pending_midround_uploads.discard(client_id)
        client = self.client_by_id(client_id)
        participation = client.participation(session_id)
        if self.lifecycle.phase is not RoundPhase.COLLECTING:
            return
        record = client.models.record(session_id)
        if record.last_global_round >= participation.current_round:
            return  # already synced for this round: nothing left to contribute
        if participation.rounds.awaiting_global(client.models.global_version(session_id)):
            return  # an upload for this round is already in flight
        # The coordinator restarted the round when it folded this joiner in;
        # the restart notice is still in flight behind the set_role, so sync
        # the epoch from the authoritative lifecycle — an upload stamped with
        # the pre-fold epoch would be discarded as a stale leftover.
        participation.rounds.observe_epoch(self.lifecycle.epoch)
        self._train_client(client_id)
        client.send_local(session_id)

    # ---------------------------------------------------- deadline-driven rounds

    def _round_complete(self, session_id: str) -> bool:
        """Whether every connected participant has this round's global model."""
        waiting = False
        for client in self.participants():
            if not client.models.has_model(session_id):
                continue
            participation = client.participation(session_id)
            if client.models.global_version(session_id) < participation.awaited_global_version:
                return False
            waiting = True
        return waiting

    def _drain_round_deadline(self, session_id: str) -> None:
        """Drive the round with ``run_until_time`` checkpoints.

        The round gets ``round_deadline_s`` of simulated time; uploads still
        in flight at the deadline are cancelled and their senders dropped
        from the session (the straggler cut-off), after which the survivors'
        restarted round drains to completion.  Timed fault/churn actions
        scheduled inside the window fire at their exact simulated times
        instead of being fast-forwarded.
        """
        config = self.config
        done = lambda: self._round_complete(session_id)  # noqa: E731
        deadline = self.lifecycle.arm_deadline(
            self.clock.now(), float(config.round_deadline_s or 0.0)
        )
        self.scheduler.run_until_time(deadline, stop_when=done)
        if done():
            return
        self.lifecycle.deadline_expired()
        self._cutoff_stragglers(session_id)
        self.scheduler.run_until_quiet()
        if not done():
            raise RuntimeError(
                "round did not complete after the deadline straggler cut-off"
            )

    def _cutoff_stragglers(self, session_id: str) -> List[str]:
        """Cut off clients whose uploads are still in flight at the deadline."""
        prefix = f"{SDFLMQ_ROOT}/session/{session_id}/aggregator/"
        in_flight = sorted(
            {
                record.message.sender_id
                for record in self.scheduler.pending_deliveries()
                if record.message.sender_id and record.message.topic.startswith(prefix)
            }
        )
        cut: List[str] = []
        for client_id in in_flight:
            try:
                client = self.client_by_id(client_id)
            except KeyError:
                continue  # an infrastructure sender, not one of ours
            if not client.mqtt.connected:
                continue
            # The late upload vanishes from the network, then the sender is
            # dropped: its last-will triggers the coordinator's re-plan and
            # round restart for the survivors.
            self.scheduler.cancel_deliveries(
                lambda record, cid=client_id: (
                    record.message.sender_id == cid
                    and record.message.topic.startswith(prefix)
                )
            )
            client.disconnect(unexpected=True)
            cut.append(client_id)
        self.stragglers_cut_total += len(cut)
        return cut

    def _drain_round_boundary(self, session_id: str, round_index: int) -> None:
        """Settle the post-round stats/rebalance traffic without fast-forwarding."""
        session = self.coordinator.session(session_id)
        self.scheduler.run_until_quiet()
        if session.round_index <= round_index and session.is_active:
            raise RuntimeError(f"round {round_index} failed to advance after stats reports")

    def _drain_control(self, session_id: str) -> None:
        """Drain control-plane handshakes (join acks, role sets)."""
        if self.config.round_deadline_s is None:
            self.pump.run_until_idle()
        else:
            self.scheduler.run_until_quiet()

    def _total_traffic_bytes(self) -> int:
        """Payload bytes routed across all regional brokers."""
        return int(sum(b.stats.bytes_delivered for b in self.brokers))

    def _total_messages_published(self) -> int:
        """Messages published across all regional brokers (bridged copies included)."""
        return int(sum(b.stats.messages_published for b in self.brokers))

    def run(self) -> ExperimentResult:
        """Run the full experiment (setup + all rounds) and return the results."""
        self.setup()
        rounds: List[RoundResult] = []
        for round_index in range(self.config.fl_rounds):
            rounds.append(self.run_round(round_index))

        final_accuracy = rounds[-1].test_accuracy if rounds else 0.0
        return ExperimentResult(
            config=self.config,
            rounds=rounds,
            final_accuracy=final_accuracy,
            total_delay_s=float(sum(r.delay.total_s for r in rounds)),
            total_traffic_bytes=int(sum(r.traffic_bytes for r in rounds)),
            total_messages=int(sum(r.messages_routed for r in rounds)),
            peak_aggregator_memory_bytes=int(
                max(self.resources.high_water_by_device().values(), default=0)
            ),
            role_changes_total=int(sum(r.roles_changed for r in rounds)),
        )
