"""The SDFLMQ client — the public API a training pipeline embeds.

This mirrors the paper's ``SDFLMQ_Client`` (Listing 1): a handful of calls —
``create_fl_session`` / ``join_fl_session``, ``set_model``, ``send_local``,
``wait_global_update`` — wrap everything needed to contribute to a
semi-decentralized FL session over MQTT.  Internally the client contains:

* a *role arbiter* tracking which role the coordinator assigned for each
  session and which role topics to (un)subscribe to,
* a *model controller* holding the session-bound models and applying global
  updates,
* an *aggregation pipeline* that buffers peer contributions when the client
  holds an aggregating role, reduces them with the session's aggregation
  strategy, and forwards the result to the parent aggregator or — at the root
  — to the parameter server,
* an MQTTFC endpoint carrying all of the above as topic-bound function calls.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

import numpy as np

from repro.core.aggregation import (
    AggregationStrategy,
    ContributionBuffer,
    ModelContribution,
    get_aggregator,
)
from repro.core.errors import RoleError, SDFLMQError
from repro.core.messages import ClientStatsReport, JoinRequest, RoleAssignment, SessionRequest
from repro.core.model_controller import ModelController
from repro.core.role_arbiter import RoleArbiter, TopicChange
from repro.core.roles import Role
from repro.core.rounds import ClientRoundView
from repro.core.topics import (
    aggregator_params_topic,
    client_call_topic,
    coordinator_call_topic,
    global_store_topic,
    global_update_topic,
    presence_topic,
    session_broadcast_topic,
)
from repro.ml.models import ClassifierModel
from repro.ml.state import StateDict
from repro.mqtt.broker import MQTTBroker
from repro.mqtt.client import MQTTClient
from repro.mqttfc.codecs import CODEC_WIRE_KEY, is_encoded_state
from repro.mqttfc.compression import CompressionConfig
from repro.mqttfc.rfc import FleetControlEndpoint, PendingCall
from repro.sim.device import DeviceStats
from repro.sim.resources import ResourceAccountant
from repro.utils.validation import validate_identifier

__all__ = ["SDFLMQClient", "SessionParticipation"]


class SessionParticipation:
    """Client-side view of one session it contributes to.

    Round state (current round, restart epoch, upload/await bookkeeping)
    lives in :attr:`rounds` — the client's message-derived
    :class:`~repro.core.rounds.ClientRoundView` of the coordinator's round
    lifecycle — and the aggregation inbox lives in :attr:`buffer`
    (:class:`~repro.core.aggregation.ContributionBuffer`).  The flat
    attribute surface (``current_round``, ``restart_epoch``,
    ``pending_contributions``, …) is preserved as delegating properties.
    """

    def __init__(
        self,
        session_id: str,
        model_name: str,
        fl_rounds: int,
        aggregation: str = "fedavg",
        owner_id: str = "?",
        resources: Optional[ResourceAccountant] = None,
    ) -> None:
        self.session_id = session_id
        self.model_name = model_name
        self.fl_rounds = fl_rounds
        self.aggregation = aggregation
        self.rounds = ClientRoundView()
        self.buffer = ContributionBuffer(owner_id, resources=resources)
        self.aggregations_performed = 0

    # Flat legacy surface, delegated to the view / buffer --------------------

    @property
    def current_round(self) -> int:
        """The FL round this client believes the session is in."""
        return self.rounds.current_round

    @property
    def restart_epoch(self) -> int:
        """Highest ``round_restart`` epoch processed (stale contributions are dropped)."""
        return self.rounds.restart_epoch

    @property
    def awaited_global_version(self) -> int:
        """Global model version the client expects after its last upload."""
        return self.rounds.awaited_global_version


class SDFLMQClient:
    """A federated-learning client speaking the SDFLMQ choreography.

    Parameters
    ----------
    client_id:
        Unique, topic-safe identifier (``myID`` in the paper's listing).
    broker:
        The in-process broker to connect to (stands in for
        ``broker_ip``/``broker_port``).
    preferred_role:
        The role the client volunteers for (``trainer``, ``aggregator`` or
        ``trainer_aggregator``); the coordinator makes the final decision.
    aggregation:
        Default aggregation strategy used when this client acts as an
        aggregator (sessions may override it via the topology broadcast).
    compression:
        MQTTFC compression policy for model payloads.
    stats_provider:
        Optional callable returning a :class:`DeviceStats` snapshot; used to
        fill the per-round readiness report (the psutil stand-in).
    resources:
        Optional :class:`ResourceAccountant` used to charge buffered peer
        models against this device's memory.
    pump:
        Optional callable that pumps the whole broker until quiescent; the
        deterministic runtime injects it so blocking-style calls
        (``wait_global_update``) can make progress.
    update_codec:
        Update-compression codec spec applied to contributions on the wire
        (``"none"``, ``"fp16"``, ``"int8"``, ``"topk[=d]"``, ``"delta"`` or a
        ``+``-composed pipeline such as ``"delta+int8"``).  Every session
        participant must run the same codec.
    """

    def __init__(
        self,
        client_id: str,
        broker: Optional[MQTTBroker] = None,
        preferred_role: str = "trainer",
        aggregation: str = "fedavg",
        compression: Optional[CompressionConfig] = None,
        chunk_bytes: int = 256 * 1024,
        stats_provider: Optional[Callable[[], DeviceStats]] = None,
        resources: Optional[ResourceAccountant] = None,
        pump: Optional[Callable[[], int]] = None,
        update_codec: Optional[str] = None,
    ) -> None:
        self.client_id = validate_identifier(client_id, "client id")
        self.preferred_role = Role.coerce(preferred_role).value if preferred_role else "trainer"
        self.default_aggregation = aggregation
        self.mqtt = MQTTClient(client_id)
        self.endpoint = FleetControlEndpoint(
            self.mqtt,
            chunk_bytes=chunk_bytes,
            compression=compression,
            update_codec=update_codec,
        )
        self.arbiter = RoleArbiter(client_id)
        self.models = ModelController(client_id)
        self.stats_provider = stats_provider
        self.resources = resources
        self.pump = pump

        self._sessions: Dict[str, SessionParticipation] = {}
        self._aggregators: Dict[str, AggregationStrategy] = {}
        self.bytes_uploaded = 0
        self.bytes_aggregated = 0
        #: Optional hook fired after a coordinator ``set_role`` is applied
        #: (``hook(client_id, session_id, assignment)``).  The experiment
        #: harness uses it to trigger a mid-round-admitted client's first
        #: upload once it actually holds a role.
        self.on_role_assigned: Optional[Callable[[str, str, RoleAssignment], None]] = None

        # Private control functions every client serves.
        self.endpoint.register("set_role", self._handle_set_role, client_call_topic(client_id, "set_role"))

        if broker is not None:
            self.connect(broker)

    # ------------------------------------------------------------ connection

    def connect(self, broker: MQTTBroker) -> None:
        """Connect to the broker and activate the MQTTFC endpoint.

        The client registers an ``offline`` last-will on its presence topic and
        publishes a retained ``online`` marker, so the coordinator notices
        ungraceful departures through the broker itself (no polling).
        """
        if not self.mqtt.connected:
            self.mqtt.will_set(presence_topic(self.client_id), b"offline", qos=1, retain=True)
            self.mqtt.connect(broker)
        self.endpoint.start()
        self.mqtt.subscribe(client_call_topic(self.client_id, "set_role"), self.endpoint.qos)
        self.mqtt.publish(presence_topic(self.client_id), b"online", qos=1, retain=True)

    def disconnect(self, unexpected: bool = False) -> None:
        """Disconnect from the broker."""
        self.mqtt.disconnect(unexpected=unexpected)

    def _pump(self) -> None:
        if self.pump is not None:
            self.pump()

    # ------------------------------------------------------------ public API

    def create_fl_session(
        self,
        session_id: str,
        fl_rounds: int,
        model_name: str,
        session_capacity_min: int,
        session_capacity_max: int,
        session_time_s: float = 3600.0,
        waiting_time_s: float = 120.0,
        preferred_role: Optional[str] = None,
        aggregation: Optional[str] = None,
    ) -> PendingCall:
        """Request creation of a new FL session (paper Fig. 4a / Listing 1 line 19).

        Returns the pending MQTTFC call; when a message pump is attached the
        call is pumped to completion before returning.
        """
        request = SessionRequest(
            session_id=session_id,
            model_name=model_name,
            requester_id=self.client_id,
            fl_rounds=fl_rounds,
            session_capacity_min=session_capacity_min,
            session_capacity_max=session_capacity_max,
            session_time_s=session_time_s,
            waiting_time_s=waiting_time_s,
            preferred_role=preferred_role or self.preferred_role,
            aggregation=aggregation or self.default_aggregation,
        )
        self._ensure_participation(session_id, model_name, fl_rounds, request.aggregation)
        call = self.endpoint.call_topic(
            coordinator_call_topic("new_fl_session"), "new_fl_session", request.to_dict()
        )
        if self.pump is not None:
            self._pump()
        return call

    def join_fl_session(
        self,
        session_id: str,
        fl_rounds: int,
        model_name: str,
        preferred_role: Optional[str] = None,
        num_samples: int = 0,
    ) -> PendingCall:
        """Request to join an existing session (paper Fig. 4b / Listing 1 line 29)."""
        join = JoinRequest(
            session_id=session_id,
            client_id=self.client_id,
            model_name=model_name,
            fl_rounds=fl_rounds,
            preferred_role=preferred_role or self.preferred_role,
            num_samples=num_samples,
        )
        self._ensure_participation(session_id, model_name, fl_rounds, self.default_aggregation)
        call = self.endpoint.call_topic(
            coordinator_call_topic("join_fl_session"), "join_fl_session", join.to_dict()
        )
        if self.pump is not None:
            self._pump()
        return call

    def set_model(self, session_id: str, model: ClassifierModel, num_samples: int = 0) -> None:
        """Bind the locally trained model object to a session (Listing 1 line 50)."""
        participation = self._participation(session_id)
        self.models.register(
            session_id, model, model_name=participation.model_name, num_samples=num_samples
        )

    def send_local(self, session_id: str) -> int:
        """Send the local model update for global aggregation (Listing 1 line 51).

        Returns the payload size in bytes.  Aggregating clients contribute to
        their own buffer directly (no self-directed MQTT traffic); trainer
        clients publish to their parent aggregator's params topic.
        """
        participation = self._participation(session_id)
        record = self.models.record(session_id)
        state = self.models.snapshot_local(session_id)
        self.models.note_local_update(session_id)
        weight = float(max(1, record.num_samples))
        participation.rounds.note_upload(self.models.global_version(session_id))

        contribution = ModelContribution(
            state=state,
            weight=weight,
            sender_id=self.client_id,
            round_index=participation.current_round,
            epoch=participation.restart_epoch,
        )
        payload_bytes = contribution.nbytes  # cached by the contribution, one walk
        self.bytes_uploaded += payload_bytes
        role_state = self.arbiter.state(session_id) if self.arbiter.has_session(session_id) else None
        if role_state is not None and role_state.role.aggregates:
            participation.rounds.own_contribution_sent = True
            self._buffer_contribution(session_id, contribution, charge_memory=False)
        else:
            parent = role_state.parent_id if role_state is not None else None
            if parent is None:
                raise RoleError(
                    f"client {self.client_id!r} has no role/parent for session {session_id!r}; "
                    "did the coordinator arrange roles yet?"
                )
            self._publish_contribution(session_id, parent, contribution)
        return payload_bytes

    def wait_global_update(self, session_id: str, max_pumps: int = 10_000) -> int:
        """Block (by pumping the broker) until the next global model is applied.

        Returns the global model version now installed.  Raises
        :class:`SDFLMQError` if the broker quiesces without the update
        arriving (which indicates a stalled round).
        """
        participation = self._participation(session_id)
        target = participation.awaited_global_version
        for _ in range(max_pumps):
            if self.models.global_version(session_id) >= target:
                return self.models.global_version(session_id)
            before = self.models.global_version(session_id)
            self._pump()
            if self.models.global_version(session_id) == before and self.pump is None:
                break
        if self.models.global_version(session_id) >= target:
            return self.models.global_version(session_id)
        raise SDFLMQError(
            f"global update for session {session_id!r} did not arrive "
            f"(have version {self.models.global_version(session_id)}, want {target})"
        )

    def report_stats(
        self,
        session_id: str,
        train_loss: float = 0.0,
        local_accuracy: float = 0.0,
    ) -> None:
        """Send the per-round readiness + system stats report to the coordinator."""
        participation = self._participation(session_id)
        stats = self.stats_provider() if self.stats_provider is not None else DeviceStats(self.client_id)
        record = self.models.record(session_id) if self.models.has_model(session_id) else None
        report = ClientStatsReport(
            session_id=session_id,
            client_id=self.client_id,
            round_index=participation.current_round,
            available_memory_bytes=stats.available_memory_bytes,
            cpu_load=stats.cpu_load,
            bandwidth_bps=stats.bandwidth_bps,
            num_samples=record.num_samples if record is not None else 0,
            train_loss=train_loss,
            local_accuracy=local_accuracy,
        )
        self.endpoint.call_topic(
            coordinator_call_topic("report_stats"), "report_stats", report.to_dict(), expect_response=False
        )

    # ------------------------------------------------------------- accessors

    def role(self, session_id: str) -> Role:
        """Current role in ``session_id``."""
        return self.arbiter.role(session_id)

    def participation(self, session_id: str) -> SessionParticipation:
        """The client-side participation record (raises if not participating)."""
        return self._participation(session_id)

    def sessions(self) -> List[str]:
        """Sessions this client participates in (sorted)."""
        return sorted(self._sessions)

    # ----------------------------------------------------------- participation

    def _ensure_participation(
        self, session_id: str, model_name: str, fl_rounds: int, aggregation: str
    ) -> SessionParticipation:
        if session_id not in self._sessions:
            self._sessions[session_id] = SessionParticipation(
                session_id=session_id,
                model_name=model_name,
                fl_rounds=fl_rounds,
                aggregation=aggregation,
                owner_id=self.client_id,
                resources=self.resources,
            )
            self.arbiter.ensure_session(session_id)
            self._subscribe_session_topics(session_id)
        return self._sessions[session_id]

    def _participation(self, session_id: str) -> SessionParticipation:
        participation = self._sessions.get(session_id)
        if participation is None:
            raise SDFLMQError(
                f"client {self.client_id!r} does not participate in session {session_id!r}"
            )
        return participation

    def _subscribe_session_topics(self, session_id: str) -> None:
        self.endpoint.register(
            f"session_control__{session_id}",
            lambda notice, sid=session_id: self._handle_session_control(sid, notice),
            session_broadcast_topic(session_id),
        )
        self.endpoint.register(
            f"apply_global__{session_id}",
            lambda payload, sid=session_id: self._handle_apply_global(sid, payload),
            global_update_topic(session_id),
        )
        # The contribution inbox stays subscribed for the whole session, not
        # just while this client holds an aggregating role.  A mid-round
        # re-plan can promote a client and route peers' (re-)sends to it
        # before its own set_role message lands; with a role-scoped
        # subscription the broker would drop those messages on the floor and
        # the restarted round could never complete.  With a session-scoped
        # inbox they are buffered and reconciled when the role arrives.
        self.endpoint.register(
            f"receive_model__{session_id}",
            lambda payload, sid=session_id: self._handle_receive_model(sid, payload),
            aggregator_params_topic(session_id, self.client_id),
        )

    # ------------------------------------------------------------ role control

    def _handle_set_role(self, assignment_dict: dict) -> None:
        assignment = RoleAssignment.from_dict(assignment_dict)
        session_id = assignment.session_id
        self._ensure_participation(
            session_id, model_name="", fl_rounds=0, aggregation=self.default_aggregation
        )
        change = self.arbiter.apply_assignment(assignment)
        self._apply_topic_change(session_id, change)
        participation = self._participation(session_id)
        participation.rounds.observe_round(assignment.round_index)
        self._reconcile_pending(session_id)
        if self.on_role_assigned is not None:
            self.on_role_assigned(self.client_id, session_id, assignment)

    def _reconcile_pending(self, session_id: str) -> None:
        """Re-route buffered contributions after a mid-round role change.

        If a contributor dropped out mid-round the coordinator re-plans the
        topology for the survivors.  A client that keeps an aggregating role
        may now already hold enough contributions (its cluster shrank), so the
        trigger is re-checked; a client that *lost* its aggregating role
        forwards whatever it had buffered to its new parent so no contribution
        is stranded.
        """
        participation = self._participation(session_id)
        if not participation.buffer.pending or not self.arbiter.has_session(session_id):
            return
        role_state = self.arbiter.state(session_id)
        if role_state.role.aggregates:
            self._maybe_aggregate(session_id)
            return
        if role_state.parent_id is None:
            return  # idle / unknown destination: keep the buffer until reassigned
        for contribution in participation.buffer.drain():
            self._publish_contribution(session_id, role_state.parent_id, contribution)

    def _apply_topic_change(self, session_id: str, change: TopicChange) -> None:
        # The params inbox is session-scoped (see _subscribe_session_topics),
        # so a demotion keeps the subscription: contributions addressed to a
        # stale topology are buffered and forwarded by _reconcile_pending
        # instead of vanishing at the broker.  Re-registering on promotion is
        # an idempotent no-op (same handler name, same topic).
        for topic in change.subscribe:
            self.endpoint.register(
                f"receive_model__{session_id}",
                lambda payload, sid=session_id: self._handle_receive_model(sid, payload),
                topic,
            )

    # ----------------------------------------------------- session broadcasts

    def _handle_session_control(self, session_id: str, notice: dict) -> None:
        participation = self._participation(session_id)
        rounds = participation.rounds
        event = notice.get("event", "")
        if event == "cluster_topology":
            aggregation = notice.get("aggregation")
            if aggregation:
                participation.aggregation = str(aggregation)
                self._aggregators.pop(session_id, None)
            rounds.observe_round(int(notice.get("round_index", 0)))
            # A client that (re)joined after a mid-round restart never saw the
            # round_restart notice; syncing the epoch piggybacked on topology
            # and round_advanced broadcasts keeps its uploads from being
            # discarded as pre-restart leftovers.
            rounds.observe_epoch(int(notice.get("restart_epoch", 0)))
        elif event == "round_advanced":
            rounds.round_advanced(
                int(notice.get("round_index", rounds.current_round)),
                epoch=int(notice.get("restart_epoch", 0)),
            )
        elif event == "round_restart":
            self._handle_round_restart(
                session_id,
                int(notice.get("round_index", rounds.current_round)),
                epoch=int(notice.get("epoch", rounds.restart_epoch + 1)),
            )
        elif event in ("session_complete", "session_terminated"):
            rounds.completed = True

    def _handle_round_restart(self, session_id: str, round_index: int, epoch: int = 0) -> None:
        """Recover from a mid-round contributor loss (coordinator-initiated).

        A contributor (possibly an aggregator) vanished before the round's
        global model was produced, so partial aggregates may have been lost in
        transit.  Every surviving client drops what it had buffered *from
        before this restart* and — if it had already uploaded its local
        update this round — re-sends it, now routed according to the freshly
        re-planned topology.

        ``epoch`` orders restarts against contribution deliveries: re-sent
        contributions carry the epoch of the restart that triggered them, so
        an aggregator whose restart notice arrives *after* a peer's re-send
        (delivery latency differs per client) keeps that re-send instead of
        wiping it — without the epoch stamp, the wipe deadlocked the round,
        with every survivor waiting on a contribution nobody would re-send.
        """
        participation = self._participation(session_id)
        if not participation.rounds.observe_restart(round_index, epoch):
            return  # duplicate or out-of-date restart notice
        participation.buffer.drop_stale_epochs(epoch)

        already_uploaded = participation.rounds.uploads_sent > 0
        still_waiting = (
            self.models.has_model(session_id)
            and participation.rounds.awaiting_global(self.models.global_version(session_id))
        )
        if already_uploaded and still_waiting:
            self.send_local(session_id)

    # ------------------------------------------------------------ aggregation

    def _aggregator_for(self, session_id: str) -> AggregationStrategy:
        strategy = self._aggregators.get(session_id)
        if strategy is None:
            participation = self._participation(session_id)
            strategy = get_aggregator(participation.aggregation)
            self._aggregators[session_id] = strategy
        return strategy

    def _handle_receive_model(self, session_id: str, payload: dict) -> None:
        """Peer contribution arriving on this client's aggregator params topic."""
        # No role check here: a contribution can arrive before this client's
        # promotion to aggregator has been processed (the sender acted on the
        # re-planned topology first).  It is buffered either way; when the
        # set_role lands, _reconcile_pending aggregates it — and if this
        # client is *not* promoted after all, the same hook forwards the
        # buffer to its actual parent, so nothing is stranded.
        state = payload["state"]
        if is_encoded_state(state):
            codec = self.endpoint.update_codec
            if codec is None:
                raise SDFLMQError(
                    f"client {self.client_id!r} received a "
                    f"{state.get(CODEC_WIRE_KEY)!r}-encoded update but has no "
                    "update codec installed; the fleet's update_codec settings "
                    "are inconsistent"
                )
            state = codec.decode_state(session_id, state)
            tracer = self.endpoint.tracer
            if tracer is not None:
                tracer.instant(
                    "update-decode",
                    "codec",
                    args={"endpoint": self.client_id, "codec": codec.spec},
                )
        contribution = ModelContribution(
            state=state,
            weight=float(payload.get("weight", 1.0)),
            sender_id=str(payload.get("sender", "?")),
            round_index=int(payload.get("round_index", 0)),
            epoch=int(payload.get("epoch", 0)),
        )
        self._buffer_contribution(session_id, contribution, charge_memory=True)

    def _buffer_contribution(
        self, session_id: str, contribution: ModelContribution, charge_memory: bool
    ) -> None:
        participation = self._participation(session_id)
        if not participation.buffer.add(
            contribution,
            min_epoch=participation.rounds.restart_epoch,
            charge_memory=charge_memory,
        ):
            return  # pre-restart leftover: the sender re-sends or was dropped
        self._maybe_aggregate(session_id)

    def _expected_buffer_size(self, session_id: str) -> int:
        role_state = self.arbiter.state(session_id)
        expected = role_state.expected_contributions
        if role_state.role.trains:
            expected += 1  # the aggregator's own local update
        return expected

    def _maybe_aggregate(self, session_id: str) -> None:
        participation = self._participation(session_id)
        role_state = self.arbiter.state(session_id)
        if not role_state.role.aggregates:
            return
        expected = self._expected_buffer_size(session_id)
        # Only contributions belonging to the round currently in progress count
        # toward the trigger; anything stale (earlier rounds that were restarted
        # and already superseded) is garbage-collected by the buffer's take.
        contributions = participation.buffer.take(participation.current_round, expected)
        if contributions is None:
            return

        # The aggregate leaves in the dtype its contributions arrived in, so a
        # relayed partial and the global are no wider than one upload.
        leaf_dtypes = {np.asarray(leaf).dtype for c in contributions for leaf in c.state.values()}
        strategy = self._aggregator_for(session_id)
        aggregated = strategy.aggregate(contributions, np.result_type(*leaf_dtypes))
        total_weight = sum(c.weight for c in contributions)
        round_index = max(c.round_index for c in contributions)
        self.bytes_aggregated += sum(c.nbytes for c in contributions)
        participation.aggregations_performed += 1

        result = ModelContribution(
            state=aggregated,
            weight=total_weight,
            sender_id=self.client_id,
            round_index=round_index,
            epoch=participation.restart_epoch,
        )
        if role_state.parent_id is not None:
            self._publish_contribution(session_id, role_state.parent_id, result)
        else:
            self._publish_global(session_id, result, num_contributors=expected)

    # --------------------------------------------------------------- publish

    def _publish_contribution(
        self, session_id: str, parent_id: str, contribution: ModelContribution
    ) -> None:
        state: object = contribution.state
        codec = self.endpoint.update_codec
        if codec is not None:
            saved_before = codec.stats.bytes_saved
            state = codec.encode_state(session_id, contribution.state)
            tracer = self.endpoint.tracer
            if tracer is not None:
                tracer.instant(
                    "update-encode",
                    "codec",
                    args={
                        "endpoint": self.client_id,
                        "codec": codec.spec,
                        "saved_bytes": codec.stats.bytes_saved - saved_before,
                    },
                )
        self.endpoint.call_topic(
            aggregator_params_topic(session_id, parent_id),
            "receive_model",
            {
                "session_id": session_id,
                "sender": contribution.sender_id,
                "round_index": contribution.round_index,
                "weight": contribution.weight,
                "epoch": contribution.epoch,
                "state": state,
            },
            expect_response=False,
        )

    def _publish_global(
        self, session_id: str, contribution: ModelContribution, num_contributors: int
    ) -> None:
        participation = self._participation(session_id)
        self.endpoint.call_topic(
            global_store_topic(session_id),
            "store_global",
            {
                "session_id": session_id,
                "model_name": participation.model_name,
                "round_index": contribution.round_index,
                "total_weight": contribution.weight,
                "num_contributors": num_contributors,
                "state": contribution.state,
            },
            expect_response=False,
        )

    # ----------------------------------------------------------- global model

    def _handle_apply_global(self, session_id: str, payload: dict) -> None:
        round_index = int(payload.get("round_index", 0))
        codec = self.endpoint.update_codec
        if codec is not None:
            # Capture the broadcast global as the delta reference *before* the
            # has-a-model gate: aggregator-only clients must keep decoding
            # their children's delta-encoded contributions.
            codec.observe_global(session_id, payload["state"], round_index)
        if not self.models.has_model(session_id):
            return  # e.g. an aggregator-only client with no local model registered
        self.models.apply_global(session_id, payload["state"], round_index)
