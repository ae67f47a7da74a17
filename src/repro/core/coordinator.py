"""The SDFLMQ coordinator.

The coordinator (paper §III.D–E) governs sessions, clustering and role
management.  It never touches model parameters: it "only receives the metadata
needed to perform role arrangement and rearrangement and sends only routing
and task placement metadata to the clients" (§III.B.2).  Concretely it serves
four MQTTFC functions:

* ``new_fl_session`` — create a session (first request wins, §III.E.1);
* ``join_fl_session`` — add a contributor to a waiting session;
* ``report_stats`` — per-round readiness + system stats from a client;
* ``global_stored`` — notification from the parameter server that the round's
  global model is available.

When a session fills up the coordinator builds the initial cluster topology
and sends every contributor its role over the client's private control topic;
at every round boundary it re-runs the load balancer and contacts only the
clients whose role changed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.core.clustering import ClusteringConfig, ClusteringEngine
from repro.core.errors import SessionNotFoundError
from repro.core.load_balancer import LoadBalancer, RebalanceResult
from repro.core.messages import (
    ClientStatsReport,
    JoinAck,
    JoinRequest,
    SessionAck,
    SessionRequest,
)
from repro.core.role_optimizers import RoleOptimizationPolicy, StaticPolicy
from repro.core.session import FLSession, SessionState
from repro.core.topics import (
    COORDINATOR_ID,
    PRESENCE_WILDCARD,
    client_call_topic,
    coordinator_call_topic,
    session_broadcast_topic,
)
from repro.mqtt.broker import MQTTBroker
from repro.mqtt.client import MQTTClient
from repro.mqttfc.compression import CompressionConfig
from repro.mqttfc.rfc import FleetControlEndpoint
from repro.sim.events import EventLog

__all__ = ["Coordinator", "CoordinatorConfig"]


@dataclass
class CoordinatorConfig:
    """Tunable coordinator behaviour.

    Attributes
    ----------
    clustering:
        Topology construction parameters (policy, aggregator fraction, ...).
    auto_start_when_full:
        Start a session as soon as it reaches ``session_capacity_max``
        contributors (the deterministic runtime relies on this).
    rebalance_every_round:
        Re-run the role optimizer at every round boundary.  When False the
        initial arrangement is kept for the whole session (the "static"
        ablation).
    """

    clustering: ClusteringConfig = field(default_factory=ClusteringConfig)
    auto_start_when_full: bool = True
    rebalance_every_round: bool = True


class Coordinator:
    """Coordinator node: session manager + clustering engine + load balancer."""

    def __init__(
        self,
        broker: MQTTBroker,
        config: Optional[CoordinatorConfig] = None,
        policy: Optional[RoleOptimizationPolicy] = None,
        client_id: str = COORDINATOR_ID,
        event_log: Optional[EventLog] = None,
        compression: Optional[CompressionConfig] = None,
    ) -> None:
        self.config = config or CoordinatorConfig()
        self.client_id = client_id
        self.mqtt = MQTTClient(client_id)
        self.mqtt.connect(broker)
        self.endpoint = FleetControlEndpoint(self.mqtt, compression=compression)
        self.endpoint.start()
        self.event_log = event_log
        self.load_balancer = LoadBalancer(
            clustering=ClusteringEngine(self.config.clustering),
            policy=policy or StaticPolicy(),
        )
        self.sessions: Dict[str, FLSession] = {}
        self.rejected_session_requests = 0
        self.role_messages_sent = 0
        self.rebalances = 0
        self.clients_dropped = 0
        self.mid_round_restarts = 0
        #: Clients whose next join should be treated as a *mid-round* arrival
        #: (see :meth:`note_mid_round_join`).
        self._mid_round_joins: set = set()

        # Client liveness: presence topics carry plain "online"/"offline"
        # markers (retained / last-will), outside the MQTTFC framing.
        self.mqtt.message_callback_add(PRESENCE_WILDCARD, self._on_presence)
        self.mqtt.subscribe(PRESENCE_WILDCARD, 1)

        self.endpoint.register(
            "new_fl_session", self._handle_new_session, coordinator_call_topic("new_fl_session")
        )
        self.endpoint.register(
            "join_fl_session", self._handle_join_session, coordinator_call_topic("join_fl_session")
        )
        self.endpoint.register(
            "report_stats", self._handle_report_stats, coordinator_call_topic("report_stats")
        )
        self.endpoint.register(
            "global_stored", self._handle_global_stored, coordinator_call_topic("global_stored")
        )

    # ------------------------------------------------------------------ util

    def _now(self) -> float:
        broker = self.mqtt.broker
        return broker.now() if broker is not None else 0.0

    def _record(self, kind: str, session_id: str, detail: str = "", round_index: int = -1) -> None:
        if self.event_log is not None:
            self.event_log.record(
                timestamp=self._now(),
                kind=kind,
                actor=self.client_id,
                session_id=session_id,
                round_index=round_index,
                detail=detail,
            )

    def session(self, session_id: str) -> FLSession:
        """Look up a session; raises :class:`SessionNotFoundError` if unknown."""
        session = self.sessions.get(session_id)
        if session is None:
            raise SessionNotFoundError(f"unknown session {session_id!r}")
        return session

    def active_sessions(self) -> List[str]:
        """Ids of sessions that are still active (sorted)."""
        return sorted(sid for sid, s in self.sessions.items() if s.is_active)

    # ------------------------------------------------------- RFC: new session

    def _handle_new_session(self, request_dict: dict) -> dict:
        request = SessionRequest.from_dict(request_dict)
        if request.session_id in self.sessions:
            # Paper: "If two clients send initiation requests, the coordinator
            # will serve the first request, and dump the other one."
            self.rejected_session_requests += 1
            return SessionAck(
                session_id=request.session_id,
                accepted=False,
                reason="session id already exists; first request wins",
            ).to_dict()
        session = FLSession(request=request, created_at=self._now())
        # Stamp lifecycle events with broker time so subscribers (fault
        # anchors, the per-phase round timer) see when transitions committed.
        session.lifecycle.clock = self._now
        self.sessions[request.session_id] = session
        session.add_contributor(
            request.requester_id, preferred_role=request.preferred_role, num_samples=0
        )
        self._record("session_created", request.session_id, detail=request.model_name)
        self._maybe_start(session)
        return SessionAck(session_id=request.session_id, accepted=True).to_dict()

    # ------------------------------------------------------ RFC: join session

    def note_mid_round_join(self, client_id: str) -> None:
        """Flag ``client_id``'s next join as a mid-round arrival.

        A real deployment would carry this on the join request itself; the
        simulation keeps the wire format byte-stable (message sizes feed the
        delivery-latency model) and signals out-of-band instead.  A flagged
        join that lands while the round is still collecting folds the joiner
        in *and* restarts the round, so contributions shuffled mid-flight by
        the re-plan are re-sent under the new topology and the joiner's own
        upload is counted — the restart-epoch machinery guarantees stale
        pre-fold uploads cannot leak into the restarted round.
        """
        self._mid_round_joins.add(client_id)

    def _handle_join_session(self, join_dict: dict) -> dict:
        join = JoinRequest.from_dict(join_dict)
        # Consume the mid-round marker no matter how the join resolves: a
        # rejected join must not leave a stale flag that would turn the
        # client's next (boundary) join into a spurious round restart.
        mid_round = join.client_id in self._mid_round_joins
        self._mid_round_joins.discard(join.client_id)
        session = self.sessions.get(join.session_id)
        if session is None:
            return JoinAck(
                session_id=join.session_id,
                client_id=join.client_id,
                accepted=False,
                reason="no such session",
            ).to_dict()
        if not session.is_active or session.is_full and join.client_id not in session.contributors:
            reason = "session full" if session.is_full else "session not accepting contributors"
            return JoinAck(
                session_id=join.session_id, client_id=join.client_id, accepted=False, reason=reason
            ).to_dict()
        count = session.add_contributor(
            join.client_id, preferred_role=join.preferred_role, num_samples=join.num_samples
        )
        self._record("client_joined", join.session_id, detail=join.client_id)
        self._maybe_start(session)
        if (
            session.state == SessionState.RUNNING
            and session.topology is not None
            and join.client_id not in session.topology.client_ids
        ):
            # Late join into a running session (flash-crowd arrival, or a
            # dropped client returning): fold the newcomer into the topology
            # immediately — the mirror image of the offline re-plan — so it
            # holds a role before its first uploads start.  The lifecycle
            # roster tolerates the addition in any phase (the ADMIT
            # transition), and the only_changed assignment pass re-issues the
            # expected-contribution counts of the aggregators whose cluster
            # grew — which is exactly what lets a *mid-round* joiner's upload
            # be awaited instead of stranded.  No in-flight contribution is
            # invalidated, so no restart is needed.
            result = self.load_balancer.plan(
                session_id=session.session_id,
                client_ids=session.contributors,
                round_index=session.round_index,
                stats=session.stats,
                previous=session.topology,
            )
            session.topology = result.topology
            self._send_assignments(result, session, only_changed=True)
            self._announce_topology(session)
            self._record("client_late_join", session.session_id, detail=join.client_id,
                         round_index=session.round_index)
            if mid_round and session.global_versions <= session.round_index:
                # The join landed while the round's uploads were in flight:
                # the fold may have re-parented senders whose contributions
                # are already routed to the old tree, and the joiner's own
                # upload must be awaited.  Restart the round exactly as for a
                # mid-round departure — survivors re-send under the new
                # topology, stamped with the bumped epoch.
                epoch = session.lifecycle.restart()
                self._broadcast(
                    session,
                    {
                        "event": "round_restart",
                        "round_index": session.round_index,
                        "epoch": epoch,
                    },
                )
                self._record("round_restart", session.session_id,
                             round_index=session.round_index,
                             detail=f"after {join.client_id} joined mid-round")
                session.lifecycle.resume()
                self.mid_round_restarts += 1
        return JoinAck(
            session_id=join.session_id, client_id=join.client_id, accepted=True, contributors=count
        ).to_dict()

    # ------------------------------------------------------------ RFC: stats

    def _handle_report_stats(self, report_dict: dict) -> None:
        report = ClientStatsReport.from_dict(report_dict)
        session = self.sessions.get(report.session_id)
        if session is None:
            return
        session.record_stats(report)
        if report.num_samples:
            session.client_samples[report.client_id] = report.num_samples
        self._maybe_advance(session)

    # ---------------------------------------------------- RFC: global stored

    def _handle_global_stored(self, notice: dict) -> None:
        session = self.sessions.get(str(notice.get("session_id", "")))
        if session is None:
            return
        session.note_global_update()
        self._record(
            "global_stored",
            session.session_id,
            round_index=int(notice.get("round_index", -1)),
            detail=f"version={notice.get('version')}",
        )
        self._maybe_advance(session)

    # ------------------------------------------------------------- presence

    def _on_presence(self, _client, message) -> None:
        """Handle a presence marker ("online"/"offline") for one client."""
        client_id = message.topic.rsplit("/", 1)[-1]
        if message.payload != b"offline":
            return
        self._handle_client_offline(client_id)

    def _handle_client_offline(self, client_id: str) -> None:
        """Remove a departed client from every active session and re-plan roles.

        If the departed client held an aggregation role (or was a pending
        trainer in a running round), the remaining clients get updated
        assignments so that aggregators no longer wait for a contribution that
        will never arrive.
        """
        touched = False
        for session in list(self.sessions.values()):
            if client_id not in session.contributors or not session.is_active:
                continue
            session.remove_contributor(client_id)
            touched = True
            self._record("client_offline", session.session_id, detail=client_id,
                         round_index=session.round_index)
            if not session.contributors:
                self.terminate_session(session.session_id, reason="all contributors left")
                continue
            if session.state != SessionState.RUNNING or session.topology is None:
                continue
            result = self.load_balancer.plan(
                session_id=session.session_id,
                client_ids=session.contributors,
                round_index=session.round_index,
                stats=session.stats,
                previous=session.topology,
            )
            session.topology = result.topology
            self._send_assignments(result, session, only_changed=True)
            self._announce_topology(session)
            self._broadcast(session, {"event": "contributor_left", "client_id": client_id})
            # If the departure happened mid-round (the round's global model has
            # not been stored yet), contributions routed toward the departed
            # client — or aggregates it had already produced — may be lost.
            # Restart the round: survivors clear their aggregation buffers and
            # re-send their local updates under the new topology.
            if session.global_versions <= session.round_index:
                epoch = session.lifecycle.restart()
                self._broadcast(
                    session,
                    {
                        "event": "round_restart",
                        "round_index": session.round_index,
                        "epoch": epoch,
                    },
                )
                self._record("round_restart", session.session_id, round_index=session.round_index,
                             detail=f"after {client_id} left")
                session.lifecycle.resume()
        if touched:
            self.clients_dropped += 1

    # --------------------------------------------------------- session start

    def start_session(self, session_id: str) -> RebalanceResult:
        """Run clustering + initial role arrangement for a session with quorum."""
        session = self.session(session_id)
        session.begin()
        result = self.load_balancer.plan(
            session_id=session.session_id,
            client_ids=session.contributors,
            round_index=session.round_index,
            stats=session.stats,
            previous=None,
        )
        session.topology = result.topology
        self._announce_topology(session)
        self._send_assignments(result, session)
        session.lifecycle.roles_announced()
        self._record(
            "session_started",
            session.session_id,
            round_index=session.round_index,
            detail=f"contributors={len(session.contributors)}",
        )
        return result

    def _maybe_start(self, session: FLSession) -> None:
        if (
            self.config.auto_start_when_full
            and session.state in (SessionState.WAITING_FOR_CONTRIBUTORS, SessionState.READY)
            and session.is_full
        ):
            self.start_session(session.session_id)

    # -------------------------------------------------------- round boundary

    def _maybe_advance(self, session: FLSession) -> None:
        if session.state != SessionState.RUNNING:
            return
        current = session.round_index
        # The round is complete once the parameter server stored the global
        # model for it and every contributor reported readiness (stats).
        if session.global_versions <= current:
            return
        if not session.round_ready(current):
            return
        next_round = session.advance_round()
        if session.state == SessionState.COMPLETED:
            self._broadcast(session, {"event": "session_complete", "rounds": session.completed_rounds})
            self._record("session_complete", session.session_id, round_index=current)
            return

        if self.config.rebalance_every_round:
            result = self.load_balancer.plan(
                session_id=session.session_id,
                client_ids=session.contributors,
                round_index=next_round,
                stats=session.stats,
                previous=session.topology,
            )
            session.topology = result.topology
            self.rebalances += 1
            self._send_assignments(result, session, only_changed=True)
            self._announce_topology(session)
        session.lifecycle.roles_announced()
        self._broadcast(
            session,
            {
                "event": "round_advanced",
                "round_index": next_round,
                "restart_epoch": session.restart_epochs,
            },
        )
        self._record("round_advanced", session.session_id, round_index=next_round)

    # ------------------------------------------------------------- messaging

    def _send_assignments(
        self, result: RebalanceResult, session: FLSession, only_changed: bool = False
    ) -> None:
        targets = result.changed_clients if only_changed else list(result.assignments)
        for client_id in targets:
            assignment = result.assignments[client_id]
            self.endpoint.call_topic(
                client_call_topic(client_id, "set_role"),
                "set_role",
                assignment.to_dict(),
                expect_response=False,
            )
            self.role_messages_sent += 1
        self._record(
            "roles_arranged",
            session.session_id,
            round_index=result.topology and session.round_index or session.round_index,
            detail=f"informed={len(targets)}",
        )

    def _announce_topology(self, session: FLSession) -> None:
        if session.topology is None:
            return
        self._broadcast(
            session,
            {
                "event": "cluster_topology",
                "round_index": session.round_index,
                "topology": session.topology.to_dict(),
                "aggregation": session.request.aggregation,
                # Clients that were offline during a mid-round restart sync
                # their restart epoch from here (and from round_advanced), so
                # their next upload is not mistaken for a stale pre-restart
                # contribution and dropped.
                "restart_epoch": session.restart_epochs,
            },
        )

    def _broadcast(self, session: FLSession, notice: dict) -> None:
        payload = dict(notice)
        payload.setdefault("session_id", session.session_id)
        self.endpoint.call_topic(
            session_broadcast_topic(session.session_id),
            "session_control",
            payload,
            expect_response=False,
        )

    # ---------------------------------------------------------------- admin

    def terminate_session(self, session_id: str, reason: str = "operator") -> None:
        """Terminate a session and notify its contributors."""
        session = self.session(session_id)
        session.terminate(reason)
        self._broadcast(session, {"event": "session_terminated", "reason": reason})
        self._record("session_terminated", session_id, detail=reason)

    def expire_sessions(self) -> List[str]:
        """Terminate sessions whose wall-time budget has elapsed; returns their ids."""
        expired = []
        now = self._now()
        for session in list(self.sessions.values()):
            if session.is_active and session.expired(now):
                self.terminate_session(session.session_id, reason="session time exceeded")
                expired.append(session.session_id)
        return expired
