"""The parameter server: repository of global models + update synchronizer.

The parameter server (paper §III.B.2) "listens to a public topic designated
for sending and receiving global models" and "serves as a repository for
global models"; its *global update synchronizer* pushes each new global model
back out to every contributor.  It can run on the same machine as the
coordinator or on a separate one — here it is an independent component with
its own MQTT client either way.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.core.topics import (
    COORDINATOR_ID,
    PARAMETER_SERVER_ID,
    coordinator_call_topic,
    global_store_topic,
    global_update_topic,
)
from repro.ml.state import StateDict, state_dict_nbytes
from repro.mqtt.broker import MQTTBroker
from repro.mqtt.client import MQTTClient
from repro.mqttfc.compression import CompressionConfig
from repro.mqttfc.rfc import FleetControlEndpoint
from repro.sim.events import EventLog

__all__ = ["ParameterServer", "GlobalModelRecord"]

#: Wildcard filter matching every session's global-store topic.
_STORE_WILDCARD = "sdflmq/session/+/global/store"


@dataclass
class GlobalModelRecord:
    """The latest stored global model of one session."""

    session_id: str
    model_name: str = ""
    version: int = 0
    round_index: int = -1
    state: Optional[StateDict] = None
    total_weight: float = 0.0
    num_contributors: int = 0
    history_bytes: int = 0


class ParameterServer:
    """Stores per-session global models and synchronizes them to clients."""

    def __init__(
        self,
        broker: MQTTBroker,
        client_id: str = PARAMETER_SERVER_ID,
        notify_coordinator: bool = True,
        event_log: Optional[EventLog] = None,
        compression: Optional[CompressionConfig] = None,
    ) -> None:
        self.client_id = client_id
        self.mqtt = MQTTClient(client_id)
        self.mqtt.connect(broker)
        self.endpoint = FleetControlEndpoint(self.mqtt, compression=compression)
        self.endpoint.start()
        self.notify_coordinator = bool(notify_coordinator)
        self.event_log = event_log
        self._models: Dict[str, GlobalModelRecord] = {}
        self.stores_received = 0
        self.updates_published = 0
        self.duplicate_stores_ignored = 0

        # One wildcard registration serves every session's store topic.
        self.endpoint.register("store_global", self._handle_store_global, _STORE_WILDCARD)
        self.endpoint.register("fetch_global", self._handle_fetch_global)

    # ------------------------------------------------------------- accessors

    def sessions(self) -> list[str]:
        """Session ids with at least one stored global model (sorted)."""
        return sorted(self._models)

    def record(self, session_id: str) -> GlobalModelRecord:
        """The stored record for ``session_id`` (KeyError if absent)."""
        return self._models[session_id]

    def has_model(self, session_id: str) -> bool:
        """Whether a global model is stored for ``session_id``."""
        return session_id in self._models

    def global_state(self, session_id: str) -> Optional[StateDict]:
        """Latest global parameters for ``session_id`` (None if not stored yet)."""
        record = self._models.get(session_id)
        return None if record is None else record.state

    # ---------------------------------------------------------- RFC handlers

    def _handle_store_global(self, payload: dict) -> dict:
        session_id = str(payload["session_id"])
        round_index = int(payload.get("round_index", 0))
        state: StateDict = payload["state"]
        record = self._models.setdefault(session_id, GlobalModelRecord(session_id=session_id))
        if record.state is not None and round_index <= record.round_index:
            # Duplicate or stale store: a mid-round failure can race the
            # coordinator's round restart against an aggregate already in
            # flight, producing a second global for a round that is stored.
            # The repository keeps exactly one global per round, so the late
            # copy is acknowledged (with the existing version) but not stored,
            # re-announced or counted — otherwise the coordinator's
            # rounds-vs-versions bookkeeping would drift and the *next*
            # failure would go unrepaired.
            self.duplicate_stores_ignored += 1
            if self.event_log is not None:
                self.event_log.record(
                    timestamp=self.mqtt.broker.now() if self.mqtt.broker else 0.0,
                    kind="global_model_store_ignored",
                    actor=self.client_id,
                    session_id=session_id,
                    round_index=round_index,
                    detail=f"already at round {record.round_index} version {record.version}",
                )
            return {"session_id": session_id, "version": record.version, "duplicate": True}
        record.version += 1
        record.round_index = round_index
        record.state = state
        record.model_name = str(payload.get("model_name", record.model_name))
        record.total_weight = float(payload.get("total_weight", 0.0))
        record.num_contributors = int(payload.get("num_contributors", 0))
        record.history_bytes += state_dict_nbytes(state)
        self.stores_received += 1

        if self.event_log is not None:
            self.event_log.record(
                timestamp=self.mqtt.broker.now() if self.mqtt.broker else 0.0,
                kind="global_model_stored",
                actor=self.client_id,
                session_id=session_id,
                round_index=round_index,
                detail=f"version={record.version}",
            )

        self._publish_update(record)
        if self.notify_coordinator:
            self.endpoint.call_topic(
                coordinator_call_topic("global_stored"),
                "global_stored",
                {
                    "session_id": session_id,
                    "round_index": round_index,
                    "version": record.version,
                    "num_contributors": record.num_contributors,
                },
                expect_response=False,
            )
        return {"session_id": session_id, "version": record.version}

    def _handle_fetch_global(self, session_id: str) -> dict:
        record = self._models.get(session_id)
        if record is None or record.state is None:
            return {"session_id": session_id, "found": False}
        return {
            "session_id": session_id,
            "found": True,
            "version": record.version,
            "round_index": record.round_index,
            "state": record.state,
        }

    # --------------------------------------------------------------- publish

    def _publish_update(self, record: GlobalModelRecord) -> None:
        self.endpoint.call_topic(
            global_update_topic(record.session_id),
            "apply_global",
            {
                "session_id": record.session_id,
                "round_index": record.round_index,
                "version": record.version,
                "num_contributors": record.num_contributors,
                "state": record.state,
            },
            expect_response=False,
        )
        self.updates_published += 1

    def republish(self, session_id: str) -> bool:
        """Re-publish the latest global model (e.g. after clients reconnect)."""
        record = self._models.get(session_id)
        if record is None or record.state is None:
            return False
        self._publish_update(record)
        return True
