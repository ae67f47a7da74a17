"""The SDFLMQ topic scheme.

Every piece of coordination in SDFLMQ is a publish on a well-known topic.
Centralizing the topic layout here keeps the client, coordinator and parameter
server consistent and gives tests a single place to assert against.

Layout (all under the ``sdflmq/`` root)::

    sdflmq/coordinator/call/<function>            coordinator RFC functions
    sdflmq/client/<client_id>/call/<function>     per-client RFC functions (role control)
    sdflmq/session/<session_id>/broadcast         session-wide announcements
    sdflmq/session/<session_id>/aggregator/<client_id>/params
                                                  where a given aggregator receives models
    sdflmq/session/<session_id>/global/store      parameter-server ingest (root aggregator output)
    sdflmq/session/<session_id>/global/update     global model dissemination to all clients
    sdflmq/session/<session_id>/status            round/readiness reports (monitoring)
"""

from __future__ import annotations

from repro.utils.validation import validate_identifier

__all__ = [
    "SDFLMQ_ROOT",
    "COORDINATOR_ID",
    "coordinator_call_topic",
    "client_call_topic",
    "session_broadcast_topic",
    "aggregator_params_topic",
    "global_store_topic",
    "global_update_topic",
    "presence_topic",
    "PRESENCE_WILDCARD",
]

SDFLMQ_ROOT = "sdflmq"

#: The well-known client id of the coordinator endpoint.
COORDINATOR_ID = "sdflmq_coordinator"

#: The well-known client id of the parameter server endpoint.
PARAMETER_SERVER_ID = "sdflmq_paramserver"


def coordinator_call_topic(function: str) -> str:
    """Topic on which the coordinator serves ``function``."""
    validate_identifier(function, "function name")
    return f"{SDFLMQ_ROOT}/coordinator/call/{function}"


def client_call_topic(client_id: str, function: str) -> str:
    """Private per-client control topic for ``function`` (role set/reset etc.)."""
    validate_identifier(client_id, "client id")
    validate_identifier(function, "function name")
    return f"{SDFLMQ_ROOT}/client/{client_id}/call/{function}"


def session_broadcast_topic(session_id: str) -> str:
    """Session-wide announcement topic (cluster topology, round starts)."""
    validate_identifier(session_id, "session id")
    return f"{SDFLMQ_ROOT}/session/{session_id}/broadcast"


def aggregator_params_topic(session_id: str, aggregator_id: str) -> str:
    """Topic an aggregator listens on for incoming model parameters."""
    validate_identifier(session_id, "session id")
    validate_identifier(aggregator_id, "aggregator id")
    return f"{SDFLMQ_ROOT}/session/{session_id}/aggregator/{aggregator_id}/params"


def global_store_topic(session_id: str) -> str:
    """Topic the root aggregator publishes the new global model to (parameter server ingest)."""
    validate_identifier(session_id, "session id")
    return f"{SDFLMQ_ROOT}/session/{session_id}/global/store"


def global_update_topic(session_id: str) -> str:
    """Topic the parameter server publishes the synchronized global model on."""
    validate_identifier(session_id, "session id")
    return f"{SDFLMQ_ROOT}/session/{session_id}/global/update"


#: Filter the coordinator subscribes to for client liveness updates.
PRESENCE_WILDCARD = f"{SDFLMQ_ROOT}/presence/+"


def presence_topic(client_id: str) -> str:
    """Retained liveness topic for one client.

    Clients publish a retained ``online`` marker here when they connect and
    register an ``offline`` last-will message, so the coordinator learns about
    ungraceful departures straight from the broker (standard MQTT presence
    pattern) without any polling.
    """
    validate_identifier(client_id, "client id")
    return f"{SDFLMQ_ROOT}/presence/{client_id}"
