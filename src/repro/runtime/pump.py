"""Deterministic message pump — a facade over the event-driven scheduler.

Historically the pump swept all registered MQTT clients in round-robin
registration order.  It is now a thin, API-compatible facade over
:class:`~repro.runtime.scheduler.EventScheduler`: every sweep pulls the
pending deliveries into a heap keyed by ``(deliver_at, sequence)`` and
dispatches them in simulated-time order, so an entire multi-client
choreography (session creation → clustering → uploads → hierarchical
aggregation → global update) still completes deterministically from a single
``pump.run_until_idle()`` call — but now in the order the network model says
the messages actually arrive.
"""

from __future__ import annotations

from typing import Optional

from repro.mqtt.client import MQTTClient
from repro.runtime.scheduler import EventScheduler

__all__ = ["MessagePump"]


class MessagePump:
    """Time-ordered pump over a set of MQTT clients.

    Parameters
    ----------
    scheduler:
        Optional pre-built :class:`EventScheduler` to drive; by default the
        pump owns a private one.
    """

    def __init__(self, scheduler: Optional[EventScheduler] = None) -> None:
        self.scheduler = scheduler if scheduler is not None else EventScheduler()

    def register(self, client: MQTTClient) -> None:
        """Add a client to the pump set (idempotent)."""
        self.scheduler.register(client)

    def run_until_idle(self) -> int:
        """Sweep until no client has pending messages; returns total handled.

        Raises ``RuntimeError`` if the system does not quiesce within the
        scheduler's ``max_sweeps`` sweeps (which would indicate a message loop).
        """
        return self.scheduler.run_until_idle()
