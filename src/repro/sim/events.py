"""Timestamped event log for simulated experiments.

Every meaningful action in an FL run — local training finished, model
uploaded, aggregation performed, role reassigned, global model published — is
recorded here with its simulated timestamp and duration.  The experiment
harness derives the paper's delay metrics (total processing delay per round
and per run) by reducing over this log, which also makes the benchmarks easy
to debug: the log *is* the trace.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Tuple

__all__ = ["SimEvent", "EventLog", "ChurnEvent", "ChurnSchedule", "CHURN_ACTIONS"]


@dataclass(frozen=True)
class SimEvent:
    """One event in the simulation trace."""

    timestamp: float
    kind: str
    actor: str
    duration_s: float = 0.0
    round_index: int = -1
    session_id: str = ""
    detail: str = ""


class EventLog:
    """Append-only list of :class:`SimEvent` with a filter and a histogram."""

    def __init__(self) -> None:
        self._events: List[SimEvent] = []

    def record(
        self,
        timestamp: float,
        kind: str,
        actor: str,
        duration_s: float = 0.0,
        round_index: int = -1,
        session_id: str = "",
        detail: str = "",
    ) -> SimEvent:
        """Append an event and return it."""
        if duration_s < 0:
            raise ValueError(f"event duration must be non-negative, got {duration_s}")
        event = SimEvent(
            timestamp=float(timestamp),
            kind=kind,
            actor=actor,
            duration_s=float(duration_s),
            round_index=int(round_index),
            session_id=session_id,
            detail=detail,
        )
        self._events.append(event)
        return event

    def filter(
        self,
        kind: Optional[str] = None,
        actor: Optional[str] = None,
        round_index: Optional[int] = None,
        session_id: Optional[str] = None,
        predicate: Optional[Callable[[SimEvent], bool]] = None,
    ) -> List[SimEvent]:
        """Return events matching all the provided criteria."""
        out = []
        for event in self._events:
            if kind is not None and event.kind != kind:
                continue
            if actor is not None and event.actor != actor:
                continue
            if round_index is not None and event.round_index != round_index:
                continue
            if session_id is not None and event.session_id != session_id:
                continue
            if predicate is not None and not predicate(event):
                continue
            out.append(event)
        return out

    def kinds(self) -> Dict[str, int]:
        """Histogram of event kinds."""
        counts: Dict[str, int] = {}
        for event in self._events:
            counts[event.kind] = counts.get(event.kind, 0) + 1
        return counts

# --------------------------------------------------------------------- churn

#: Churn actions a schedule may contain, in the order a device typically
#: experiences them.
CHURN_ACTIONS: Tuple[str, ...] = ("join", "leave", "reconnect")


@dataclass(frozen=True)
class ChurnEvent:
    """One scheduled client lifecycle change.

    Attributes
    ----------
    time:
        Simulated time (seconds) at which the change takes effect.
    action:
        One of :data:`CHURN_ACTIONS` — ``join`` (a new client appears),
        ``leave`` (a client drops, usually ungracefully) or ``reconnect``
        (a previously dropped client comes back).
    client_id:
        The affected client.
    detail:
        Free-form annotation copied into the event log when the event fires.
    """

    time: float
    action: str
    client_id: str
    detail: str = ""

    def __post_init__(self) -> None:
        if self.time < 0:
            raise ValueError(f"churn event time must be non-negative, got {self.time}")
        if self.action not in CHURN_ACTIONS:
            raise ValueError(
                f"unknown churn action {self.action!r}; expected one of {CHURN_ACTIONS}"
            )

    def as_dict(self) -> Dict[str, object]:
        """Plain-dict form (the scenario spec's JSON representation)."""
        return {
            "time": float(self.time),
            "action": self.action,
            "client_id": self.client_id,
            "detail": self.detail,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "ChurnEvent":
        """Inverse of :meth:`as_dict`; raises ``ValueError`` on bad fields."""
        unknown = set(data) - {"time", "action", "client_id", "detail"}
        if unknown:
            raise ValueError(f"unknown churn event field(s): {sorted(unknown)}")
        try:
            return cls(
                time=float(data["time"]),  # type: ignore[arg-type]
                action=str(data["action"]),
                client_id=str(data["client_id"]),
                detail=str(data.get("detail", "")),
            )
        except KeyError as exc:
            raise ValueError(f"churn event missing required field {exc}") from exc


class ChurnSchedule:
    """A time-ordered plan of client join/leave/reconnect events.

    The schedule is transport-agnostic: :meth:`bind` registers each event as a
    timed action on an :class:`~repro.runtime.scheduler.EventScheduler`, with
    the scenario supplying one handler per action kind.  Because the scheduler
    fires actions *before* deliveries due at the same instant, a client that
    leaves at time *t* never sees messages arriving at *t*.
    """

    def __init__(self, events: Optional[List[ChurnEvent]] = None) -> None:
        self._events: List[ChurnEvent] = list(events) if events else []

    def add(self, event: ChurnEvent) -> ChurnEvent:
        """Append an event to the plan and return it."""
        self._events.append(event)
        return event

    def join(self, time: float, client_id: str, detail: str = "") -> ChurnEvent:
        """Schedule a client joining at ``time``."""
        return self.add(ChurnEvent(time=float(time), action="join", client_id=client_id, detail=detail))

    def leave(self, time: float, client_id: str, detail: str = "") -> ChurnEvent:
        """Schedule a client dropping out at ``time``."""
        return self.add(ChurnEvent(time=float(time), action="leave", client_id=client_id, detail=detail))

    def reconnect(self, time: float, client_id: str, detail: str = "") -> ChurnEvent:
        """Schedule a dropped client returning at ``time``."""
        return self.add(ChurnEvent(time=float(time), action="reconnect", client_id=client_id, detail=detail))

    @property
    def events(self) -> List[ChurnEvent]:
        """The planned events sorted by time (stable for equal times)."""
        return sorted(self._events, key=lambda e: e.time)

    def bind(
        self,
        scheduler: "object",
        handlers: Mapping[str, Callable[[ChurnEvent], None]],
        event_log: Optional[EventLog] = None,
    ) -> int:
        """Register every planned event as a timed scheduler action.

        ``handlers`` maps action names to callables invoked with the
        :class:`ChurnEvent` when its time arrives; actions without a handler
        raise immediately so a scenario cannot silently ignore planned churn.
        Returns the number of actions registered.
        """
        missing = {e.action for e in self._events} - set(handlers)
        if missing:
            raise KeyError(f"no handler bound for churn action(s): {sorted(missing)}")
        for event in self.events:
            handler = handlers[event.action]

            def fire(event: ChurnEvent = event, handler: Callable[[ChurnEvent], None] = handler) -> None:
                handler(event)
                if event_log is not None:
                    event_log.record(
                        timestamp=event.time,
                        kind=f"churn_{event.action}",
                        actor=event.client_id,
                        detail=event.detail,
                    )

            scheduler.call_at(event.time, fire)
        return len(self._events)
