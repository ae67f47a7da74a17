"""Client-side role arbiter.

The role arbiter (paper §III.B.2) governs what a client does in the current
round of each session it participates in: whether it should accept incoming
model parameters (aggregator roles), how many contributions to expect, and
where to send its own output (a parent aggregator's params topic, or the
parameter server when the client is the root aggregator).

It also performs the topic bookkeeping of role changes (paper Fig. 6): on a
role update it reports which role topics to unsubscribe from and which to
subscribe to, so that only the affected client touches its subscriptions while
every other client keeps its existing topics — the core benefit the paper
attributes to the publish/subscribe design.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.core.errors import RoleError
from repro.core.messages import RoleAssignment
from repro.core.roles import Role
from repro.core.topics import aggregator_params_topic

__all__ = ["RoleArbiter", "RoleState", "TopicChange"]


@dataclass(frozen=True)
class TopicChange:
    """Subscription changes implied by a role update."""

    subscribe: Tuple[str, ...] = ()
    unsubscribe: Tuple[str, ...] = ()


@dataclass
class RoleState:
    """The arbiter's view of one session's current role."""

    session_id: str
    role: Role = Role.IDLE
    round_index: int = -1
    parent_id: Optional[str] = None
    expected_contributions: int = 0
    children: List[str] = field(default_factory=list)
    level: int = 0
    params_topic: Optional[str] = None


class RoleArbiter:
    """Tracks per-session roles for one client and derives topic changes."""

    def __init__(self, client_id: str) -> None:
        self.client_id = client_id
        self._states: Dict[str, RoleState] = {}
        self.role_changes = 0

    # -------------------------------------------------------------- accessors

    def state(self, session_id: str) -> RoleState:
        """Role state for ``session_id``; raises if the session is unknown."""
        state = self._states.get(session_id)
        if state is None:
            raise RoleError(f"client {self.client_id!r} has no role state for session {session_id!r}")
        return state

    def role(self, session_id: str) -> Role:
        """Current role in ``session_id`` (IDLE when unknown)."""
        state = self._states.get(session_id)
        return state.role if state is not None else Role.IDLE

    def has_session(self, session_id: str) -> bool:
        """Whether the arbiter tracks ``session_id``."""
        return session_id in self._states

    # ---------------------------------------------------------------- updates

    def ensure_session(self, session_id: str) -> RoleState:
        """Create an IDLE role state for a newly joined session."""
        if session_id not in self._states:
            self._states[session_id] = RoleState(session_id=session_id)
        return self._states[session_id]

    def apply_assignment(self, assignment: RoleAssignment) -> TopicChange:
        """Apply a coordinator ``set_role`` instruction.

        Returns the topic changes the owning client must perform.  A client
        that becomes an aggregator must subscribe to its own params topic; a
        client that stops aggregating must unsubscribe from it (paper Fig. 6's
        unsubscribe/subscribe exchange).
        """
        if assignment.client_id != self.client_id:
            raise RoleError(
                f"assignment addressed to {assignment.client_id!r} applied on {self.client_id!r}"
            )
        new_role = assignment.role_enum
        session_id = assignment.session_id
        previous = self._states.get(session_id)
        old_topic = previous.params_topic if previous is not None else None
        old_role = previous.role if previous is not None else Role.IDLE

        new_topic = (
            aggregator_params_topic(session_id, self.client_id) if new_role.aggregates else None
        )
        state = RoleState(
            session_id=session_id,
            role=new_role,
            round_index=assignment.round_index,
            parent_id=assignment.parent_id,
            expected_contributions=assignment.expected_contributions,
            children=list(assignment.children),
            level=assignment.level,
            params_topic=new_topic,
        )
        self._states[session_id] = state
        if old_role != new_role:
            self.role_changes += 1

        subscribe: List[str] = []
        unsubscribe: List[str] = []
        if new_topic and new_topic != old_topic:
            subscribe.append(new_topic)
        if old_topic and old_topic != new_topic:
            unsubscribe.append(old_topic)
        return TopicChange(subscribe=tuple(subscribe), unsubscribe=tuple(unsubscribe))
