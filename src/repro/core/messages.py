"""Typed message schemas exchanged between SDFLMQ components.

MQTTFC transports plain dicts; these dataclasses give the coordination
messages a typed, validated surface inside the framework while serializing to
exactly the JSON-like dicts the paper describes ("messages are sent in
customized separable text format, while session stats and cluster topologies
are encoded into JSON format").
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Any, Dict, List, Optional

from repro.core.roles import Role
from repro.utils.validation import require_positive

__all__ = [
    "SessionRequest",
    "SessionAck",
    "JoinRequest",
    "JoinAck",
    "RoleAssignment",
    "ClientStatsReport",
]


def _to_dict(message: Any) -> Dict[str, Any]:
    """``dataclasses.asdict`` for these flat messages, without its deep copy.

    Every field is a scalar except :attr:`RoleAssignment.children`, which its
    ``to_dict`` copies: same keys, same order, same wire bytes.
    """
    return {f.name: getattr(message, f.name) for f in fields(message)}


@dataclass
class SessionRequest:
    """A client's request to create a new FL session (paper Fig. 4a)."""

    session_id: str
    model_name: str
    requester_id: str
    fl_rounds: int
    session_capacity_min: int
    session_capacity_max: int
    session_time_s: float = 3600.0
    waiting_time_s: float = 120.0
    preferred_role: str = "trainer"
    aggregation: str = "fedavg"

    def __post_init__(self) -> None:
        require_positive(self.fl_rounds, "fl_rounds")
        require_positive(self.session_capacity_min, "session_capacity_min")
        require_positive(self.session_capacity_max, "session_capacity_max")
        if self.session_capacity_max < self.session_capacity_min:
            raise ValueError(
                "session_capacity_max must be >= session_capacity_min "
                f"({self.session_capacity_max} < {self.session_capacity_min})"
            )
        require_positive(self.session_time_s, "session_time_s")
        require_positive(self.waiting_time_s, "waiting_time_s", strict=False)

    def to_dict(self) -> Dict[str, Any]:
        """Serialize for transmission."""
        return _to_dict(self)

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "SessionRequest":
        """Deserialize from a received payload."""
        return cls(**data)


@dataclass
class SessionAck:
    """Coordinator's answer to a session creation request."""

    session_id: str
    accepted: bool
    reason: str = ""

    def to_dict(self) -> Dict[str, Any]:
        return _to_dict(self)


@dataclass
class JoinRequest:
    """A client's request to join an existing session (paper Fig. 4b)."""

    session_id: str
    client_id: str
    model_name: str
    fl_rounds: int = 0
    preferred_role: str = "trainer"
    num_samples: int = 0

    def to_dict(self) -> Dict[str, Any]:
        return _to_dict(self)

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "JoinRequest":
        return cls(**data)


@dataclass
class JoinAck:
    """Coordinator's answer to a join request."""

    session_id: str
    client_id: str
    accepted: bool
    reason: str = ""
    contributors: int = 0

    def to_dict(self) -> Dict[str, Any]:
        return _to_dict(self)


@dataclass
class RoleAssignment:
    """The coordinator's ``set_role`` instruction to one client.

    Carries everything the client's role arbiter needs: the role itself, which
    aggregator to send results to (``parent_id``; ``None`` means publish to the
    parameter server), how many contributions to expect if aggregating
    (``expected_contributions``), the children's ids for traceability, and the
    hierarchy level (0 = root aggregator).
    """

    session_id: str
    client_id: str
    role: str
    round_index: int
    parent_id: Optional[str] = None
    expected_contributions: int = 0
    children: List[str] = field(default_factory=list)
    level: int = 0

    def to_dict(self) -> Dict[str, Any]:
        data = _to_dict(self)
        data["children"] = list(self.children)
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "RoleAssignment":
        return cls(**data)

    @property
    def role_enum(self) -> Role:
        """The role as the :class:`~repro.core.roles.Role` enum."""
        return Role(self.role)


@dataclass
class ClientStatsReport:
    """Per-round readiness + stats report a client sends to the coordinator."""

    session_id: str
    client_id: str
    round_index: int
    available_memory_bytes: int = 0
    cpu_load: float = 0.0
    bandwidth_bps: float = 0.0
    num_samples: int = 0
    train_loss: float = 0.0
    local_accuracy: float = 0.0

    def to_dict(self) -> Dict[str, Any]:
        return _to_dict(self)

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "ClientStatsReport":
        return cls(**data)
