"""Exception hierarchy for the SDFLMQ core."""

from __future__ import annotations

__all__ = [
    "SDFLMQError",
    "SessionError",
    "SessionFullError",
    "SessionNotFoundError",
    "RoleError",
    "AggregationError",
    "ModelNotRegisteredError",
]


class SDFLMQError(Exception):
    """Base class for all SDFLMQ framework errors."""


class SessionError(SDFLMQError):
    """Problems with FL session lifecycle."""


class SessionFullError(SessionError):
    """Raised when a client attempts to join a session at maximum capacity."""


class SessionNotFoundError(SessionError, KeyError):
    """Raised when an operation references an unknown session id."""


class RoleError(SDFLMQError):
    """Raised on inconsistent role transitions or role-topic bookkeeping."""


class AggregationError(SDFLMQError):
    """Raised when an aggregation cannot be performed (empty input, shape mismatch)."""


class ModelNotRegisteredError(SDFLMQError, KeyError):
    """Raised when a client references a model it never registered for a session."""
