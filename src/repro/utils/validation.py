"""Argument-validation helpers shared across the code base.

These exist so that public API entry points fail fast with clear messages
instead of deep numpy broadcasting errors later on, and so that identifiers
embedded in MQTT topics cannot contain topic separators.
"""

from __future__ import annotations

import re

__all__ = ["require_positive", "require_in_range", "validate_identifier"]

#: Characters allowed in client, session and function identifiers: they are
#: embedded in MQTT topics, so never ``/``, ``+``, ``#`` or whitespace.
_IDENTIFIER_RE = re.compile(r"^[A-Za-z0-9_.:\-]+$")


def require_positive(value: float, name: str, *, strict: bool = True) -> float:
    """Require that ``value`` is positive (strictly by default)."""
    if strict and value <= 0:
        raise ValueError(f"{name} must be > 0, got {value}")
    if not strict and value < 0:
        raise ValueError(f"{name} must be >= 0, got {value}")
    return value


def require_in_range(value: float, name: str, low: float, high: float, *, inclusive: bool = True) -> float:
    """Require ``low <= value <= high`` (or strict inequality if not inclusive)."""
    if inclusive:
        if not (low <= value <= high):
            raise ValueError(f"{name} must be in [{low}, {high}], got {value}")
    else:
        if not (low < value < high):
            raise ValueError(f"{name} must be in ({low}, {high}), got {value}")
    return value


def validate_identifier(identifier: str, kind: str = "identifier") -> str:
    """Validate and return a topic-safe ``identifier``; raise ``ValueError`` otherwise."""
    if not identifier or _IDENTIFIER_RE.match(identifier) is None:
        raise ValueError(
            f"invalid {kind} {identifier!r}: must be non-empty and contain only "
            "letters, digits, '_', '-', '.', ':'"
        )
    return identifier
