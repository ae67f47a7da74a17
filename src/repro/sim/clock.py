"""Logical simulation clock.

All simulated delays (training, aggregation, message transfer) advance this
clock explicitly; nothing in the reproduction sleeps on wall time.  The clock
is deliberately tiny — the interesting logic lives in the cost models — but it
is a distinct object so that the broker, the runtime and the event log all
observe a single consistent notion of "now".
"""

from __future__ import annotations

__all__ = ["SimulationClock"]


class SimulationClock:
    """Monotonically advancing logical clock measured in seconds."""

    def __init__(self, start: float = 0.0) -> None:
        if start < 0:
            raise ValueError(f"start time must be non-negative, got {start}")
        self._now = float(start)

    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    def advance(self, seconds: float) -> float:
        """Advance the clock by ``seconds`` (must be non-negative); returns the new time."""
        if seconds < 0:
            raise ValueError(f"cannot advance the clock by a negative duration ({seconds})")
        self._now += float(seconds)
        return self._now

    def advance_to(self, timestamp: float) -> float:
        """Advance the clock to ``timestamp`` if it is in the future; never rewinds."""
        if timestamp > self._now:
            self._now = float(timestamp)
        return self._now
