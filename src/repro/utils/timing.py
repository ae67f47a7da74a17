"""Small wall-clock timing helpers used by the experiment harness."""

from __future__ import annotations

import time
from dataclasses import dataclass, field

__all__ = ["Stopwatch"]


@dataclass
class Stopwatch:
    """Accumulating stopwatch for measuring wall time of harness phases.

    The stopwatch can be started and stopped repeatedly; ``elapsed`` reports
    the total accumulated time.  It also works as a context manager.
    """

    _start: float | None = field(default=None, repr=False)
    _elapsed: float = 0.0

    def start(self) -> "Stopwatch":
        """Start (or resume) timing; returns ``self`` for chaining."""
        if self._start is None:
            self._start = time.perf_counter()
        return self

    def stop(self) -> float:
        """Stop timing and return the total elapsed seconds so far."""
        if self._start is not None:
            self._elapsed += time.perf_counter() - self._start
            self._start = None
        return self._elapsed

    @property
    def elapsed(self) -> float:
        """Total accumulated seconds (including the in-flight span if running)."""
        extra = 0.0 if self._start is None else time.perf_counter() - self._start
        return self._elapsed + extra

    def __enter__(self) -> "Stopwatch":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()
