"""FL session state held by the coordinator.

A session (paper §III.E.1) is created when a client requests global updating
for a model, tracks the contributing clients, the round counter, the current
cluster topology, and terminates when either the round budget or the session
time budget is exhausted.

All *round* state — the phase machine, the round counter, the restart epoch
and the participant roster — lives in the session's
:class:`~repro.core.rounds.RoundLifecycle`; :class:`FLSession` adds the
session-scoped envelope (capacity window, stats reports, global-version
bookkeeping, the time budget) and delegates the rest, so the round state has
exactly one home.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

from repro.core.clustering import ClusterTopology
from repro.core.errors import SessionError, SessionFullError
from repro.core.messages import ClientStatsReport, SessionRequest
from repro.core.rounds import RoundLifecycle, RoundPhase
from repro.sim.device import DeviceStats

__all__ = ["SessionState", "FLSession"]


class SessionState(str, enum.Enum):
    """Lifecycle states of an FL session."""

    WAITING_FOR_CONTRIBUTORS = "waiting"
    READY = "ready"
    RUNNING = "running"
    COMPLETED = "completed"
    TERMINATED = "terminated"


@dataclass
class FLSession:
    """Coordinator-side record of one federated learning session."""

    request: SessionRequest
    created_at: float = 0.0
    state: SessionState = SessionState.WAITING_FOR_CONTRIBUTORS
    preferred_roles: Dict[str, str] = field(default_factory=dict)
    client_samples: Dict[str, int] = field(default_factory=dict)
    topology: Optional[ClusterTopology] = None
    stats: Dict[str, DeviceStats] = field(default_factory=dict)
    round_reports: Dict[int, Set[str]] = field(default_factory=dict)
    global_versions: int = 0
    completed_rounds: int = 0
    #: The round-lifecycle state machine: phase transitions, round counter,
    #: restart epoch and the participant roster all live here.
    lifecycle: RoundLifecycle = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.lifecycle = RoundLifecycle(self.request.session_id)

    # ------------------------------------------------------------- properties

    @property
    def session_id(self) -> str:
        """Identifier of the session."""
        return self.request.session_id

    @property
    def capacity_min(self) -> int:
        """Minimum number of contributors before the session can start."""
        return self.request.session_capacity_min

    @property
    def capacity_max(self) -> int:
        """Maximum number of contributors the session accepts."""
        return self.request.session_capacity_max

    @property
    def fl_rounds(self) -> int:
        """Total number of FL rounds this session will run."""
        return self.request.fl_rounds

    @property
    def contributors(self) -> List[str]:
        """Contributing clients in join order (the lifecycle's live roster)."""
        return self.lifecycle.roster

    @property
    def round_index(self) -> int:
        """The round the session is currently in (delegated to the lifecycle)."""
        return self.lifecycle.round_index

    @property
    def restart_epochs(self) -> int:
        """Number of mid-round restarts broadcast so far.

        Stamped into every ``round_restart`` notice (and echoed by clients in
        their re-sent contributions) so aggregators can tell a post-restart
        re-send from a stale pre-restart contribution regardless of delivery
        interleaving.
        """
        return self.lifecycle.epoch

    @property
    def is_full(self) -> bool:
        """Whether the session reached its maximum capacity."""
        return len(self.contributors) >= self.capacity_max

    @property
    def has_quorum(self) -> bool:
        """Whether enough contributors joined for the session to start."""
        return len(self.contributors) >= self.capacity_min

    @property
    def is_active(self) -> bool:
        """Whether the session is still accepting work (not completed/terminated)."""
        return self.state in (
            SessionState.WAITING_FOR_CONTRIBUTORS,
            SessionState.READY,
            SessionState.RUNNING,
        )

    # ------------------------------------------------------------ membership

    def add_contributor(self, client_id: str, preferred_role: str = "trainer", num_samples: int = 0) -> int:
        """Add a contributor; returns the contributor count after joining.

        Admission is delegated to the lifecycle roster, which tolerates late
        additions mid-round (the ADMIT transition) — capacity and session
        activity are still enforced here.
        """
        if not self.is_active:
            raise SessionError(f"session {self.session_id!r} is not accepting contributors")
        if client_id in self.contributors:
            return len(self.contributors)
        if self.is_full:
            raise SessionFullError(
                f"session {self.session_id!r} is full ({self.capacity_max} contributors)"
            )
        self.lifecycle.admit(client_id)
        self.preferred_roles[client_id] = preferred_role
        self.client_samples[client_id] = int(num_samples)
        if self.has_quorum and self.state == SessionState.WAITING_FOR_CONTRIBUTORS:
            self.state = SessionState.READY
        return len(self.contributors)

    def remove_contributor(self, client_id: str) -> bool:
        """Remove a contributor (e.g. it disconnected); returns True if present."""
        if not self.lifecycle.drop(client_id):
            return False
        self.preferred_roles.pop(client_id, None)
        self.client_samples.pop(client_id, None)
        if not self.has_quorum and self.state == SessionState.READY:
            self.state = SessionState.WAITING_FOR_CONTRIBUTORS
        return True

    # ---------------------------------------------------------------- rounds

    def begin(self) -> None:
        """Transition to RUNNING (requires quorum) and open round 0."""
        if not self.has_quorum:
            raise SessionError(
                f"session {self.session_id!r} needs {self.capacity_min} contributors, "
                f"has {len(self.contributors)}"
            )
        self.state = SessionState.RUNNING
        self.lifecycle.begin_round(0)

    def record_stats(self, report: ClientStatsReport) -> None:
        """Store a client's per-round stats report."""
        self.stats[report.client_id] = DeviceStats(
            device_id=report.client_id,
            round_index=report.round_index,
            available_memory_bytes=report.available_memory_bytes,
            cpu_load=report.cpu_load,
            bandwidth_bps=report.bandwidth_bps,
        )
        self.round_reports.setdefault(report.round_index, set()).add(report.client_id)

    def round_ready(self, round_index: int) -> bool:
        """Whether every contributor reported readiness for ``round_index``."""
        reported = self.round_reports.get(round_index, set())
        return set(self.contributors).issubset(reported)

    def note_global_update(self) -> int:
        """Record that a global model version was produced; returns the count."""
        self.global_versions += 1
        if self.lifecycle.phase is RoundPhase.COLLECTING:
            self.lifecycle.global_stored()
        return self.global_versions

    def _fast_forward_lifecycle(self) -> None:
        """Catch the lifecycle up to AGGREGATING for a direct round advance.

        The coordinator reports every phase transition as it happens, but a
        session can also be driven directly (tests, simple harnesses) with
        ``begin()``/``advance_round()`` alone — fast-forward through the
        intermediate phases so the strict machine accepts the advance.
        """
        if self.lifecycle.phase is RoundPhase.PLANNING:
            self.lifecycle.roles_announced()
        if self.lifecycle.phase is RoundPhase.RESTARTED:
            self.lifecycle.resume()
        if self.lifecycle.phase is RoundPhase.COLLECTING:
            self.lifecycle.global_stored()

    def advance_round(self) -> int:
        """Mark the current round complete; returns the next round index.

        Transitions the session to COMPLETED once the round budget is spent.
        """
        if self.state != SessionState.RUNNING:
            raise SessionError(f"cannot advance a session in state {self.state.value!r}")
        self._fast_forward_lifecycle()
        self.lifecycle.advance()
        self.completed_rounds += 1
        next_round = self.lifecycle.round_index + 1
        if self.completed_rounds >= self.fl_rounds:
            # Budget spent: close out without opening a phantom round (a
            # PLANNING event for a round that never runs would reach
            # lifecycle subscribers).  The counter still advances so callers
            # observe round_index == fl_rounds after the final round.
            self.state = SessionState.COMPLETED
            self.lifecycle.round_index = next_round
            self.lifecycle.complete()
        else:
            self.lifecycle.begin_round(next_round)
        return self.lifecycle.round_index

    def terminate(self, reason: str = "") -> None:
        """Force-terminate the session (time budget exhausted, operator action)."""
        if self.state in (SessionState.COMPLETED, SessionState.TERMINATED):
            return
        self.state = SessionState.TERMINATED
        self.lifecycle.complete()
        _ = reason  # retained for future structured logging
