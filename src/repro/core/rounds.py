"""The round-lifecycle state machine.

Before this module existed, round state was smeared across three layers:
``FLSession`` counted ``round_index``/``restart_epochs``, the coordinator
bumped and broadcast them from three different handlers, every client mirrored
them in ``SessionParticipation`` fields, and the experiment harness kept its
own deadline arithmetic.  :class:`RoundLifecycle` centralizes the
*authoritative* (coordinator-side) state — the phase machine, the restart
epoch, the participant roster and the round-deadline timer — and emits typed
:class:`LifecycleEvent` notifications at every transition, which is what lets
the scenario layer anchor fault windows to *rounds and phases* instead of
absolute simulated seconds.

The phase machine::

                    begin_round                roles_announced
        IDLE ──────────────────▶ PLANNING ──────────────────▶ COLLECTING
                                    ▲                         │        │
                                    │ begin_round             │ restart│
                                    │ (next round)    resume  ▼        │
        COMPLETE ◀── ADVANCED ◀─── AGGREGATING       RESTARTED ◀───────┘
                 complete      advance      ▲  global_stored   │
                                            └──────────────────┘
                                                 (COLLECTING)

* ``PLANNING`` — the coordinator is (re)arranging roles for the round.
* ``COLLECTING`` — contributions are in flight through the aggregation tree.
* ``AGGREGATING`` — the round's global model is stored; the coordinator is
  waiting for every contributor's readiness report.
* ``ADVANCED`` — transient: the round was completed and accounted.
* ``RESTARTED`` — transient: a mid-round contributor loss bumped the restart
  epoch; the round re-enters ``COLLECTING`` under the re-planned topology.

Transitions are *strict*: an out-of-order call raises
:class:`RoundLifecycleError` and leaves the machine untouched, which is the
invariant the lifecycle property test hammers with random interleavings.

The client side of the protocol cannot share this object (clients only learn
about rounds through broadcasts), so :class:`ClientRoundView` packages the
*message-derived mirror* every client keeps per session — current round,
restart epoch, upload bookkeeping — together with the epoch-ordering rules
that used to be inlined in ``SDFLMQClient``.
"""

from __future__ import annotations

import enum
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.errors import SDFLMQError

__all__ = [
    "ClientRoundView",
    "LifecycleEvent",
    "PhaseTimer",
    "RoundLifecycle",
    "RoundLifecycleError",
    "RoundPhase",
    "ANCHOR_PHASES",
]


class RoundLifecycleError(SDFLMQError):
    """An invalid round-lifecycle transition was attempted."""


class RoundPhase(str, enum.Enum):
    """Phases a round moves through while its session is running."""

    IDLE = "idle"
    PLANNING = "planning"
    COLLECTING = "collecting"
    AGGREGATING = "aggregating"
    ADVANCED = "advanced"
    RESTARTED = "restarted"
    COMPLETE = "complete"


#: Phases a round-anchored fault window may name (``{"round": 2, "phase":
#: "collecting"}``).  The transient phases are excluded on purpose: a window
#: opening inside ``ADVANCED``/``RESTARTED`` would close before any message
#: moves, which is never what a scenario means.
ANCHOR_PHASES: Tuple[str, ...] = (
    RoundPhase.PLANNING.value,
    RoundPhase.COLLECTING.value,
    RoundPhase.AGGREGATING.value,
)

#: Legal phase transitions (from → allowed targets).  ``COMPLETE`` is
#: reachable from anywhere via :meth:`RoundLifecycle.complete` (session
#: termination is always legal) and therefore not listed per-phase.
_TRANSITIONS: Dict[RoundPhase, Tuple[RoundPhase, ...]] = {
    RoundPhase.IDLE: (RoundPhase.PLANNING,),
    RoundPhase.PLANNING: (RoundPhase.COLLECTING,),
    RoundPhase.COLLECTING: (RoundPhase.AGGREGATING, RoundPhase.RESTARTED),
    RoundPhase.AGGREGATING: (RoundPhase.ADVANCED,),
    RoundPhase.ADVANCED: (RoundPhase.PLANNING,),
    RoundPhase.RESTARTED: (RoundPhase.COLLECTING,),
    RoundPhase.COMPLETE: (),
}


class LifecycleEvent:
    """One typed notification emitted by the lifecycle.

    ``kind`` is one of ``phase`` (a phase transition), ``admit``/``drop``
    (roster changes), ``restart`` (epoch bump), ``advance`` (round
    accounted), ``deadline`` (the armed round deadline expired) or
    ``complete``.  ``phase``/``round_index``/``epoch`` always carry the
    post-transition state; ``at`` is the simulated time the transition
    committed (0.0 when the lifecycle has no clock attached), which is what
    the per-phase round timing is derived from.
    """

    __slots__ = ("kind", "session_id", "round_index", "phase", "epoch", "client_id", "at")

    def __init__(
        self,
        kind: str,
        session_id: str,
        round_index: int,
        phase: "RoundPhase",
        epoch: int,
        client_id: str = "",
        at: float = 0.0,
    ) -> None:
        self.kind = kind
        self.session_id = session_id
        self.round_index = int(round_index)
        self.phase = phase
        self.epoch = int(epoch)
        self.client_id = client_id
        self.at = float(at)


class RoundLifecycle:
    """Authoritative round state for one FL session.

    Owns the phase machine, the restart epoch, the participant roster (in
    join order — the load balancer's clustering is order-sensitive) and the
    round-deadline timer.  Every mutation goes through a named transition
    method; listeners registered with :meth:`subscribe` are called
    synchronously, in registration order, after the state change commits.

    >>> lifecycle = RoundLifecycle("s")
    >>> lifecycle.admit("a"); lifecycle.admit("b")
    >>> lifecycle.begin_round(0); lifecycle.roles_announced()
    >>> lifecycle.phase.value
    'collecting'
    >>> lifecycle.restart()
    1
    >>> lifecycle.resume(); lifecycle.global_stored(); lifecycle.advance()
    >>> lifecycle.phase.value, lifecycle.round_index, lifecycle.epoch
    ('advanced', 0, 1)
    """

    def __init__(self, session_id: str, clock: Optional[Callable[[], float]] = None) -> None:
        self.session_id = session_id
        self.phase: RoundPhase = RoundPhase.IDLE
        self.round_index = 0
        self.epoch = 0  # restart epochs broadcast so far
        self.deadline_at: Optional[float] = None
        #: Optional ``now()`` callable stamping every emitted event's ``at``
        #: (the coordinator wires its broker clock in here).  Without one,
        #: events carry ``at=0.0`` and phase timing degrades to zeros.
        self.clock = clock
        self._roster: List[str] = []
        self._listeners: List[Callable[[LifecycleEvent], None]] = []
        self.transitions = 0

    # ------------------------------------------------------------ subscribers

    def subscribe(self, listener: Callable[[LifecycleEvent], None]) -> None:
        """Register a listener called synchronously after every transition."""
        if listener not in self._listeners:
            self._listeners.append(listener)

    def _emit(self, kind: str, client_id: str = "") -> None:
        event = LifecycleEvent(
            kind=kind,
            session_id=self.session_id,
            round_index=self.round_index,
            phase=self.phase,
            epoch=self.epoch,
            client_id=client_id,
            at=self.clock() if self.clock is not None else 0.0,
        )
        for listener in list(self._listeners):
            listener(event)

    # ----------------------------------------------------------------- roster

    @property
    def roster(self) -> List[str]:
        """The participant roster, in join order (the live list)."""
        return self._roster

    def admit(self, client_id: str) -> None:
        """Add a participant to the roster (idempotent); emits ``admit``.

        Admission is legal in every phase but ``COMPLETE`` — tolerating
        additions *mid-round* (during ``COLLECTING``) is what lets the
        coordinator fold a flash-crowd joiner into a running round; the
        re-issued aggregator expected-counts ride on the same transition.
        """
        if self.phase is RoundPhase.COMPLETE:
            raise RoundLifecycleError(
                f"session {self.session_id!r} is complete; cannot admit {client_id!r}"
            )
        if client_id in self._roster:
            return
        self._roster.append(client_id)
        self._emit("admit", client_id=client_id)

    def drop(self, client_id: str) -> bool:
        """Remove a participant; returns True if present.  Emits ``drop``."""
        if client_id not in self._roster:
            return False
        self._roster.remove(client_id)
        self._emit("drop", client_id=client_id)
        return True

    # ------------------------------------------------------------ transitions

    def _move(self, target: RoundPhase) -> None:
        if target not in _TRANSITIONS[self.phase]:
            raise RoundLifecycleError(
                f"session {self.session_id!r}: illegal transition "
                f"{self.phase.value!r} -> {target.value!r} (round {self.round_index})"
            )
        self.phase = target
        self.transitions += 1

    def begin_round(self, round_index: int) -> None:
        """Enter ``PLANNING`` for ``round_index`` (session start or advance)."""
        round_index = int(round_index)
        if self.phase not in (RoundPhase.IDLE, RoundPhase.ADVANCED):
            raise RoundLifecycleError(
                f"session {self.session_id!r}: cannot begin round {round_index} "
                f"from phase {self.phase.value!r}"
            )
        if round_index < self.round_index:
            raise RoundLifecycleError(
                f"session {self.session_id!r}: round index must not rewind "
                f"({self.round_index} -> {round_index})"
            )
        self._move(RoundPhase.PLANNING)
        self.round_index = round_index
        self.deadline_at = None
        self._emit("phase")

    def roles_announced(self) -> None:
        """Roles for the round are out: ``PLANNING``/``RESTARTED`` → ``COLLECTING``."""
        self._move(RoundPhase.COLLECTING)
        self._emit("phase")

    def global_stored(self) -> None:
        """The round's global model landed: ``COLLECTING`` → ``AGGREGATING``."""
        self._move(RoundPhase.AGGREGATING)
        self._emit("phase")

    def restart(self) -> int:
        """Mid-round contributor loss: bump the epoch, enter ``RESTARTED``.

        Returns the new restart epoch (stamped into the ``round_restart``
        broadcast and echoed by clients in their re-sent contributions).
        Only legal from ``COLLECTING`` — once the round's global model is
        stored, a departure no longer invalidates in-flight aggregates.
        """
        if self.phase is not RoundPhase.COLLECTING:
            raise RoundLifecycleError(
                f"session {self.session_id!r}: restart is only legal while "
                f"collecting, not in phase {self.phase.value!r}"
            )
        self._move(RoundPhase.RESTARTED)
        self.epoch += 1
        self._emit("restart")
        return self.epoch

    def resume(self) -> None:
        """Re-enter ``COLLECTING`` after a restart's re-plan went out."""
        if self.phase is not RoundPhase.RESTARTED:
            raise RoundLifecycleError(
                f"session {self.session_id!r}: resume is only legal after a "
                f"restart, not in phase {self.phase.value!r}"
            )
        self._move(RoundPhase.COLLECTING)
        self._emit("phase")

    def advance(self) -> None:
        """The round is complete and accounted: ``AGGREGATING`` → ``ADVANCED``."""
        self._move(RoundPhase.ADVANCED)
        self.deadline_at = None
        self._emit("advance")

    def complete(self) -> None:
        """Terminal: round budget spent or session terminated (idempotent)."""
        if self.phase is RoundPhase.COMPLETE:
            return
        self.phase = RoundPhase.COMPLETE
        self.transitions += 1
        self.deadline_at = None
        self._emit("complete")

    # --------------------------------------------------------------- deadline

    def arm_deadline(self, now: float, budget_s: float) -> float:
        """Arm the round-deadline timer; returns the absolute deadline.

        The harness owns *enforcement* (draining the scheduler up to the
        deadline and cutting off stragglers); the lifecycle owns the timer
        itself so that the deadline, like every other piece of round state,
        has exactly one home.
        """
        if self.phase is not RoundPhase.COLLECTING:
            raise RoundLifecycleError(
                f"session {self.session_id!r}: a round deadline can only be "
                f"armed while collecting, not in phase {self.phase.value!r}"
            )
        self.deadline_at = float(now) + float(budget_s)
        return self.deadline_at

    def deadline_expired(self) -> None:
        """Note that the armed deadline passed unmet; emits ``deadline``."""
        if self.deadline_at is None:
            raise RoundLifecycleError(
                f"session {self.session_id!r}: no deadline armed"
            )
        self.deadline_at = None
        self._emit("deadline")


class PhaseTimer:
    """Per-round wall-of-simulation time spent in each lifecycle phase.

    Subscribe the timer to a :class:`RoundLifecycle`
    (``lifecycle.subscribe(timer.on_event)``) and it accumulates, per round
    index, the simulated seconds between phase entries — ``planning_s``
    (PLANNING entry → COLLECTING entry), ``collecting_s`` (COLLECTING →
    AGGREGATING, summed across restart re-entries) and ``aggregating_s``
    (AGGREGATING → ADVANCED/COMPLETE).  Durations are derived purely from
    the timestamps the lifecycle stamps on its events, so the timer works
    for any driver of the state machine.

    :meth:`exclude` lets a harness discount a synchronous clock jump that
    happens *inside* a phase but is accounted elsewhere — the experiment
    uses it to keep the analytic critical-path advance (already reported as
    ``round_delay_s``) out of ``aggregating_s``, leaving the phase columns
    as pure messaging/settling time next to ``messaging_s``.
    """

    #: Phases whose dwell time is reported (the transient and idle phases are
    #: deliberately excluded — nothing moves during them).
    TIMED_PHASES = (RoundPhase.PLANNING, RoundPhase.COLLECTING, RoundPhase.AGGREGATING)

    def __init__(self) -> None:
        self._times: Dict[int, Dict[str, float]] = {}
        self._active_phase: Optional[RoundPhase] = None
        self._active_round = 0
        self._since = 0.0

    def prime(self, phase: RoundPhase, round_index: int, at: float) -> None:
        """Open the initial interval from a lifecycle's *current* state.

        A timer subscribed to an already-running lifecycle (the experiment
        harness attaches after session setup) would otherwise miss the
        current phase's entry event and drop its dwell time.
        """
        self._active_phase = phase
        self._active_round = int(round_index)
        self._since = float(at)

    def on_event(self, event: LifecycleEvent) -> None:
        """Lifecycle listener: close the open phase interval and open the next."""
        if self._active_phase in self.TIMED_PHASES:
            bucket = self._times.setdefault(self._active_round, {})
            key = f"{self._active_phase.value}_s"
            bucket[key] = bucket.get(key, 0.0) + max(0.0, event.at - self._since)
        self._active_phase = event.phase
        self._active_round = event.round_index
        self._since = event.at

    def exclude(self, seconds: float) -> None:
        """Discount ``seconds`` of the currently open interval (clock jump)."""
        self._since += float(seconds)

    def round_times(self, round_index: int) -> Dict[str, float]:
        """``{planning_s, collecting_s, aggregating_s}`` for one round (zeros if unseen)."""
        bucket = self._times.get(int(round_index), {})
        return {
            "planning_s": float(bucket.get("planning_s", 0.0)),
            "collecting_s": float(bucket.get("collecting_s", 0.0)),
            "aggregating_s": float(bucket.get("aggregating_s", 0.0)),
        }


class ClientRoundView:
    """A client's message-derived mirror of one session's round lifecycle.

    Clients never see the coordinator's :class:`RoundLifecycle` directly —
    they learn about rounds, restarts and epochs exclusively through session
    broadcasts.  This view bundles that mirrored state (previously loose
    fields on ``SessionParticipation``) with the epoch-ordering rules that
    keep failure recovery deterministic:

    * rounds and epochs are monotonic (stale broadcasts never rewind them);
    * a ``round_restart`` notice is *new* only if its epoch exceeds the
      highest one processed, and
    * a buffered contribution is *stale* exactly when its epoch predates the
      view's restart epoch.
    """

    __slots__ = (
        "current_round",
        "restart_epoch",
        "awaited_global_version",
        "own_contribution_sent",
        "uploads_sent",
        "completed",
    )

    def __init__(self) -> None:
        self.current_round = 0
        self.restart_epoch = 0
        self.awaited_global_version = 0
        self.own_contribution_sent = False
        self.uploads_sent = 0
        self.completed = False

    # ------------------------------------------------------------- broadcasts

    def observe_round(self, round_index: int) -> int:
        """Adopt a broadcast round index (monotonic); returns the current round."""
        self.current_round = max(self.current_round, int(round_index))
        return self.current_round

    def observe_epoch(self, epoch: int) -> int:
        """Adopt a broadcast restart epoch (monotonic); returns the epoch.

        A client that (re)joined after a mid-round restart never saw the
        ``round_restart`` notice; syncing from the epoch piggybacked on
        ``cluster_topology``/``round_advanced`` broadcasts keeps its uploads
        from being discarded as pre-restart leftovers.
        """
        self.restart_epoch = max(self.restart_epoch, int(epoch))
        return self.restart_epoch

    def round_advanced(self, round_index: int, epoch: int = 0) -> None:
        """Process a ``round_advanced`` broadcast (monotonic, like all views)."""
        self.observe_round(round_index)
        self.own_contribution_sent = False
        self.observe_epoch(epoch)

    def observe_restart(self, round_index: int, epoch: int) -> bool:
        """Process a ``round_restart`` notice; returns False for duplicates.

        ``epoch`` orders restarts against contribution deliveries: an epoch
        at or below the highest processed one is a duplicate or out-of-date
        notice and must be ignored, otherwise a slow re-broadcast would wipe
        re-sent contributions that already superseded it.
        """
        if int(epoch) <= self.restart_epoch:
            return False
        self.restart_epoch = int(epoch)
        self.observe_round(round_index)
        self.own_contribution_sent = False
        return True

    # ------------------------------------------------------------ upload side

    def note_upload(self, global_version: int) -> None:
        """Record a local upload: await the next global version."""
        self.awaited_global_version = int(global_version) + 1
        self.uploads_sent += 1

    def awaiting_global(self, installed_version: int) -> bool:
        """Whether the client still waits for a global update it asked for."""
        return int(installed_version) < self.awaited_global_version
