"""Fault injection on the event scheduler.

:class:`FaultInjector` compiles a scenario's :class:`~repro.scenarios.spec.FaultSpec`
plan into timed actions (``EventScheduler.call_at``), so faults interleave
with in-flight message deliveries in strict simulated-time order:

* ``broker_slowdown`` scales the shared :class:`~repro.mqtt.network.NetworkModel`'s
  per-message/per-byte processing cost for the window;
* ``link_degradation`` / ``client_slow`` push a degraded
  :class:`~repro.mqtt.network.LinkProfile` override onto the targeted
  clients' links and pop it when the window closes;
* ``client_crash`` ungracefully disconnects the targets (their last-will
  fires, the coordinator re-plans the survivors) and, with ``rejoin=True``,
  queues them for re-admission — at the first round boundary after the
  outage, or mid-round when the scenario's admission policy allows it.

*Wall-anchored* faults are registered at :meth:`bind` time.  *Round-anchored*
faults (``round``/``phase`` on the spec) are compiled lazily: the injector
subscribes to the experiment's
:class:`~repro.core.rounds.RoundLifecycle` and, when the anchored
(round, phase) is first entered, schedules the fault's ``call_at`` actions
relative to that instant.  Because lifecycle events fire synchronously inside
a coordinator dispatch and ``call_at`` actions sort ahead of deliveries due
at the same time, the compiled windows interleave deterministically with the
round's traffic.

Every transition is recorded in the experiment's
:class:`~repro.sim.events.EventLog` as ``fault_start`` / ``fault_end``, so
the trace shows exactly when each fault took effect.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Sequence, Tuple

from repro.core.rounds import ANCHOR_PHASES, LifecycleEvent
from repro.scenarios.spec import FaultSpec

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.runtime.experiment import FLExperiment

__all__ = ["FaultInjector"]


class FaultInjector:
    """Binds a fault plan onto an experiment's event scheduler.

    The scenario compiler constructs and binds one injector per compiled
    scenario; it can also be used standalone to instrument a hand-built
    experiment:

    >>> from repro.runtime.experiment import ExperimentConfig, FLExperiment
    >>> from repro.scenarios import FaultSpec, FaultInjector
    >>> experiment = FLExperiment(ExperimentConfig(num_clients=4)).setup()  # doctest: +SKIP
    >>> injector = FaultInjector(experiment, [
    ...     FaultSpec(kind="broker_slowdown", start_s=1.0, duration_s=2.0, factor=50.0),
    ...     FaultSpec(kind="broker_slowdown", round=1, phase="collecting",
    ...               duration_s=0.5, factor=20.0),
    ... ])                                                                  # doctest: +SKIP
    >>> injector.bind()                                                     # doctest: +SKIP
    2
    >>> experiment.scheduler.run_until_time(1.5)  # wall window now open    # doctest: +SKIP

    Counters (``faults_started``, ``faults_ended``, ``crashes_injected``)
    expose what actually fired, and every transition is recorded in the
    experiment's event log.

    ``mid_round_admission`` switches post-crash rejoins from round-boundary
    queueing to timed mid-round admission via
    :meth:`~repro.runtime.experiment.FLExperiment.admit_client_mid_round`.
    """

    def __init__(
        self,
        experiment: "FLExperiment",
        faults: Sequence[FaultSpec],
        mid_round_admission: bool = False,
    ) -> None:
        self.experiment = experiment
        self.faults: Tuple[FaultSpec, ...] = tuple(faults)
        self.mid_round_admission = bool(mid_round_admission)
        self.faults_started = 0
        self.faults_ended = 0
        self.crashes_injected = 0
        self.anchors_fired = 0
        #: Optional sim-time tracer (repro.obs): fault windows become spans,
        #: crashes become anomaly dump triggers.  Attached by the scenario
        #: runner after ``bind()``; handlers fire later in sim time, so even
        #: wall-anchored windows are traced.
        self.tracer = None
        #: (due_time, client_id) pairs awaiting re-admission at a round boundary.
        self._pending_rejoins: List[Tuple[float, str]] = []
        #: The exact profile instances each degradation window pushed, keyed by
        #: the fault's position in the plan, so overlapping windows on the same
        #: client restore correctly when they end out of push order.
        self._pushed_profiles: dict = {}
        #: Round-anchored faults not yet triggered, keyed by (round, phase).
        self._anchored: Dict[Tuple[int, str], List[FaultSpec]] = {}
        self._bound = False

    # ------------------------------------------------------------------ bind

    def bind(self) -> int:
        """Register the fault plan; returns the number of faults bound.

        Wall-anchored faults become timed scheduler actions immediately (the
        scenario compiler calls this right after ``FLExperiment.setup()``, so
        the plan sits in the heap before the first round drains).
        Round-anchored faults are parked on a lifecycle subscription and
        scheduled when their (round, phase) anchor is first entered.
        """
        if self._bound:
            raise RuntimeError("fault plan is already bound to the scheduler")
        self._bound = True
        for fault in self.faults:
            if fault.is_round_anchored:
                if self._anchor_passed(fault):
                    # setup() already drove the lifecycle into round 0's
                    # collecting phase before the plan was bound; an anchor
                    # that points at or before the current (round, phase)
                    # opens immediately.
                    self._schedule_fault(fault, base=self.experiment.scheduler.now())
                    self.anchors_fired += 1
                else:
                    key = (int(fault.round or 0), fault.phase)
                    self._anchored.setdefault(key, []).append(fault)
            else:
                self._schedule_fault(fault, base=0.0)
        if self._anchored:
            self.experiment.lifecycle.subscribe(self._on_lifecycle_event)
        return len(self.faults)

    #: Ordering of the anchorable phases within one round (derived from the
    #: canonical tuple so the two can never drift apart).
    _PHASE_RANK = {phase: rank for rank, phase in enumerate(ANCHOR_PHASES)}

    def _anchor_passed(self, fault: FaultSpec) -> bool:
        """Whether the lifecycle already entered ``fault``'s (round, phase)."""
        lifecycle = self.experiment.lifecycle
        anchor_round = int(fault.round or 0)
        if lifecycle.round_index != anchor_round:
            return lifecycle.round_index > anchor_round
        current = self._PHASE_RANK.get(lifecycle.phase.value)
        if current is None:
            return False  # transient/idle phase: the anchor is still ahead
        return current >= self._PHASE_RANK[fault.phase]

    def _schedule_fault(self, fault: FaultSpec, base: float) -> None:
        """Register one fault's ``call_at`` actions at ``base`` + its offsets."""
        scheduler = self.experiment.scheduler
        start = base + fault.start_s
        end = base + fault.end_s
        if fault.kind == "broker_slowdown":
            scheduler.call_at(start, lambda f=fault: self._start_slowdown(f))
            scheduler.call_at(end, lambda f=fault: self._end_slowdown(f))
        elif fault.kind in ("link_degradation", "client_slow"):
            scheduler.call_at(start, lambda f=fault: self._start_degradation(f))
            scheduler.call_at(end, lambda f=fault: self._end_degradation(f))
        else:  # client_crash
            scheduler.call_at(start, lambda f=fault, b=base: self._crash(f, base=b))

    def _on_lifecycle_event(self, event: LifecycleEvent) -> None:
        """Compile the round-anchored faults whose anchor was just entered."""
        if event.kind != "phase":
            return
        key = (event.round_index, event.phase.value)
        faults = self._anchored.pop(key, None)
        if not faults:
            return
        # Anchors fire at most once: a restart re-enters COLLECTING for the
        # same round, but the window it already opened stays opened.
        now = self.experiment.scheduler.now()
        for fault in faults:
            self.anchors_fired += 1
            self._schedule_fault(fault, base=now)

    def due_rejoins(self, now: float) -> List[str]:
        """Pop the clients whose post-crash outage ended by ``now``.

        The scenario runner calls this at every round boundary and re-admits
        the returned clients via ``FLExperiment.admit_client`` (with the
        default ``round_boundary`` admission policy, re-admission mid-round
        would leave an aggregator waiting on a missing upload).
        """
        due = sorted(
            (when, cid) for when, cid in self._pending_rejoins if when <= now
        )
        self._pending_rejoins = [
            (when, cid) for when, cid in self._pending_rejoins if when > now
        ]
        return [cid for _, cid in due]

    # -------------------------------------------------------------- handlers

    def _log(self, kind: str, fault: FaultSpec, detail: str) -> None:
        now = self.experiment.clock.now()
        self.experiment.event_log.record(
            timestamp=now,
            kind=kind,
            actor=fault.kind,
            detail=detail or fault.detail,
        )
        if self.tracer is not None:
            self.tracer.instant(
                kind, "fault", ts=now, args={"fault": fault.kind, "detail": detail}
            )

    def _trace_window(self, fault: FaultSpec) -> None:
        """Emit the fault's full window as one span (start handler knows both ends)."""
        if self.tracer is None:
            return
        now = self.experiment.clock.now()
        self.tracer.complete(
            fault.kind,
            "fault",
            now,
            now + max(0.0, fault.end_s - fault.start_s),
            args={"detail": fault.detail},
        )

    def _start_slowdown(self, fault: FaultSpec) -> None:
        self.experiment.network.scale_broker_processing(fault.factor)
        self.faults_started += 1
        self._trace_window(fault)
        self._log("fault_start", fault, f"broker processing x{fault.factor}")

    def _end_slowdown(self, fault: FaultSpec) -> None:
        self.experiment.network.scale_broker_processing(1.0 / fault.factor)
        self.faults_ended += 1
        self._log("fault_end", fault, "broker processing restored")

    def _targets(self, fault: FaultSpec) -> Tuple[str, ...]:
        if fault.clients:
            return fault.clients
        return tuple(self.experiment.fleet.device_ids)

    def _start_degradation(self, fault: FaultSpec) -> None:
        network = self.experiment.network
        pushed = {}
        for client_id in self._targets(fault):
            profile = network.degraded_profile(
                client_id,
                bandwidth_factor=fault.factor,
                latency_add_s=fault.latency_add_s,
            )
            network.push_link_override(client_id, profile)
            pushed[client_id] = profile
        self._pushed_profiles[id(fault)] = pushed
        self.faults_started += 1
        self._trace_window(fault)
        self._log(
            "fault_start",
            fault,
            f"links degraded x{fault.factor} for {len(self._targets(fault))} client(s)",
        )

    def _end_degradation(self, fault: FaultSpec) -> None:
        network = self.experiment.network
        pushed = self._pushed_profiles.pop(id(fault), {})
        for client_id, profile in pushed.items():
            network.pop_link_override(client_id, profile)
        self.faults_ended += 1
        self._log("fault_end", fault, "links restored")

    def _crash(self, fault: FaultSpec, base: float = 0.0) -> None:
        crashed = []
        rejoin_at = base + fault.end_s
        for client_id in self._targets(fault):
            client = self.experiment.client_by_id(client_id)
            if not client.mqtt.connected:
                continue  # already gone (churn/cut-off); don't resurrect it
            self.experiment.crash_client(client_id)
            self.crashes_injected += 1
            crashed.append(client_id)
            if fault.rejoin:
                if self.mid_round_admission:
                    self.experiment.scheduler.call_at(
                        rejoin_at,
                        lambda cid=client_id: self.experiment.admit_client_mid_round(cid),
                    )
                else:
                    self._pending_rejoins.append((rejoin_at, client_id))
        self.faults_started += 1
        self.faults_ended += 1
        if self.tracer is not None and crashed:
            self.tracer.note_anomaly(
                "client-crash", args={"clients": ",".join(crashed)}
            )
        self._log("fault_start", fault, f"crashed {','.join(crashed) or '(nobody)'}")
