"""Property-based randomized tests for the round-lifecycle state machine.

Two generators hammer :class:`~repro.core.rounds.RoundLifecycle`:

* a *coordinator-shaped* driver replays hundreds of random interleavings of
  the events a real session sees — joins, crashes (with and without
  mid-round restarts), deadline arm/expire cycles, global stores, round
  advances — and asserts the machine never enters an invalid phase, never
  rewinds its round or epoch, and is never *stuck* (an active lifecycle
  always has at least one legal continuation);
* a *fuzzer* calls transition methods uniformly at random and checks every
  call against the declared transition table — a legal call must move
  exactly as the table says, an illegal one must raise
  :class:`~repro.core.rounds.RoundLifecycleError` and leave the whole state
  (phase, round, epoch, deadline, roster) untouched.
"""

from __future__ import annotations

import random

import pytest

from repro.core.rounds import (
    LifecycleEvent,
    RoundLifecycle,
    RoundLifecycleError,
    RoundPhase,
)

NUM_INTERLEAVINGS = 200
STEPS_PER_RUN = 120
NUM_FUZZ_RUNS = 150
FUZZ_STEPS = 80


def _snapshot(lifecycle: RoundLifecycle):
    return (
        lifecycle.phase,
        lifecycle.round_index,
        lifecycle.epoch,
        lifecycle.deadline_at,
        tuple(lifecycle.roster),
    )


def _enabled_ops(lifecycle: RoundLifecycle) -> list:
    """Names of the transition methods legal in the current state."""
    ops = []
    phase = lifecycle.phase
    if phase in (RoundPhase.IDLE, RoundPhase.ADVANCED):
        ops.append("begin_round")
    if phase in (RoundPhase.PLANNING, RoundPhase.RESTARTED):
        ops.append("roles_announced" if phase is RoundPhase.PLANNING else "resume")
    if phase is RoundPhase.COLLECTING:
        ops.extend(["global_stored", "restart", "arm_deadline"])
    if phase is RoundPhase.AGGREGATING:
        ops.append("advance")
    if phase is not RoundPhase.COMPLETE:
        ops.append("admit")
    return ops


class TestCoordinatorShapedInterleavings:
    """Random joins / crashes / deadlines / restarts never corrupt the machine."""

    def test_random_event_interleavings(self):
        rng = random.Random(20260728)
        for run in range(NUM_INTERLEAVINGS):
            lifecycle = RoundLifecycle(f"run_{run}")
            events: list[LifecycleEvent] = []
            lifecycle.subscribe(events.append)
            next_client = 0
            for _ in range(rng.randint(2, 5)):
                lifecycle.admit(f"c{next_client}")
                next_client += 1
            lifecycle.begin_round(0)
            lifecycle.roles_announced()

            last_round = lifecycle.round_index
            last_epoch = lifecycle.epoch
            for _ in range(STEPS_PER_RUN):
                if lifecycle.phase is RoundPhase.COMPLETE:
                    break
                op = rng.choice(_enabled_ops(lifecycle))
                if op == "admit":
                    # Mid-round joins are legal in every active phase — that
                    # is the ADMIT tolerance the scenario layer relies on.
                    lifecycle.admit(f"c{next_client}")
                    next_client += 1
                elif op == "begin_round":
                    lifecycle.begin_round(lifecycle.round_index + rng.randint(0, 1))
                elif op == "roles_announced":
                    lifecycle.roles_announced()
                elif op == "resume":
                    lifecycle.resume()
                elif op == "global_stored":
                    lifecycle.global_stored()
                elif op == "restart":
                    # A crash mid-collection: drop someone (if anyone is
                    # left), bump the epoch, re-plan, resume collecting.
                    if lifecycle.roster and rng.random() < 0.8:
                        lifecycle.drop(rng.choice(lifecycle.roster))
                    before = lifecycle.epoch
                    assert lifecycle.restart() == before + 1
                    lifecycle.resume()
                elif op == "arm_deadline":
                    deadline = lifecycle.arm_deadline(float(lifecycle.round_index), 5.0)
                    assert deadline == lifecycle.deadline_at
                    if rng.random() < 0.5:
                        lifecycle.deadline_expired()
                        assert lifecycle.deadline_at is None
                elif op == "advance":
                    lifecycle.advance()
                    if rng.random() < 0.1:
                        lifecycle.complete()

                # Invariants that must hold after every step.
                assert lifecycle.phase in RoundPhase
                assert lifecycle.round_index >= last_round, "round rewound"
                assert lifecycle.epoch >= last_epoch, "epoch rewound"
                assert len(set(lifecycle.roster)) == len(lifecycle.roster), "roster duplicated"
                if lifecycle.phase is not RoundPhase.COMPLETE:
                    assert _enabled_ops(lifecycle), (
                        f"stuck: no legal continuation from {lifecycle.phase}"
                    )
                last_round = lifecycle.round_index
                last_epoch = lifecycle.epoch

            # Every emitted event carries the post-transition state.
            for event in events:
                assert event.session_id == f"run_{run}"
                assert event.round_index >= 0
                assert event.epoch >= 0
                assert isinstance(event.phase, RoundPhase)

    def test_any_active_state_can_reach_advanced(self):
        """From every state a random run lands in, the round can still finish."""
        rng = random.Random(7)
        for _ in range(50):
            lifecycle = RoundLifecycle("finish")
            lifecycle.admit("a")
            lifecycle.begin_round(0)
            lifecycle.roles_announced()
            for _ in range(rng.randint(0, 30)):
                op = rng.choice(_enabled_ops(lifecycle))
                if op == "restart":
                    lifecycle.restart(), lifecycle.resume()
                elif op == "begin_round":
                    lifecycle.begin_round(lifecycle.round_index + 1)
                elif op == "admit":
                    lifecycle.admit(f"x{rng.random()}")
                elif op == "arm_deadline":
                    lifecycle.arm_deadline(0.0, 1.0)
                else:
                    getattr(lifecycle, op)()
            # Finisher: drive whatever phase we are in to ADVANCED.
            if lifecycle.phase is RoundPhase.PLANNING:
                lifecycle.roles_announced()
            if lifecycle.phase is RoundPhase.RESTARTED:
                lifecycle.resume()
            if lifecycle.phase is RoundPhase.COLLECTING:
                lifecycle.global_stored()
            if lifecycle.phase is RoundPhase.AGGREGATING:
                lifecycle.advance()
            if lifecycle.phase is RoundPhase.ADVANCED:
                continue
            assert lifecycle.phase is RoundPhase.COMPLETE  # only other terminal


class TestTransitionTableFuzz:
    """Uniformly random transition calls obey the declared table exactly."""

    #: op name -> (legal source phases, target phase)
    TABLE = {
        "roles_announced": ({RoundPhase.PLANNING, RoundPhase.RESTARTED}, RoundPhase.COLLECTING),
        "global_stored": ({RoundPhase.COLLECTING}, RoundPhase.AGGREGATING),
        "restart": ({RoundPhase.COLLECTING}, RoundPhase.RESTARTED),
        "resume": ({RoundPhase.RESTARTED}, RoundPhase.COLLECTING),
        "advance": ({RoundPhase.AGGREGATING}, RoundPhase.ADVANCED),
        "begin_round": ({RoundPhase.IDLE, RoundPhase.ADVANCED}, RoundPhase.PLANNING),
    }

    def test_fuzzed_transitions_match_the_table(self):
        rng = random.Random(99)
        for _ in range(NUM_FUZZ_RUNS):
            lifecycle = RoundLifecycle("fuzz")
            lifecycle.admit("c0")
            for _ in range(FUZZ_STEPS):
                op = rng.choice(list(self.TABLE))
                sources, target = self.TABLE[op]
                before = _snapshot(lifecycle)
                legal = lifecycle.phase in sources
                try:
                    if op == "begin_round":
                        lifecycle.begin_round(lifecycle.round_index + 1)
                    else:
                        getattr(lifecycle, op)()
                except RoundLifecycleError:
                    assert not legal, f"{op} raised from legal phase {before[0]}"
                    assert _snapshot(lifecycle) == before, (
                        f"failed {op} mutated state: {before} -> {_snapshot(lifecycle)}"
                    )
                else:
                    assert legal, f"{op} accepted from illegal phase {before[0]}"
                    assert lifecycle.phase is target

    def test_restart_only_from_collecting_and_epoch_is_monotonic(self):
        lifecycle = RoundLifecycle("s")
        lifecycle.admit("a")
        lifecycle.begin_round(0)
        with pytest.raises(RoundLifecycleError):
            lifecycle.restart()  # still planning
        lifecycle.roles_announced()
        assert lifecycle.restart() == 1
        with pytest.raises(RoundLifecycleError):
            lifecycle.restart()  # already restarted; must resume first
        lifecycle.resume()
        assert lifecycle.restart() == 2

    def test_admit_rejected_only_when_complete(self):
        lifecycle = RoundLifecycle("s")
        lifecycle.admit("a")
        lifecycle.begin_round(0)
        lifecycle.roles_announced()
        lifecycle.admit("mid_round_joiner")  # legal while collecting
        assert "mid_round_joiner" in lifecycle.roster
        lifecycle.complete()
        with pytest.raises(RoundLifecycleError):
            lifecycle.admit("too_late")

    def test_deadline_requires_collecting_and_clears_on_advance(self):
        lifecycle = RoundLifecycle("s")
        lifecycle.admit("a")
        lifecycle.begin_round(0)
        with pytest.raises(RoundLifecycleError):
            lifecycle.arm_deadline(0.0, 5.0)
        lifecycle.roles_announced()
        assert lifecycle.arm_deadline(1.0, 5.0) == 6.0
        lifecycle.global_stored()
        lifecycle.advance()
        assert lifecycle.deadline_at is None
        with pytest.raises(RoundLifecycleError):
            lifecycle.deadline_expired()


class TestPhaseTimer:
    """Per-phase dwell-time accounting over timestamped lifecycle events."""

    def _lifecycle_with_clock(self):
        from repro.core.rounds import PhaseTimer, RoundLifecycle

        times = {"now": 0.0}
        lifecycle = RoundLifecycle("s", clock=lambda: times["now"])
        timer = PhaseTimer()
        lifecycle.subscribe(timer.on_event)
        return lifecycle, timer, times

    def test_phase_durations_accumulate(self):
        lifecycle, timer, times = self._lifecycle_with_clock()
        lifecycle.admit("a")
        lifecycle.begin_round(0)        # PLANNING enters at t=0
        times["now"] = 1.5
        lifecycle.roles_announced()     # COLLECTING enters at 1.5
        times["now"] = 5.0
        lifecycle.global_stored()       # AGGREGATING enters at 5.0
        times["now"] = 5.75
        lifecycle.advance()
        breakdown = timer.round_times(0)
        assert breakdown == {"planning_s": 1.5, "collecting_s": 3.5, "aggregating_s": 0.75}

    def test_restart_reentry_sums_collecting(self):
        lifecycle, timer, times = self._lifecycle_with_clock()
        lifecycle.admit("a")
        lifecycle.begin_round(0)
        lifecycle.roles_announced()     # COLLECTING at 0
        times["now"] = 2.0
        lifecycle.restart()             # leaves COLLECTING at 2.0
        times["now"] = 2.5
        lifecycle.resume()              # re-enters COLLECTING at 2.5
        times["now"] = 4.0
        lifecycle.global_stored()       # +1.5
        times["now"] = 4.5
        lifecycle.advance()
        breakdown = timer.round_times(0)
        assert breakdown["collecting_s"] == pytest.approx(3.5)
        assert breakdown["aggregating_s"] == pytest.approx(0.5)

    def test_exclude_discounts_clock_jumps(self):
        lifecycle, timer, times = self._lifecycle_with_clock()
        lifecycle.admit("a")
        lifecycle.begin_round(0)
        lifecycle.roles_announced()
        times["now"] = 10.0             # 8s of this is an analytic jump
        timer.exclude(8.0)
        lifecycle.global_stored()
        lifecycle.advance()
        assert timer.round_times(0)["collecting_s"] == pytest.approx(2.0)

    def test_prime_opens_the_current_phase(self):
        from repro.core.rounds import PhaseTimer, RoundLifecycle

        times = {"now": 3.0}
        lifecycle = RoundLifecycle("s", clock=lambda: times["now"])
        lifecycle.admit("a")
        lifecycle.begin_round(0)
        lifecycle.roles_announced()     # already COLLECTING before the timer exists
        timer = PhaseTimer()
        timer.prime(lifecycle.phase, lifecycle.round_index, times["now"])
        lifecycle.subscribe(timer.on_event)
        times["now"] = 7.0
        lifecycle.global_stored()
        lifecycle.advance()
        assert timer.round_times(0)["collecting_s"] == pytest.approx(4.0)

    def test_unseen_round_reports_zeros(self):
        from repro.core.rounds import PhaseTimer

        assert PhaseTimer().round_times(4) == {
            "planning_s": 0.0,
            "collecting_s": 0.0,
            "aggregating_s": 0.0,
        }

    def test_clockless_lifecycle_stamps_zero(self):
        from repro.core.rounds import RoundLifecycle

        events = []
        lifecycle = RoundLifecycle("s")
        lifecycle.subscribe(events.append)
        lifecycle.admit("a")
        lifecycle.begin_round(0)
        assert all(event.at == 0.0 for event in events)
