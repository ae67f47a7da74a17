"""Tests for the simulation layer: clock, devices, costs, resources, events."""

from __future__ import annotations

import numpy as np
import pytest

from repro.sim.clock import SimulationClock
from repro.sim.costs import CostModel
from repro.sim.device import DEVICE_TIERS, DeviceFleet, DeviceProfile
from repro.sim.events import ChurnSchedule, EventLog
from repro.sim.resources import ResourceAccountant


class TestSimulationClock:
    def test_starts_at_zero(self):
        assert SimulationClock().now() == 0.0

    def test_advance(self):
        clock = SimulationClock()
        assert clock.advance(1.5) == 1.5
        assert clock.advance(0.5) == 2.0

    def test_negative_advance_rejected(self):
        with pytest.raises(ValueError):
            SimulationClock().advance(-1)

    def test_advance_to_never_rewinds(self):
        clock = SimulationClock(10.0)
        clock.advance_to(5.0)
        assert clock.now() == 10.0
        clock.advance_to(12.0)
        assert clock.now() == 12.0

    def test_negative_start_rejected(self):
        with pytest.raises(ValueError):
            SimulationClock(-1.0)


class TestDeviceProfile:
    def test_link_profile_derived(self):
        profile = DeviceProfile("d1", bandwidth_bps=1e6, latency_s=0.01)
        link = profile.link_profile()
        assert link.bandwidth_bps == 1e6
        assert link.latency_s == 0.01

    def test_invalid_values_rejected(self):
        with pytest.raises(ValueError):
            DeviceProfile("d", compute_speed=0)
        with pytest.raises(ValueError):
            DeviceProfile("d", memory_bytes=0)
        with pytest.raises(ValueError):
            DeviceProfile("d", availability=1.5)

class TestDeviceFleet:
    def test_homogeneous_fleet(self):
        fleet = DeviceFleet.homogeneous(5, tier="phone")
        assert len(fleet.device_ids) == 5
        assert all(fleet.profile(d).tier == "phone" for d in fleet.device_ids)
        assert fleet.device_ids == [f"client_{i:03d}" for i in range(5)]

    def test_unknown_tier_rejected(self):
        with pytest.raises(ValueError):
            DeviceFleet.homogeneous(3, tier="quantum")

    def test_heterogeneous_fleet_uses_mix(self):
        fleet = DeviceFleet.heterogeneous(40, seed=0)
        tiers = {fleet.profile(d).tier for d in fleet.device_ids}
        assert len(tiers) >= 2
        assert all(t in DEVICE_TIERS for t in tiers)

    def test_heterogeneous_deterministic_by_seed(self):
        a = DeviceFleet.heterogeneous(10, seed=4)
        b = DeviceFleet.heterogeneous(10, seed=4)
        for device_id in a.device_ids:
            assert a.profile(device_id) == b.profile(device_id)

    def test_duplicate_ids_rejected(self):
        profile = DeviceProfile("same")
        with pytest.raises(ValueError):
            DeviceFleet([profile, DeviceProfile("same")])

    def test_empty_fleet_rejected(self):
        with pytest.raises(ValueError):
            DeviceFleet([])

    def test_drift_changes_stats_deterministically(self):
        fleet_a = DeviceFleet.homogeneous(4, seed=9)
        fleet_b = DeviceFleet.homogeneous(4, seed=9)
        stats_a = fleet_a.drift(1, memory_pressure=0.5)
        stats_b = fleet_b.drift(1, memory_pressure=0.5)
        for device_id in fleet_a.device_ids:
            assert stats_a[device_id].available_memory_bytes == stats_b[device_id].available_memory_bytes
            assert stats_a[device_id].available_memory_bytes <= fleet_a.profile(device_id).memory_bytes

    def test_drift_respects_memory_pressure_bounds(self):
        fleet = DeviceFleet.homogeneous(6, seed=2)
        stats = fleet.drift(0, memory_pressure=0.0)
        for device_id, snapshot in stats.items():
            assert snapshot.available_memory_bytes == fleet.profile(device_id).memory_bytes

    def test_scale_memory(self):
        fleet = DeviceFleet.homogeneous(2)
        original = fleet.profile("client_000").memory_bytes
        updated = fleet.scale_memory("client_000", 0.5)
        assert updated.memory_bytes == original // 2


class TestCostModel:
    @pytest.fixture
    def device(self):
        return DeviceProfile("d", compute_speed=1.0, memory_bytes=10_000_000)

    def test_training_time_scales_linearly(self, device):
        cost = CostModel()
        t1 = cost.training_time(device, 100, 1, 17_000)
        t2 = cost.training_time(device, 200, 1, 17_000)
        t3 = cost.training_time(device, 100, 2, 17_000)
        assert t2 == pytest.approx(2 * t1)
        assert t3 == pytest.approx(2 * t1)

    def test_training_time_inverse_in_compute_speed(self):
        cost = CostModel()
        slow = DeviceProfile("s", compute_speed=0.5)
        fast = DeviceProfile("f", compute_speed=2.0)
        assert cost.training_time(slow, 100, 1, 17_000) == pytest.approx(
            4 * cost.training_time(fast, 100, 1, 17_000)
        )

    def test_aggregation_time_zero_models(self, device):
        assert CostModel().aggregation_time(device, 0, 17_000, 68_000) == 0.0

    def test_aggregation_time_increases_with_models(self, device):
        cost = CostModel()
        t5 = cost.aggregation_time(device, 5, 17_000, 68_000)
        t10 = cost.aggregation_time(device, 10, 17_000, 68_000)
        assert t10 > t5

    def test_memory_overflow_penalty(self, device):
        cost = CostModel()
        fits = cost.aggregation_time(device, 10, 17_000, 68_000, available_memory_bytes=10**9)
        overflows = cost.aggregation_time(device, 10, 17_000, 68_000, available_memory_bytes=100_000)
        assert overflows > fits

    def test_overflow_penalty_monotone_in_scarcity(self, device):
        cost = CostModel()
        tight = cost.aggregation_time(device, 10, 17_000, 68_000, available_memory_bytes=300_000)
        tighter = cost.aggregation_time(device, 10, 17_000, 68_000, available_memory_bytes=100_000)
        assert tighter > tight

    def test_coordination_time(self):
        cost = CostModel(coordinator_decision_s=0.01)
        assert cost.coordination_time(5) == pytest.approx(0.05)
        with pytest.raises(ValueError):
            cost.coordination_time(-1)

    def test_negative_inputs_rejected(self, device):
        cost = CostModel()
        with pytest.raises(ValueError):
            cost.training_time(device, -1, 1, 100)
        with pytest.raises(ValueError):
            cost.aggregation_time(device, -1, 100, 100)
        with pytest.raises(ValueError):
            cost.serialization_time(device, -5)


class TestResourceAccountant:
    def test_allocate_release_and_high_water(self):
        accountant = ResourceAccountant()
        accountant.register_device("d", 1000)
        assert accountant.allocate("d", 400)
        assert accountant.allocate("d", 400)
        assert accountant.in_use("d") == 800
        accountant.release("d", 500)
        assert accountant.in_use("d") == 300
        assert accountant.high_water("d") == 800

    def test_overflow_recorded_but_not_fatal(self):
        accountant = ResourceAccountant()
        accountant.register_device("d", 100)
        assert not accountant.allocate("d", 150, timestamp=2.0)
        assert accountant.overflow_count("d") == 1
        assert accountant.overflow_count() == 1
        event = accountant.overflow_events[0]
        assert event.device_id == "d" and event.timestamp == 2.0

    def test_release_never_goes_negative(self):
        accountant = ResourceAccountant()
        accountant.register_device("d", 100)
        accountant.release("d", 50)
        assert accountant.in_use("d") == 0

    def test_unregistered_device_rejected(self):
        accountant = ResourceAccountant()
        with pytest.raises(KeyError):
            accountant.allocate("ghost", 10)

    def test_negative_amounts_rejected(self):
        accountant = ResourceAccountant()
        accountant.register_device("d", 100)
        with pytest.raises(ValueError):
            accountant.allocate("d", -1)
        with pytest.raises(ValueError):
            accountant.release("d", -1)

    def test_totals_across_devices(self):
        accountant = ResourceAccountant()
        accountant.register_device("a", 100)
        accountant.register_device("b", 100)
        accountant.allocate("a", 60)
        accountant.allocate("b", 30)
        assert accountant.high_water_by_device() == {"a": 60, "b": 30}


class TestEventLog:
    def test_record_and_filter(self):
        log = EventLog()
        log.record(0.0, "train", "c1", duration_s=1.0, round_index=0)
        log.record(1.0, "train", "c2", duration_s=2.0, round_index=0)
        log.record(3.0, "aggregate", "c1", duration_s=0.5, round_index=0, session_id="s")
        assert len(log.filter()) == 3
        assert len(log.filter(kind="train")) == 2
        assert len(log.filter(actor="c1")) == 2
        assert len(log.filter(kind="train", actor="c1")) == 1
        assert len(log.filter(session_id="s")) == 1
        assert len(log.filter(predicate=lambda e: e.duration_s > 1.5)) == 1

    def test_kind_histogram(self):
        log = EventLog()
        log.record(0, "a", "x")
        log.record(0, "a", "y")
        log.record(0, "b", "x")
        assert log.kinds() == {"a": 2, "b": 1}

    def test_negative_duration_rejected(self):
        with pytest.raises(ValueError):
            EventLog().record(0, "a", "x", duration_s=-1)


class TestChurnSchedule:
    def test_builders_record_actions_sorted_by_time(self):
        plan = ChurnSchedule()
        plan.join(0.3, "c1", detail="arrives")
        plan.leave(0.1, "c2")
        plan.reconnect(0.3, "c2")
        assert [(e.time, e.action, e.client_id) for e in plan.events] == [
            (0.1, "leave", "c2"), (0.3, "join", "c1"), (0.3, "reconnect", "c2"),
        ]
        assert plan.events[1].detail == "arrives"

    def test_bind_needs_a_handler_for_every_action(self):
        from repro.runtime.scheduler import EventScheduler

        plan = ChurnSchedule()
        plan.join(0.1, "c1")
        plan.leave(0.2, "c1")
        with pytest.raises(KeyError, match="join"):
            plan.bind(EventScheduler(clock=SimulationClock()), {"leave": lambda e: None})

    def test_bound_events_fire_in_time_order_and_are_logged(self):
        from repro.runtime.scheduler import EventScheduler

        clock = SimulationClock()
        scheduler = EventScheduler(clock=clock)
        plan = ChurnSchedule()
        plan.join(0.2, "c1")
        plan.leave(0.1, "c2")
        fired = []
        log = EventLog()
        handlers = {
            action: lambda e: fired.append((clock.now(), e.action, e.client_id))
            for action in ("join", "leave")
        }
        assert plan.bind(scheduler, handlers, event_log=log) == 2
        scheduler.run_until_time(1.0)
        assert fired == [(0.1, "leave", "c2"), (0.2, "join", "c1")]
        assert log.kinds() == {"churn_leave": 1, "churn_join": 1}
