"""Tests for role-optimization policies, the load balancer and FL sessions."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.clustering import ClusteringConfig, ClusteringEngine
from repro.core.errors import SessionError, SessionFullError
from repro.core.load_balancer import LoadBalancer
from repro.core.messages import ClientStatsReport, SessionRequest
from repro.core.role_optimizers import (
    CompositeScorePolicy,
    GeneticPolicy,
    MemoryAwarePolicy,
    RandomPolicy,
    RoundRobinPolicy,
    StaticPolicy,
    available_policies,
    get_policy,
)
from repro.core.session import FLSession, SessionState
from repro.sim.device import DeviceStats


def _clients(n):
    return [f"client_{i:03d}" for i in range(n)]


def _stats(memory_by_client, bandwidth=1e6, cpu=0.2):
    return {
        cid: DeviceStats(cid, available_memory_bytes=memory, bandwidth_bps=bandwidth, cpu_load=cpu)
        for cid, memory in memory_by_client.items()
    }


class TestPolicies:
    def test_registry(self):
        assert set(available_policies()) == {
            "static", "random", "round_robin", "memory_aware", "composite", "genetic",
        }
        assert isinstance(get_policy("memory_aware"), MemoryAwarePolicy)
        with pytest.raises(ValueError):
            get_policy("oracle")

    def test_static_keeps_current(self):
        policy = StaticPolicy()
        selected = policy.select_aggregators(_clients(6), 2, {}, current_aggregators=["client_004", "client_002"])
        assert selected == ["client_004", "client_002"]

    def test_static_fills_missing_slots(self):
        policy = StaticPolicy()
        selected = policy.select_aggregators(_clients(4), 3, {}, current_aggregators=["client_002"])
        assert selected[0] == "client_002"
        assert len(selected) == 3 and len(set(selected)) == 3

    def test_random_deterministic_per_round(self):
        policy = RandomPolicy(seed=5)
        a = policy.select_aggregators(_clients(10), 3, {}, round_index=2)
        b = RandomPolicy(seed=5).select_aggregators(_clients(10), 3, {}, round_index=2)
        c = policy.select_aggregators(_clients(10), 3, {}, round_index=3)
        assert a == b
        assert a != c

    def test_round_robin_rotates(self):
        policy = RoundRobinPolicy()
        round0 = policy.select_aggregators(_clients(6), 2, {}, round_index=0)
        round1 = policy.select_aggregators(_clients(6), 2, {}, round_index=1)
        round3 = policy.select_aggregators(_clients(6), 2, {}, round_index=3)
        assert round0 == ["client_000", "client_001"]
        assert round1 == ["client_002", "client_003"]
        assert round3 == round0  # wraps around after len/num rounds

    def test_round_robin_spreads_load_evenly(self):
        policy = RoundRobinPolicy()
        counts = {cid: 0 for cid in _clients(6)}
        for round_index in range(12):
            for cid in policy.select_aggregators(_clients(6), 2, {}, round_index=round_index):
                counts[cid] += 1
        assert max(counts.values()) - min(counts.values()) == 0

    def test_memory_aware_picks_largest_memory(self):
        stats = _stats({"client_000": 100, "client_001": 900, "client_002": 500})
        policy = MemoryAwarePolicy()
        assert policy.select_aggregators(_clients(3), 2, stats) == ["client_001", "client_002"]

    def test_memory_aware_handles_missing_stats(self):
        stats = _stats({"client_001": 900})
        selected = MemoryAwarePolicy().select_aggregators(_clients(3), 1, stats)
        assert selected == ["client_001"]

    def test_composite_score_weighting(self):
        stats = {
            "client_000": DeviceStats("client_000", available_memory_bytes=100, bandwidth_bps=10.0, cpu_load=0.9),
            "client_001": DeviceStats("client_001", available_memory_bytes=900, bandwidth_bps=1.0, cpu_load=0.9),
            "client_002": DeviceStats("client_002", available_memory_bytes=100, bandwidth_bps=1.0, cpu_load=0.0),
        }
        memory_first = CompositeScorePolicy(memory_weight=1.0, bandwidth_weight=0.0, cpu_weight=0.0)
        cpu_first = CompositeScorePolicy(memory_weight=0.0, bandwidth_weight=0.0, cpu_weight=1.0)
        assert memory_first.select_aggregators(_clients(3), 1, stats) == ["client_001"]
        assert cpu_first.select_aggregators(_clients(3), 1, stats) == ["client_002"]

    def test_composite_all_zero_weights_rejected(self):
        with pytest.raises(ValueError):
            CompositeScorePolicy(memory_weight=0.0, bandwidth_weight=0.0, cpu_weight=0.0)

    def test_genetic_prefers_high_memory_devices(self):
        memory = {cid: 10_000 if i < 3 else 10 for i, cid in enumerate(_clients(12))}
        stats = _stats(memory)
        policy = GeneticPolicy(seed=1, population_size=30, generations=20)
        selected = policy.select_aggregators(_clients(12), 3, stats)
        assert set(selected) == {"client_000", "client_001", "client_002"}

    def test_genetic_custom_fitness(self):
        # Fitness that strongly prefers the lexicographically last clients.
        def fitness(subset, _stats):
            return sum(int(cid[-3:]) for cid in subset)

        policy = GeneticPolicy(seed=0, fitness=fitness, population_size=20, generations=10)
        selected = policy.select_aggregators(_clients(10), 2, {})
        assert set(selected) == {"client_008", "client_009"}

    def test_validation_errors(self):
        with pytest.raises(ValueError):
            StaticPolicy().select_aggregators([], 1, {})
        with pytest.raises(ValueError):
            StaticPolicy().select_aggregators(_clients(2), 3, {})


class TestLoadBalancer:
    def test_first_plan_marks_everyone_changed(self):
        balancer = LoadBalancer()
        plan = balancer.plan("s", _clients(6), round_index=0)
        assert sorted(plan.changed_clients) == _clients(6)
        assert plan.unchanged_clients == []
        assert plan.num_informed == 6
        assert set(plan.assignments) == set(_clients(6))

    def test_static_policy_second_round_changes_nobody(self):
        balancer = LoadBalancer(policy=StaticPolicy())
        first = balancer.plan("s", _clients(6), round_index=0)
        second = balancer.plan("s", _clients(6), round_index=1, previous=first.topology)
        assert second.changed_clients == []
        assert sorted(second.unchanged_clients) == _clients(6)

    def test_memory_shift_changes_only_affected_clients(self):
        balancer = LoadBalancer(
            clustering=ClusteringEngine(ClusteringConfig(policy="central")),
            policy=MemoryAwarePolicy(),
        )
        stats_round0 = _stats({cid: 1000 - i for i, cid in enumerate(_clients(5))})
        first = balancer.plan("s", _clients(5), 0, stats=stats_round0)
        assert first.topology.root_id == "client_000"
        # Memory collapses on the current aggregator; client_001 becomes best.
        stats_round1 = _stats({**{cid: 1000 - i for i, cid in enumerate(_clients(5))}, "client_000": 1})
        second = balancer.plan("s", _clients(5), 1, stats=stats_round1, previous=first.topology)
        assert second.topology.root_id == "client_001"
        # Every client's parent/role is touched in a central topology swap, but
        # the diff machinery must notice clients whose assignment is identical.
        assert "client_000" in second.changed_clients
        assert "client_001" in second.changed_clients

    def test_assignments_match_topology(self):
        balancer = LoadBalancer()
        plan = balancer.plan("s", _clients(10), 0)
        for cid, assignment in plan.assignments.items():
            node = plan.topology.node(cid)
            assert assignment.role == node.role.value
            assert assignment.parent_id == node.parent_id
            assert assignment.expected_contributions == node.fan_in
            assert assignment.level == node.level

    def test_round_robin_rebalance_informs_subset_or_all(self):
        balancer = LoadBalancer(policy=RoundRobinPolicy())
        first = balancer.plan("s", _clients(8), 0)
        second = balancer.plan("s", _clients(8), 1, previous=first.topology)
        assert 0 < second.num_informed <= 8


class TestFLSession:
    def _request(self, capacity_min=2, capacity_max=3, rounds=2):
        return SessionRequest(
            session_id="s1", model_name="mlp", requester_id="c0", fl_rounds=rounds,
            session_capacity_min=capacity_min, session_capacity_max=capacity_max,
        )

    def test_lifecycle_waiting_to_ready(self):
        session = FLSession(self._request())
        assert session.state is SessionState.WAITING_FOR_CONTRIBUTORS
        session.add_contributor("c0")
        assert session.state is SessionState.WAITING_FOR_CONTRIBUTORS
        session.add_contributor("c1")
        assert session.state is SessionState.READY
        assert session.has_quorum

    def test_duplicate_contributor_not_counted_twice(self):
        session = FLSession(self._request())
        session.add_contributor("c0")
        assert session.add_contributor("c0") == 1

    def test_capacity_enforced(self):
        session = FLSession(self._request(capacity_min=1, capacity_max=2))
        session.add_contributor("c0")
        session.add_contributor("c1")
        assert session.is_full
        with pytest.raises(SessionFullError):
            session.add_contributor("c2")

    def test_begin_requires_quorum(self):
        session = FLSession(self._request())
        session.add_contributor("c0")
        with pytest.raises(SessionError):
            session.begin()
        session.add_contributor("c1")
        session.begin()
        assert session.state is SessionState.RUNNING

    def test_remove_contributor_reverts_to_waiting(self):
        session = FLSession(self._request())
        session.add_contributor("c0")
        session.add_contributor("c1")
        assert session.remove_contributor("c1")
        assert session.state is SessionState.WAITING_FOR_CONTRIBUTORS
        assert not session.remove_contributor("ghost")

    def test_round_progression_and_completion(self):
        session = FLSession(self._request(rounds=2))
        session.add_contributor("c0")
        session.add_contributor("c1")
        session.begin()
        assert session.advance_round() == 1
        assert session.state is SessionState.RUNNING
        assert session.advance_round() == 2
        assert session.state is SessionState.COMPLETED
        with pytest.raises(SessionError):
            session.advance_round()

    def test_round_ready_requires_all_contributors(self):
        session = FLSession(self._request())
        session.add_contributor("c0")
        session.add_contributor("c1")
        session.begin()
        session.record_stats(ClientStatsReport(session_id="s1", client_id="c0", round_index=0))
        assert not session.round_ready(0)
        session.record_stats(ClientStatsReport(session_id="s1", client_id="c1", round_index=0))
        assert session.round_ready(0)
        assert not session.round_ready(1)

    def test_stats_stored_as_device_stats(self):
        session = FLSession(self._request())
        session.add_contributor("c0")
        session.record_stats(
            ClientStatsReport(session_id="s1", client_id="c0", round_index=0, available_memory_bytes=42)
        )
        assert session.stats["c0"].available_memory_bytes == 42

    def test_terminate(self):
        session = FLSession(self._request(), created_at=0.0)
        session.add_contributor("c0")
        session.terminate("test")
        assert session.state is SessionState.TERMINATED
        assert not session.is_active
        with pytest.raises(SessionError):
            session.add_contributor("c1")

    def test_global_update_counter(self):
        session = FLSession(self._request())
        assert session.note_global_update() == 1
        assert session.note_global_update() == 2
