"""Tests for the clustering engine and cluster topologies."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.clustering import ClusteringConfig, ClusteringEngine, ClusterNode, ClusterTopology
from repro.core.errors import SDFLMQError
from repro.core.roles import Role


def _clients(n):
    return [f"client_{i:03d}" for i in range(n)]


class TestClusteringConfig:
    def test_defaults_match_paper(self):
        config = ClusteringConfig()
        assert config.policy == "hierarchical"
        assert config.aggregator_fraction == pytest.approx(0.30)

    def test_invalid_policy(self):
        with pytest.raises(ValueError):
            ClusteringConfig(policy="ring")

    def test_invalid_fraction(self):
        with pytest.raises(ValueError):
            ClusteringConfig(aggregator_fraction=0.0)
        with pytest.raises(ValueError):
            ClusteringConfig(aggregator_fraction=1.0)


class TestCentralPolicy:
    def test_single_aggregator(self):
        engine = ClusteringEngine(ClusteringConfig(policy="central"))
        topology = engine.build("s", _clients(6))
        assert len(topology.aggregator_ids) == 1
        assert topology.num_levels == 2
        root = topology.node(topology.root_id)
        assert root.fan_in == 5
        assert all(topology.node(c).role == Role.TRAINER for c in root.children)

    def test_preselected_aggregator_respected(self):
        engine = ClusteringEngine(ClusteringConfig(policy="central"))
        topology = engine.build("s", _clients(4), aggregator_ids=["client_002"])
        assert topology.root_id == "client_002"

    def test_aggregator_role_when_training_disabled(self):
        engine = ClusteringEngine(ClusteringConfig(policy="central", aggregators_train=False))
        topology = engine.build("s", _clients(4))
        assert topology.node(topology.root_id).role == Role.AGGREGATOR

    def test_num_aggregators_always_one(self):
        engine = ClusteringEngine(ClusteringConfig(policy="central"))
        assert engine.num_aggregators(50) == 1


class TestHierarchicalPolicy:
    def test_paper_configuration_5_clients(self):
        engine = ClusteringEngine(ClusteringConfig(policy="hierarchical", aggregator_fraction=0.30))
        topology = engine.build("s", _clients(5))
        # round(5 * 0.3) = 2 aggregators: one root + one intermediate.
        assert len(topology.aggregator_ids) == 2
        assert topology.num_levels == 3

    def test_paper_configuration_20_clients(self):
        engine = ClusteringEngine(ClusteringConfig(policy="hierarchical", aggregator_fraction=0.30))
        topology = engine.build("s", _clients(20))
        assert len(topology.aggregator_ids) == 6
        levels = [topology.node(a).level for a in topology.aggregator_ids]
        assert levels.count(0) == 1  # one root
        assert levels.count(1) == 5  # intermediates

    def test_trainers_balanced_across_clusters(self):
        engine = ClusteringEngine(ClusteringConfig(aggregator_fraction=0.30))
        topology = engine.build("s", _clients(20))
        intermediate_fanins = [
            topology.node(a).fan_in for a in topology.aggregator_ids if a != topology.root_id
        ]
        assert max(intermediate_fanins) - min(intermediate_fanins) <= 1

    def test_num_aggregators_rounding(self):
        engine = ClusteringEngine(ClusteringConfig(aggregator_fraction=0.30))
        assert engine.num_aggregators(5) == 2
        assert engine.num_aggregators(10) == 3
        assert engine.num_aggregators(15) == 4  # round-half-even: round(4.5) == 4
        assert engine.num_aggregators(20) == 6
        assert engine.num_aggregators(1) == 1

    def test_single_client_topology(self):
        topology = ClusteringEngine().build("s", ["only"])
        assert topology.root_id == "only"
        assert topology.node("only").role == Role.TRAINER_AGGREGATOR
        assert topology.client_ids == ["only"]

    def test_two_clients_degenerates_to_central(self):
        topology = ClusteringEngine(ClusteringConfig(aggregator_fraction=0.3)).build("s", _clients(2))
        assert len(topology.aggregator_ids) == 1
        assert topology.num_levels == 2

    def test_more_aggregators_than_trainers_demotes_extras(self):
        engine = ClusteringEngine(ClusteringConfig(aggregator_fraction=0.8))
        topology = engine.build("s", _clients(5))
        topology.validate()
        assert all(topology.node(a).children for a in topology.aggregator_ids)

    def test_preselected_aggregators_priority_order(self):
        engine = ClusteringEngine(ClusteringConfig(aggregator_fraction=0.4))
        topology = engine.build("s", _clients(10), aggregator_ids=["client_007", "client_003", "client_001", "client_009"])
        assert topology.root_id == "client_007"
        assert set(topology.aggregator_ids) == {"client_007", "client_003", "client_001", "client_009"}

    def test_unknown_preselected_aggregators_rejected(self):
        engine = ClusteringEngine()
        with pytest.raises(SDFLMQError):
            engine.build("s", _clients(4), aggregator_ids=["ghost"])

    def test_duplicate_client_ids_deduplicated(self):
        topology = ClusteringEngine().build("s", ["a", "b", "a", "c"])
        assert sorted(topology.client_ids) == ["a", "b", "c"]

    def test_empty_clients_rejected(self):
        with pytest.raises(SDFLMQError):
            ClusteringEngine().build("s", [])

    def test_rng_shuffles_selection(self):
        engine = ClusteringEngine()
        topology_a = engine.build("s", _clients(10), rng=np.random.default_rng(1))
        topology_b = engine.build("s", _clients(10), rng=np.random.default_rng(2))
        assert topology_a.aggregator_ids != topology_b.aggregator_ids or topology_a.root_id != topology_b.root_id

    @settings(max_examples=40, deadline=None)
    @given(
        num_clients=st.integers(min_value=1, max_value=60),
        fraction=st.floats(min_value=0.05, max_value=0.9),
        policy=st.sampled_from(["hierarchical", "central"]),
    )
    def test_topology_invariants_property(self, num_clients, fraction, policy):
        engine = ClusteringEngine(ClusteringConfig(policy=policy, aggregator_fraction=fraction))
        topology = engine.build("s", _clients(num_clients))
        topology.validate()  # every structural invariant
        assert set(topology.client_ids) == set(_clients(num_clients))
        # Every trainer reaches the root through aggregators only.
        for cid in topology.client_ids:
            cursor = topology.node(cid).parent_id
            hops = 0
            while cursor is not None:
                assert topology.node(cursor).role.aggregates
                cursor = topology.node(cursor).parent_id
                hops += 1
                assert hops <= num_clients
        # Fan-in conservation: the root's subtree must cover every client.
        covered = set()

        def walk(node_id):
            covered.add(node_id)
            for child in topology.node(node_id).children:
                walk(child)

        walk(topology.root_id)
        assert covered == set(topology.client_ids)


class TestTopologySerialization:
    def test_to_dict_describes_every_node(self):
        topology = ClusteringEngine().build("sess", _clients(9))
        document = topology.to_dict()
        assert document["root_id"] == topology.root_id
        assert sorted(document["nodes"]) == topology.client_ids
        for cid in topology.client_ids:
            node = document["nodes"][cid]
            assert node["role"] == topology.node(cid).role.value
            assert node["parent_id"] == topology.node(cid).parent_id
            assert node["children"] == topology.node(cid).children

    def test_validation_catches_orphan(self):
        nodes = {
            "root": ClusterNode("root", Role.TRAINER_AGGREGATOR, 0, None, ["a"]),
            "a": ClusterNode("a", Role.TRAINER, 1, "root"),
            "orphan": ClusterNode("orphan", Role.TRAINER, 1, None),
        }
        with pytest.raises(SDFLMQError):
            ClusterTopology(session_id="s", nodes=nodes, root_id="root")

    def test_validation_catches_bad_parent_link(self):
        nodes = {
            "root": ClusterNode("root", Role.TRAINER_AGGREGATOR, 0, None, []),
            "a": ClusterNode("a", Role.TRAINER, 1, "root"),
        }
        # Root does not list "a" as a child.
        with pytest.raises(SDFLMQError):
            ClusterTopology(session_id="s", nodes=nodes, root_id="root")

    def test_validation_catches_non_aggregating_root(self):
        nodes = {"root": ClusterNode("root", Role.TRAINER, 0, None, [])}
        with pytest.raises(SDFLMQError):
            ClusterTopology(session_id="s", nodes=nodes, root_id="root")

    def test_validation_catches_unknown_root(self):
        nodes = {"a": ClusterNode("a", Role.TRAINER_AGGREGATOR, 0, None, [])}
        with pytest.raises(SDFLMQError):
            ClusterTopology(session_id="s", nodes=nodes, root_id="zzz")
