"""Tests for the SDFLMQ topic scheme and smoke tests for the shipped examples."""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import pytest

from repro.core import topics
from repro.mqtt.topics import topic_matches_filter, validate_topic

EXAMPLES_DIR = Path(__file__).resolve().parents[1] / "examples"


class TestTopicScheme:
    def test_coordinator_call_topic(self):
        assert topics.coordinator_call_topic("new_fl_session") == "sdflmq/coordinator/call/new_fl_session"

    def test_client_call_topic(self):
        assert topics.client_call_topic("c1", "set_role") == "sdflmq/client/c1/call/set_role"

    def test_session_topics(self):
        assert topics.session_broadcast_topic("s1") == "sdflmq/session/s1/broadcast"
        assert topics.aggregator_params_topic("s1", "agg") == "sdflmq/session/s1/aggregator/agg/params"
        assert topics.global_store_topic("s1") == "sdflmq/session/s1/global/store"
        assert topics.global_update_topic("s1") == "sdflmq/session/s1/global/update"

    def test_presence_topics(self):
        assert topics.presence_topic("c9") == "sdflmq/presence/c9"
        assert topic_matches_filter(topics.presence_topic("c9"), topics.PRESENCE_WILDCARD)

    def test_all_generated_topics_are_valid_mqtt_topics(self):
        for topic in (
            topics.coordinator_call_topic("f"),
            topics.client_call_topic("c", "f"),
            topics.session_broadcast_topic("s"),
            topics.aggregator_params_topic("s", "a"),
            topics.global_store_topic("s"),
            topics.global_update_topic("s"),
            topics.presence_topic("c"),
        ):
            validate_topic(topic)

    def test_invalid_identifiers_rejected(self):
        with pytest.raises(ValueError):
            topics.aggregator_params_topic("s/1", "agg")
        with pytest.raises(ValueError):
            topics.client_call_topic("c", "bad name")

    def test_distinct_sessions_do_not_collide(self):
        assert topics.global_update_topic("a") != topics.global_update_topic("b")
        assert not topic_matches_filter(topics.global_update_topic("a"), "sdflmq/session/b/#")


def _load_example(name: str):
    path = EXAMPLES_DIR / name
    spec = importlib.util.spec_from_file_location(f"example_{name[:-3]}", path)
    module = importlib.util.module_from_spec(spec)
    assert spec.loader is not None
    spec.loader.exec_module(module)
    return module


class TestExamples:
    """Smoke tests: the shipped examples must keep running end to end.

    Only the two fastest examples run in the default suite; the longer ones
    are exercised implicitly by the integration tests and the benchmarks.
    """

    def test_example_files_exist(self):
        expected = {
            "quickstart.py",
            "heterogeneous_iot_fleet.py",
            "multi_region_bridging.py",
            "custom_role_policy.py",
            "client_churn.py",
        }
        assert expected <= {p.name for p in EXAMPLES_DIR.glob("*.py")}

    def test_custom_role_policy_example(self, capsys):
        module = _load_example("custom_role_policy.py")
        module.main()
        out = capsys.readouterr().out
        assert "battery_aware" in out
        assert "genetic" in out

    def test_quickstart_example(self, capsys):
        module = _load_example("quickstart.py")
        module.main()
        out = capsys.readouterr().out
        assert "global test accuracy" in out
        assert "broker routed" in out
