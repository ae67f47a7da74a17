"""The read-only payload contract, checked over whole scenario runs.

One broadcast is decoded once and every receiver dispatches the same tree
(``rfc._last_received``), so a handler that mutated what it was handed would
corrupt what the next receiver of the publish sees.  The guard fingerprints
every memoized payload — structure plus leaf bytes — when it is stored,
before any handler ran, and re-checks it when the memo evicts it and again
at the end of the run.
"""

from __future__ import annotations

import contextlib
import hashlib

import numpy as np
import pytest

from repro.core.client import SDFLMQClient
from repro.mqttfc import rfc
from repro.scenarios import ScenarioRunner
from repro.scenarios.spec import FleetSpec, ScenarioSpec, TopologySpec, TrainingSpec


def _fingerprint(node):
    if isinstance(node, dict):
        return ("dict", tuple((key, _fingerprint(value)) for key, value in node.items()))
    if isinstance(node, (list, tuple)):
        return (type(node).__name__, tuple(_fingerprint(value) for value in node))
    if isinstance(node, np.ndarray):
        digest = hashlib.sha1(node.tobytes()).hexdigest()
        return ("ndarray", node.dtype.str, node.shape, node.flags.writeable, digest)
    return (type(node).__name__, repr(node))


@contextlib.contextmanager
def memo_guard(monkeypatch):
    """Yield the list of ``(where, payload)`` violations seen during the block."""
    violations, stored, fresh = [], [], {}
    depth = [0]
    real_decode = rfc.decode_payload
    real_receive = rfc.FleetControlEndpoint._on_raw_message

    def decode(body, **kwargs):
        payload = real_decode(body, **kwargs)
        fresh[id(payload)] = (payload, _fingerprint(payload))
        return payload

    def check(entry, where):
        payload, fingerprint = entry
        if _fingerprint(payload) != fingerprint:
            violations.append((where, payload))

    def receive(endpoint, client, message):
        depth[0] += 1
        try:
            real_receive(endpoint, client, message)
        finally:
            depth[0] -= 1
            payload = rfc._last_received[1]
            if payload is not None and (not stored or stored[-1][0] is not payload):
                if stored:
                    check(stored[-1], "evicted")
                stored.append(fresh[id(payload)])
            if not depth[0]:
                fresh.clear()

    monkeypatch.setattr(rfc, "_last_received", (None, None))
    monkeypatch.setattr(rfc, "decode_payload", decode)
    monkeypatch.setattr(rfc.FleetControlEndpoint, "_on_raw_message", receive)
    yield violations, stored
    for entry in stored:
        check(entry, "end of run")


def _delta_int8_fleet():
    return ScenarioSpec(
        name="delta-int8-fleet",
        seed=42,
        fleet=FleetSpec(num_clients=48),
        topology=TopologySpec(regions=3, role_policy="static"),
        training=TrainingSpec(
            rounds=3, train_for_real=False, round_deadline_s=None, update_codec="delta+int8"
        ),
    )


@pytest.mark.parametrize(
    "scenario",
    ["baseline", "bridged-multi-region", "round2-blackout", "heavy-churn",
     pytest.param(_delta_int8_fleet(), id="delta-int8-48")],
)
def test_no_handler_mutates_a_shared_payload(monkeypatch, scenario):
    with memo_guard(monkeypatch) as (violations, stored):
        ScenarioRunner().run(scenario)
    assert len(stored) > 10
    assert violations == []


def test_the_guard_catches_a_mutating_handler(monkeypatch):
    real = SDFLMQClient._handle_session_control

    def mutating(self, session_id, notice):
        notice["seen_by"] = self.client_id
        return real(self, session_id, notice)

    monkeypatch.setattr(SDFLMQClient, "_handle_session_control", mutating)
    with memo_guard(monkeypatch) as (violations, _stored):
        ScenarioRunner().run("baseline")
    assert {where for where, _payload in violations} == {"evicted", "end of run"}
