"""Tests for roles, the role arbiter, the model controller and message schemas."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.errors import ModelNotRegisteredError, RoleError
from repro.core.messages import (
    ClientStatsReport,
    JoinAck,
    JoinRequest,
    RoleAssignment,
    SessionAck,
    SessionRequest,
)
from repro.core.model_controller import ModelController
from repro.core.role_arbiter import RoleArbiter, TopicChange
from repro.core.roles import Role
from repro.core.topics import aggregator_params_topic
from repro.ml.models import ClassifierModel, make_mlp


class TestRole:
    def test_trains_and_aggregates_flags(self):
        assert Role.TRAINER.trains and not Role.TRAINER.aggregates
        assert Role.AGGREGATOR.aggregates and not Role.AGGREGATOR.trains
        assert Role.TRAINER_AGGREGATOR.trains and Role.TRAINER_AGGREGATOR.aggregates
        assert not Role.IDLE.trains and not Role.IDLE.aggregates

    def test_coerce_from_string(self):
        assert Role.coerce("trainer") is Role.TRAINER
        assert Role.coerce(Role.AGGREGATOR) is Role.AGGREGATOR

    def test_coerce_invalid(self):
        with pytest.raises(ValueError):
            Role.coerce("manager")


class TestMessageSchemas:
    def test_session_request_roundtrip(self):
        request = SessionRequest(
            session_id="s1", model_name="mlp", requester_id="c0", fl_rounds=5,
            session_capacity_min=3, session_capacity_max=5,
        )
        assert SessionRequest.from_dict(request.to_dict()) == request

    def test_session_request_validation(self):
        with pytest.raises(ValueError):
            SessionRequest("s", "m", "c", fl_rounds=0, session_capacity_min=1, session_capacity_max=1)
        with pytest.raises(ValueError):
            SessionRequest("s", "m", "c", fl_rounds=1, session_capacity_min=5, session_capacity_max=2)

    def test_join_and_acks_roundtrip(self):
        join = JoinRequest(session_id="s", client_id="c", model_name="m", fl_rounds=2)
        assert JoinRequest.from_dict(join.to_dict()) == join
        ack = JoinAck(session_id="s", client_id="c", accepted=True, contributors=4)
        assert JoinAck(**ack.to_dict()) == ack
        sack = SessionAck(session_id="s", accepted=False, reason="full")
        assert SessionAck(**sack.to_dict()) == sack

    def test_role_assignment_roundtrip_and_enum(self):
        assignment = RoleAssignment(
            session_id="s", client_id="c", role="trainer_aggregator", round_index=2,
            parent_id="root", expected_contributions=3, children=["a", "b", "c"], level=1,
        )
        rebuilt = RoleAssignment.from_dict(assignment.to_dict())
        assert rebuilt == assignment
        assert rebuilt.role_enum is Role.TRAINER_AGGREGATOR

    def test_stats_report_roundtrip(self):
        report = ClientStatsReport(session_id="s", client_id="c", round_index=1,
                                   available_memory_bytes=123, cpu_load=0.5, num_samples=10)
        assert ClientStatsReport.from_dict(report.to_dict()) == report

class TestRoleArbiter:
    def _assignment(self, role="aggregator", session="s1", round_index=0, parent=None, children=(), client="me"):
        return RoleAssignment(
            session_id=session, client_id=client, role=role, round_index=round_index,
            parent_id=parent, expected_contributions=len(children), children=list(children),
        )

    def test_initial_state_idle(self):
        arbiter = RoleArbiter("me")
        assert arbiter.role("unknown") is Role.IDLE
        assert not arbiter.has_session("unknown")

    def test_apply_aggregator_assignment_subscribes_params_topic(self):
        arbiter = RoleArbiter("me")
        change = arbiter.apply_assignment(self._assignment(role="aggregator", children=("a", "b")))
        assert change.subscribe == (aggregator_params_topic("s1", "me"),)
        assert change.unsubscribe == ()
        assert arbiter.role("s1") is Role.AGGREGATOR
        state = arbiter.state("s1")
        assert state.expected_contributions == 2
        assert state.parent_id is None  # an aggregator without a parent is the root

    def test_trainer_assignment_no_topic_changes(self):
        arbiter = RoleArbiter("me")
        change = arbiter.apply_assignment(self._assignment(role="trainer", parent="agg"))
        assert change == TopicChange()
        assert arbiter.state("s1").parent_id == "agg"

    def test_role_switch_aggregator_to_trainer_unsubscribes(self):
        arbiter = RoleArbiter("me")
        arbiter.apply_assignment(self._assignment(role="aggregator", children=("a",)))
        change = arbiter.apply_assignment(self._assignment(role="trainer", parent="other"))
        assert change.unsubscribe == (aggregator_params_topic("s1", "me"),)
        assert change.subscribe == ()
        assert arbiter.role_changes == 2

    def test_same_role_reassignment_is_topic_noop(self):
        arbiter = RoleArbiter("me")
        arbiter.apply_assignment(self._assignment(role="aggregator", children=("a",)))
        change = arbiter.apply_assignment(self._assignment(role="aggregator", children=("a", "b"), round_index=1))
        assert change == TopicChange()
        assert arbiter.state("s1").expected_contributions == 2
        assert arbiter.role_changes == 1

    def test_wrong_addressee_rejected(self):
        arbiter = RoleArbiter("me")
        with pytest.raises(RoleError):
            arbiter.apply_assignment(self._assignment(client="someone_else"))

    def test_multiple_sessions_tracked_independently(self):
        arbiter = RoleArbiter("me")
        arbiter.apply_assignment(self._assignment(role="aggregator", session="s1", children=("a",)))
        arbiter.apply_assignment(self._assignment(role="trainer", session="s2", parent="p"))
        assert arbiter.has_session("s1") and arbiter.has_session("s2")
        assert arbiter.role("s1") is Role.AGGREGATOR
        assert arbiter.role("s2") is Role.TRAINER

    def test_state_for_unknown_session_raises(self):
        with pytest.raises(RoleError):
            RoleArbiter("me").state("missing")


class TestModelController:
    def _model(self, seed=0):
        return ClassifierModel(make_mlp(8, (4,), 3, seed=seed), name="m")

    def test_register_and_lookup(self):
        controller = ModelController("me")
        record = controller.register("s1", self._model(), num_samples=50)
        assert controller.has_model("s1")
        assert controller.record("s1") is record
        assert record.num_samples == 50

    def test_missing_model_raises(self):
        controller = ModelController("me")
        with pytest.raises(ModelNotRegisteredError):
            controller.record("nope")

    def test_snapshot_cast_to_wire_dtype(self):
        controller = ModelController("me")
        controller.register("s1", self._model(), wire_dtype="float32")
        snapshot = controller.snapshot_local("s1")
        assert all(v.dtype == np.float32 for v in snapshot.values())

    def test_local_version_counting(self):
        controller = ModelController("me")
        controller.register("s1", self._model())
        assert controller.note_local_update("s1") == 1
        assert controller.note_local_update("s1", num_samples=99) == 2
        assert controller.record("s1").num_samples == 99

    def test_apply_global_updates_parameters_and_version(self):
        controller = ModelController("me")
        model = self._model(seed=1)
        controller.register("s1", model)
        new_state = self._model(seed=2).state_dict()
        version = controller.apply_global("s1", new_state, round_index=0)
        assert version == 1
        np.testing.assert_allclose(model.state_dict()["0.weight"], new_state["0.weight"])

    def test_stale_global_update_ignored(self):
        controller = ModelController("me")
        model = self._model(seed=1)
        controller.register("s1", model)
        state_round1 = self._model(seed=2).state_dict()
        controller.apply_global("s1", state_round1, round_index=1)
        before = model.state_dict()
        controller.apply_global("s1", self._model(seed=3).state_dict(), round_index=0)
        after = model.state_dict()
        for key in before:
            np.testing.assert_array_equal(before[key], after[key])
        assert controller.global_version("s1") == 1

    def test_payload_nbytes_reflects_wire_dtype(self):
        controller = ModelController("me")
        record32 = controller.register("s1", self._model(), wire_dtype="float32")
        record64 = controller.register("s2", self._model(), wire_dtype="float64")
        assert record64.payload_nbytes == 2 * record32.payload_nbytes
