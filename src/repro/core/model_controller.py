"""Client-side model controller.

The model controller (paper §III.B.2) keeps track of the models a client
handles, bound to the sessions the client participates in.  Every local or
global update goes through it, so the training pipeline and the aggregation
pipeline always observe a consistent view of "the model for session X":

* ``register`` binds a :class:`~repro.ml.models.ClassifierModel` to a session;
* ``snapshot_local`` captures the post-training parameters for upload (cast to
  the wire dtype, ``float32`` by default, to halve payload sizes exactly as a
  real deployment would) — the one place that dtype is stated: relayed
  aggregates and broadcast globals ship in the dtype the uploads arrived in;
* ``apply_global`` installs a received global model and bumps the version the
  client observes, which is what ``wait_global_update`` polls.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.core.errors import ModelNotRegisteredError
from repro.ml.models import ClassifierModel
from repro.ml.state import StateDict, cast_state_dict, state_dict_nbytes

__all__ = ["ModelController", "ModelRecord"]


@dataclass
class ModelRecord:
    """Bookkeeping for one session's model on one client."""

    session_id: str
    model_name: str
    model: ClassifierModel
    wire_dtype: str = "float32"
    local_version: int = 0
    global_version: int = 0
    last_global_round: int = -1
    num_samples: int = 0
    history: Dict[int, float] = field(default_factory=dict)

    @property
    def payload_nbytes(self) -> int:
        """Size of one model upload at the configured wire dtype."""
        return state_dict_nbytes(self.model.state_dict(copy=False), self.wire_dtype)


class ModelController:
    """Per-client registry of session-bound models."""

    def __init__(self, client_id: str) -> None:
        self.client_id = client_id
        self._records: Dict[str, ModelRecord] = {}

    # -------------------------------------------------------------- registry

    def register(
        self,
        session_id: str,
        model: ClassifierModel,
        model_name: Optional[str] = None,
        num_samples: int = 0,
        wire_dtype: str = "float32",
    ) -> ModelRecord:
        """Bind ``model`` to ``session_id`` (replacing any previous binding)."""
        record = ModelRecord(
            session_id=session_id,
            model_name=model_name or model.name,
            model=model,
            wire_dtype=wire_dtype,
            num_samples=int(num_samples),
        )
        self._records[session_id] = record
        return record

    def unregister(self, session_id: str) -> bool:
        """Remove the binding for ``session_id``; returns True if it existed."""
        return self._records.pop(session_id, None) is not None

    def has_model(self, session_id: str) -> bool:
        """Whether a model is registered for ``session_id``."""
        return session_id in self._records

    def record(self, session_id: str) -> ModelRecord:
        """The :class:`ModelRecord` for ``session_id`` (raises if unregistered)."""
        record = self._records.get(session_id)
        if record is None:
            raise ModelNotRegisteredError(
                f"client {self.client_id!r} has no model registered for session {session_id!r}"
            )
        return record

    def model(self, session_id: str) -> ClassifierModel:
        """The model bound to ``session_id``."""
        return self.record(session_id).model

    def sessions(self) -> list[str]:
        """Sessions with registered models (sorted)."""
        return sorted(self._records)

    # ------------------------------------------------------------- local side

    def note_local_update(self, session_id: str, num_samples: Optional[int] = None) -> int:
        """Record that local training updated the model; returns the new local version."""
        record = self.record(session_id)
        record.local_version += 1
        if num_samples is not None:
            record.num_samples = int(num_samples)
        return record.local_version

    def snapshot_local(self, session_id: str) -> StateDict:
        """Copy the current parameters, cast to the wire dtype, for upload."""
        record = self.record(session_id)
        return cast_state_dict(record.model.state_dict(copy=False), record.wire_dtype)

    # ------------------------------------------------------------ global side

    def apply_global(self, session_id: str, state: StateDict, round_index: int) -> int:
        """Install a received global model; returns the new global version.

        Stale updates (a round index we already applied) are ignored so that
        duplicated QoS-1 deliveries cannot roll a client backwards.
        """
        record = self.record(session_id)
        if round_index <= record.last_global_round:
            return record.global_version
        # load_state_dict casts into the live (float64) parameter arrays.
        record.model.load_state_dict(state)
        record.global_version += 1
        record.last_global_round = int(round_index)
        return record.global_version

    def global_version(self, session_id: str) -> int:
        """Number of global updates applied so far for ``session_id``."""
        return self.record(session_id).global_version

    def record_metric(self, session_id: str, round_index: int, value: float) -> None:
        """Store a per-round scalar metric (test accuracy in the experiments)."""
        self.record(session_id).history[int(round_index)] = float(value)
