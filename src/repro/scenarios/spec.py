"""Declarative scenario specifications.

A :class:`ScenarioSpec` is a plain dataclass tree describing one complete
simulated FL deployment — fleet composition, broker topology, network
conditions, the training recipe, a churn timeline and a fault-injection plan.
Every node round-trips through ``as_dict``/``from_dict``, so specs load from
JSON files or inline dicts with no dependencies beyond the standard library,
in the spirit of model-driven specifications replacing hand-coded control
logic (GIPS) and composable event-process specs (IPPP).

The spec layer only *describes*; :mod:`repro.scenarios.compiler` turns a spec
into a wired :class:`~repro.runtime.experiment.FLExperiment` and
:mod:`repro.scenarios.runner` executes it deterministically.

Validation is eager and loud: unknown field names, bad device tiers, churn
events aimed at clients outside the fleet, and overlapping fault windows on
the same targets all raise :class:`ScenarioSpecError` at construction time,
long before a simulation starts.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional, Tuple

from repro.core.rounds import ANCHOR_PHASES
from repro.mqttfc.codec_spec import CodecError, parse_codec_grammar
from repro.sim.events import ChurnEvent
from repro.sim.tiers import DEVICE_TIERS

#: Admission policies for join/reconnect churn events.  ``round_boundary``
#: queues arrivals until the next round boundary (the classic behaviour);
#: ``mid_round`` admits them the moment their event time arrives — the
#: coordinator folds the joiner into the running round's topology and
#: re-issues the grown aggregators' expected-contribution counts.
ADMISSION_POLICIES: Tuple[str, ...] = ("round_boundary", "mid_round")

__all__ = [
    "ADMISSION_POLICIES",
    "FAULT_KINDS",
    "FaultSpec",
    "FleetSpec",
    "NetworkSpec",
    "ScenarioSpec",
    "ScenarioSpecError",
    "TopologySpec",
    "TrainingSpec",
]


class ScenarioSpecError(ValueError):
    """A scenario specification failed validation."""


#: Fault kinds the injector understands.
#:
#: ``broker_slowdown``
#:     Scale the broker's per-message/per-byte processing cost by ``factor``
#:     for the window (CPU contention on the broker host).
#: ``link_degradation``
#:     Replace the targeted clients' links with a degraded profile
#:     (``factor`` = bandwidth multiplier, plus ``latency_add_s``) for the
#:     window.
#: ``client_slow``
#:     A straggler window: same mechanics as ``link_degradation`` but with
#:     straggler-grade defaults; deadline-driven rounds will cut the client
#:     off if its upload misses the round deadline.
#: ``client_crash``
#:     Ungracefully disconnect the targeted clients at ``start_s``; with
#:     ``rejoin=True`` they are re-admitted at the first round boundary after
#:     ``start_s + duration_s``.
FAULT_KINDS: Tuple[str, ...] = (
    "broker_slowdown",
    "link_degradation",
    "client_slow",
    "client_crash",
)


def _build(cls, data: Mapping[str, object], context: str):
    """Construct dataclass ``cls`` from a plain mapping, rejecting unknown keys."""
    if not isinstance(data, Mapping):
        raise ScenarioSpecError(f"{context} must be a mapping, got {type(data).__name__}")
    names = {f.name for f in dataclasses.fields(cls)}
    unknown = set(data) - names
    if unknown:
        raise ScenarioSpecError(f"unknown {context} field(s): {sorted(unknown)}")
    try:
        return cls(**data)
    except (TypeError, ValueError) as exc:
        if isinstance(exc, ScenarioSpecError):
            raise
        raise ScenarioSpecError(f"invalid {context}: {exc}") from exc


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ScenarioSpecError(message)


@dataclass(frozen=True)
class FleetSpec:
    """Device population of the scenario.

    ``tier_mix`` (tier name → sampling weight) composes a heterogeneous fleet;
    when omitted every device is ``tier``.  ``initial_clients`` caps how many
    clients connect and join the session at setup — the remainder stay latent
    until a churn ``join`` event admits them (flash-crowd arrivals).
    ``admission`` decides *when* join/reconnect events take effect:
    ``round_boundary`` (default) queues them for the next boundary, while
    ``mid_round`` admits them inside the running round — the coordinator
    folds the joiner into the live topology and the grown aggregators'
    expected-contribution counts are re-issued on the ADMIT transition.
    """

    num_clients: int = 6
    tier: str = "laptop"
    tier_mix: Optional[Dict[str, float]] = None
    initial_clients: Optional[int] = None
    memory_pressure: float = 0.0
    admission: str = "round_boundary"

    def __post_init__(self) -> None:
        _require(
            self.admission in ADMISSION_POLICIES,
            f"unknown admission policy {self.admission!r}; options: {ADMISSION_POLICIES}",
        )
        _require(int(self.num_clients) >= 1, f"num_clients must be >= 1, got {self.num_clients}")
        _require(
            self.tier in DEVICE_TIERS,
            f"unknown device tier {self.tier!r}; options: {sorted(DEVICE_TIERS)}",
        )
        if self.tier_mix is not None:
            unknown = set(self.tier_mix) - set(DEVICE_TIERS)
            _require(not unknown, f"unknown tier(s) in tier_mix: {sorted(unknown)}")
            _require(
                all(w > 0 for w in self.tier_mix.values()),
                "tier_mix weights must be positive",
            )
        if self.initial_clients is not None:
            _require(
                1 <= int(self.initial_clients) <= int(self.num_clients),
                f"initial_clients must be in [1, {self.num_clients}], got {self.initial_clients}",
            )
        _require(0.0 <= self.memory_pressure <= 1.0, "memory_pressure must be in [0, 1]")


@dataclass(frozen=True)
class TopologySpec:
    """Broker layout and aggregation-topology policy."""

    regions: int = 1
    clustering: str = "hierarchical"
    aggregator_fraction: float = 0.30
    role_policy: str = "static"
    rebalance_every_round: bool = True

    def __post_init__(self) -> None:
        _require(int(self.regions) >= 1, f"regions must be >= 1, got {self.regions}")
        _require(
            self.clustering in ("hierarchical", "central"),
            f"unknown clustering policy {self.clustering!r}",
        )
        _require(
            0.0 < self.aggregator_fraction <= 1.0,
            "aggregator_fraction must be in (0, 1]",
        )


@dataclass(frozen=True)
class NetworkSpec:
    """Steady-state link conditions, applied on top of each device tier's link.

    A degraded-WAN scenario scales every link (``latency_scale`` up,
    ``bandwidth_scale`` down) and may add Gaussian jitter and QoS-0 loss;
    windowed degradations belong in the fault plan instead.

    ``wan_scale`` is a single-knob WAN-quality dial made for parameter grids:
    a value of *k* multiplies every link's latency by *k* and divides its
    bandwidth by *k*, on top of the explicit scales.  ``wan_scale=1`` (the
    default) is a pristine WAN; sweeping it over ``(1, 8, 32)`` degrades the
    whole deployment in one axis instead of two correlated ones.
    """

    latency_scale: float = 1.0
    bandwidth_scale: float = 1.0
    jitter_s: float = 0.0
    loss_rate: float = 0.0
    wan_scale: float = 1.0

    def __post_init__(self) -> None:
        _require(self.latency_scale > 0, "latency_scale must be positive")
        _require(self.bandwidth_scale > 0, "bandwidth_scale must be positive")
        _require(self.jitter_s >= 0, "jitter_s must be non-negative")
        _require(0.0 <= self.loss_rate < 1.0, "loss_rate must be in [0, 1)")
        _require(self.wan_scale > 0, "wan_scale must be positive")

    @property
    def effective_latency_scale(self) -> float:
        """Latency multiplier actually applied (``latency_scale * wan_scale``)."""
        return self.latency_scale * self.wan_scale

    @property
    def effective_bandwidth_scale(self) -> float:
        """Bandwidth multiplier actually applied (``bandwidth_scale / wan_scale``)."""
        return self.bandwidth_scale / self.wan_scale

    @property
    def is_default(self) -> bool:
        """Whether this spec leaves the tier-derived links untouched."""
        return (
            self.latency_scale == 1.0
            and self.bandwidth_scale == 1.0
            and self.jitter_s == 0.0
            and self.loss_rate == 0.0
            and self.wan_scale == 1.0
        )


@dataclass(frozen=True)
class TrainingSpec:
    """The FL recipe: rounds, local training, data partitioning, deadlines."""

    rounds: int = 3
    local_epochs: int = 1
    batch_size: int = 32
    learning_rate: float = 1e-3
    dataset_samples: int = 800
    client_data_fraction: float = 0.05
    partition: str = "iid"
    dirichlet_alpha: float = 0.5
    aggregation: str = "fedavg"
    train_for_real: bool = True
    compression_enabled: bool = True
    #: Update-compression codec for model contributions on the wire:
    #: ``"none"`` (full precision), ``"fp16"``, ``"int8"``, ``"topk[=d]"``,
    #: ``"delta"``, or a ``+``-composed pipeline such as ``"delta+int8"``.
    update_codec: str = "none"
    #: Simulated seconds each round may spend on messaging before late
    #: uploads are cut off.  Scenarios default to deadline-driven rounds so
    #: that timed churn/fault actions fire at their exact simulated times
    #: (run-to-completion drains would fast-forward through them).
    round_deadline_s: Optional[float] = 120.0

    def __post_init__(self) -> None:
        _require(int(self.rounds) >= 1, f"rounds must be >= 1, got {self.rounds}")
        _require(int(self.local_epochs) >= 1, "local_epochs must be >= 1")
        _require(
            self.partition in ("iid", "dirichlet", "shard"),
            f"unknown partition scheme {self.partition!r}",
        )
        _require(
            0.0 < self.client_data_fraction < 1.0,
            "client_data_fraction must be in (0, 1)",
        )
        if self.round_deadline_s is not None:
            _require(self.round_deadline_s > 0, "round_deadline_s must be positive")
        try:
            parse_codec_grammar(self.update_codec)
        except CodecError as exc:
            _require(False, f"invalid update_codec: {exc}")


@dataclass(frozen=True)
class FaultSpec:
    """One timed fault, executed via ``EventScheduler.call_at``.

    ``clients`` names the targets for the client-scoped kinds (empty tuple =
    every client); ``factor`` is the broker-cost multiplier for
    ``broker_slowdown`` and the bandwidth multiplier for the link kinds.

    A fault is either *wall-anchored* or *round-anchored*.  Wall-anchored
    (the default, ``round`` is ``None``): ``start_s`` is an absolute
    simulated time.  Round-anchored (``{"round": 2, "phase": "collecting"}``):
    the window opens when the session's round lifecycle first enters that
    (round, phase), plus ``start_s`` as a relative offset — so the spec
    survives deadline/fleet changes that shift the wall clock.  ``phase`` is
    one of ``planning``, ``collecting``, ``aggregating``.
    """

    kind: str
    start_s: float = 0.0
    duration_s: float = 0.0
    clients: Tuple[str, ...] = ()
    factor: float = 1.0
    latency_add_s: float = 0.0
    rejoin: bool = False
    detail: str = ""
    round: Optional[int] = None
    phase: str = "collecting"

    def __post_init__(self) -> None:
        _require(
            self.kind in FAULT_KINDS,
            f"unknown fault kind {self.kind!r}; options: {FAULT_KINDS}",
        )
        _require(self.start_s >= 0, f"fault start_s must be non-negative, got {self.start_s}")
        _require(self.duration_s >= 0, "fault duration_s must be non-negative")
        _require(self.factor > 0, "fault factor must be positive")
        _require(self.latency_add_s >= 0, "latency_add_s must be non-negative")
        if self.kind in ("broker_slowdown", "link_degradation", "client_slow"):
            _require(
                self.duration_s > 0,
                f"{self.kind} faults are windows and need duration_s > 0",
            )
        if self.round is not None:
            _require(int(self.round) >= 0, f"fault round must be >= 0, got {self.round}")
            _require(
                self.phase in ANCHOR_PHASES,
                f"unknown fault phase {self.phase!r}; options: {ANCHOR_PHASES}",
            )
        # Tuples, not lists, so specs stay hashable/frozen after from_dict.
        if not isinstance(self.clients, tuple):
            object.__setattr__(self, "clients", tuple(self.clients))

    @property
    def is_round_anchored(self) -> bool:
        """Whether the window opens on a lifecycle (round, phase) entry."""
        return self.round is not None

    @property
    def end_s(self) -> float:
        """When the window closes: absolute time, or offset when round-anchored."""
        return self.start_s + self.duration_s

    def overlaps(self, other: "FaultSpec") -> bool:
        """Whether two same-kind windows collide on at least one target.

        Windows on different anchors (wall vs round, or different
        (round, phase) anchors) are never considered overlapping — their
        relative timing is only known at run time.
        """
        if self.kind != other.kind:
            return False
        if self.is_round_anchored != other.is_round_anchored:
            return False
        if self.is_round_anchored and (
            self.round != other.round or self.phase != other.phase
        ):
            return False
        if self.start_s >= other.end_s or other.start_s >= self.end_s:
            return False
        if self.kind == "broker_slowdown":
            return True  # broker slowdowns are global
        mine = set(self.clients)
        theirs = set(other.clients)
        if not mine or not theirs:  # empty target set means "all clients"
            return True
        return bool(mine & theirs)


@dataclass(frozen=True)
class ScenarioSpec:
    """A complete declarative scenario."""

    name: str
    description: str = ""
    seed: int = 42
    fleet: FleetSpec = field(default_factory=FleetSpec)
    topology: TopologySpec = field(default_factory=TopologySpec)
    network: NetworkSpec = field(default_factory=NetworkSpec)
    training: TrainingSpec = field(default_factory=TrainingSpec)
    churn: Tuple[ChurnEvent, ...] = ()
    faults: Tuple[FaultSpec, ...] = ()

    def __post_init__(self) -> None:
        _require(bool(self.name), "scenario name must be non-empty")
        if not isinstance(self.churn, tuple):
            object.__setattr__(self, "churn", tuple(self.churn))
        if not isinstance(self.faults, tuple):
            object.__setattr__(self, "faults", tuple(self.faults))
        self._validate_churn()
        self._validate_faults()

    # -------------------------------------------------------------- validation

    def client_ids(self) -> Tuple[str, ...]:
        """The fleet's client ids, in index order (``client_000`` ...)."""
        return tuple(f"client_{i:03d}" for i in range(self.fleet.num_clients))

    def _validate_churn(self) -> None:
        valid = set(self.client_ids())
        initial = self.fleet.initial_clients or self.fleet.num_clients
        initial_ids = set(self.client_ids()[:initial])
        for event in self.churn:
            _require(
                event.client_id in valid,
                f"churn event targets unknown client {event.client_id!r} "
                f"(fleet has {self.fleet.num_clients} clients)",
            )
            if event.action == "join":
                _require(
                    event.client_id not in initial_ids,
                    f"churn join targets {event.client_id!r}, which is already "
                    "part of the initial cohort; use a latent client "
                    "(set fleet.initial_clients below num_clients)",
                )

    def _validate_faults(self) -> None:
        valid = set(self.client_ids())
        for fault in self.faults:
            unknown = set(fault.clients) - valid
            _require(
                not unknown,
                f"{fault.kind} fault targets unknown client(s): {sorted(unknown)}",
            )
            if fault.kind in ("link_degradation", "client_slow", "client_crash"):
                _require(
                    bool(fault.clients),
                    f"{fault.kind} faults must name their target clients",
                )
            if fault.round is not None:
                _require(
                    int(fault.round) < int(self.training.rounds),
                    f"{fault.kind} fault is anchored to round {fault.round}, but "
                    f"the scenario only runs {self.training.rounds} round(s)",
                )
        for i, fault in enumerate(self.faults):
            for other in self.faults[i + 1:]:
                _require(
                    not fault.overlaps(other),
                    f"overlapping {fault.kind} fault windows "
                    f"[{fault.start_s}, {fault.end_s}) and "
                    f"[{other.start_s}, {other.end_s}) on shared targets",
                )

    # -------------------------------------------------------------- dict forms

    def as_dict(self) -> Dict[str, object]:
        """Nested plain-dict form, suitable for ``json.dump``."""
        return {
            "name": self.name,
            "description": self.description,
            "seed": int(self.seed),
            "fleet": dataclasses.asdict(self.fleet),
            "topology": dataclasses.asdict(self.topology),
            "network": dataclasses.asdict(self.network),
            "training": dataclasses.asdict(self.training),
            "churn": [event.as_dict() for event in self.churn],
            "faults": [dataclasses.asdict(fault) for fault in self.faults],
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "ScenarioSpec":
        """Build and validate a spec from a nested plain dict (JSON-loadable)."""
        if not isinstance(data, Mapping):
            raise ScenarioSpecError(f"scenario spec must be a mapping, got {type(data).__name__}")
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ScenarioSpecError(f"unknown scenario field(s): {sorted(unknown)}")
        if "name" not in data:
            raise ScenarioSpecError("scenario spec needs a 'name'")
        try:
            churn = tuple(
                ChurnEvent.from_dict(entry) for entry in data.get("churn", ())  # type: ignore[arg-type]
            )
        except ValueError as exc:
            raise ScenarioSpecError(str(exc)) from exc
        faults = tuple(
            _build(FaultSpec, entry, "fault") for entry in data.get("faults", ())  # type: ignore[union-attr]
        )
        return cls(
            name=str(data["name"]),
            description=str(data.get("description", "")),
            seed=int(data.get("seed", 42)),  # type: ignore[arg-type]
            fleet=_build(FleetSpec, data.get("fleet", {}), "fleet"),
            topology=_build(TopologySpec, data.get("topology", {}), "topology"),
            network=_build(NetworkSpec, data.get("network", {}), "network"),
            training=_build(TrainingSpec, data.get("training", {}), "training"),
            churn=churn,
            faults=faults,
        )

    def with_seed(self, seed: int) -> "ScenarioSpec":
        """A copy of this spec pinned to a different seed."""
        return dataclasses.replace(self, seed=int(seed))
