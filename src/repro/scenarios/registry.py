"""Named scenario registry.

The built-ins cover the workload families the ROADMAP asks for — a control
run, churn-dominated fleets, stragglers under deadlines, degraded WANs,
bridged multi-region deployments and flash-crowd arrivals — each small
enough to run in CI in seconds.  All of them are plain
:class:`~repro.scenarios.spec.ScenarioSpec` values: ``get_scenario`` hands
back a fresh spec, so callers can ``with_seed``/``dataclasses.replace``
without affecting the registry.

Event times are *simulated* seconds on the experiment timeline (rounds for
these small models span a few hundred simulated milliseconds each; the
degraded-WAN scenario stretches that to seconds).

Register custom scenarios with :func:`register_scenario`, or skip the
registry entirely and feed :class:`ScenarioSpec` values (e.g. loaded from
JSON via ``ScenarioSpec.from_dict``) straight to the runner.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Dict, List

from repro.scenarios.spec import (
    FaultSpec,
    FleetSpec,
    NetworkSpec,
    ScenarioSpec,
    TopologySpec,
    TrainingSpec,
)
from repro.sim.events import ChurnEvent

__all__ = ["get_scenario", "register_scenario", "scenario_names", "scenario_summaries"]

_REGISTRY: Dict[str, Callable[[], ScenarioSpec]] = {}


def register_scenario(builder: Callable[[], ScenarioSpec], name: str = "") -> str:
    """Add a scenario builder to the registry; returns the registered name.

    Without ``name`` the builder is called once immediately to validate the
    spec and read its name; with ``name`` nothing is built until the first
    :func:`get_scenario` (how the built-ins register, so importing this
    module constructs no spec).  Re-registering a name replaces the previous
    builder.

    >>> from repro.scenarios import ScenarioSpec, get_scenario, register_scenario
    >>> register_scenario(lambda: ScenarioSpec(name="my-workload", seed=3))
    'my-workload'
    >>> get_scenario("my-workload").seed
    3
    """
    registered = name or builder().name
    _REGISTRY[registered] = builder
    return registered


def scenario_names() -> List[str]:
    """All registered scenario names, sorted."""
    return sorted(_REGISTRY)


def get_scenario(name: str) -> ScenarioSpec:
    """Return a fresh spec for ``name``; raises ``KeyError`` with the options."""
    builder = _REGISTRY.get(name)
    if builder is None:
        raise KeyError(
            f"unknown scenario {name!r}; available: {', '.join(scenario_names())}"
        )
    return builder()


def scenario_summaries() -> List[Dict[str, object]]:
    """One row per registered scenario (the ``scenario list`` table)."""
    rows: List[Dict[str, object]] = []
    for name in scenario_names():
        spec = get_scenario(name)
        rows.append(
            {
                "name": name,
                "clients": spec.fleet.num_clients,
                "rounds": spec.training.rounds,
                "regions": spec.topology.regions,
                "churn_events": len(spec.churn),
                "faults": len(spec.faults),
                "description": spec.description,
            }
        )
    return rows


# ------------------------------------------------------------------ built-ins


def _baseline() -> ScenarioSpec:
    return ScenarioSpec(
        name="baseline",
        description="control run: stable laptop fleet, no churn, no faults",
        seed=42,
        fleet=FleetSpec(num_clients=6),
        training=TrainingSpec(rounds=3),
    )


def _heavy_churn() -> ScenarioSpec:
    return ScenarioSpec(
        name="heavy-churn",
        description="clients crash every round (incl. via fault plan) and return",
        seed=42,
        fleet=FleetSpec(num_clients=8),
        training=TrainingSpec(rounds=4, round_deadline_s=5.0),
        churn=(
            ChurnEvent(time=0.60, action="leave", client_id="client_007",
                       detail="battery died mid-round"),
            ChurnEvent(time=1.00, action="leave", client_id="client_006",
                       detail="moved out of range"),
            ChurnEvent(time=1.20, action="reconnect", client_id="client_007",
                       detail="battery swapped"),
        ),
        faults=(
            FaultSpec(kind="client_crash", start_s=0.30, duration_s=0.40,
                      clients=("client_005",), rejoin=True,
                      detail="process OOM-killed, container restarts"),
        ),
    )


def _straggler_heavy() -> ScenarioSpec:
    return ScenarioSpec(
        name="straggler-heavy",
        description="slow-link windows push uploads past the round deadline",
        seed=42,
        fleet=FleetSpec(
            num_clients=8,
            tier_mix={"laptop": 0.4, "phone": 0.4, "rpi": 0.2},
        ),
        topology=TopologySpec(role_policy="memory_aware"),
        training=TrainingSpec(rounds=4, round_deadline_s=0.35),
        churn=(
            ChurnEvent(time=2.0, action="reconnect", client_id="client_002",
                       detail="congestion cleared, device returns"),
        ),
        faults=(
            FaultSpec(kind="client_slow", start_s=1.0, duration_s=1.2,
                      clients=("client_002", "client_005"), factor=0.02,
                      latency_add_s=0.05,
                      detail="background sync saturates the uplink"),
        ),
    )


def _degraded_wan() -> ScenarioSpec:
    return ScenarioSpec(
        name="degraded-wan",
        description="high-latency lossy WAN plus a broker slowdown window",
        seed=42,
        fleet=FleetSpec(num_clients=6),
        network=NetworkSpec(latency_scale=50.0, bandwidth_scale=0.05,
                            jitter_s=0.01, loss_rate=0.02),
        training=TrainingSpec(rounds=3, round_deadline_s=30.0),
        faults=(
            FaultSpec(kind="broker_slowdown", start_s=1.5, duration_s=3.0,
                      factor=500.0, detail="co-located batch job on the broker host"),
            FaultSpec(kind="link_degradation", start_s=6.5, duration_s=2.5,
                      clients=("client_001", "client_004"), factor=0.2,
                      latency_add_s=0.25, detail="cross-traffic on the last mile"),
        ),
    )


def _degraded_wan_int8() -> ScenarioSpec:
    """degraded-wan with int8-quantized updates: the bytes-vs-accuracy probe.

    Identical WAN conditions and fault plan to ``degraded-wan``; the only
    change is the update codec, so diffing the two scenarios' reports
    isolates what 8-bit quantization buys (wire bytes, ``messaging_s``) and
    costs (accuracy) under degraded transport.
    """
    base = _degraded_wan()
    return dataclasses.replace(
        base,
        name="degraded-wan-int8",
        description="degraded-wan with int8-quantized update wire (bytes vs accuracy)",
        training=dataclasses.replace(base.training, update_codec="int8"),
    )


def _bridged_multi_region() -> ScenarioSpec:
    return ScenarioSpec(
        name="bridged-multi-region",
        description="three bridged regional brokers, clients spread round-robin",
        seed=42,
        fleet=FleetSpec(num_clients=9),
        topology=TopologySpec(regions=3),
        training=TrainingSpec(rounds=3),
    )


def _flash_crowd() -> ScenarioSpec:
    return ScenarioSpec(
        name="flash-crowd",
        description="half the fleet joins mid-session in one burst",
        seed=42,
        fleet=FleetSpec(num_clients=10, initial_clients=5),
        training=TrainingSpec(rounds=4, round_deadline_s=5.0),
        churn=tuple(
            ChurnEvent(time=0.40, action="join", client_id=f"client_{index:03d}",
                       detail="flash-crowd arrival")
            for index in range(5, 10)
        ),
    )


def _round2_blackout() -> ScenarioSpec:
    # Round-anchored fault windows: both faults open relative to the moment
    # the lifecycle enters round 2's collecting phase, so the spec survives
    # deadline/fleet changes that would shift the wall clock under a
    # wall-anchored plan.
    return ScenarioSpec(
        name="round2-blackout",
        description="round-anchored blackout: links and broker degrade while round 2 collects",
        seed=42,
        fleet=FleetSpec(num_clients=6),
        training=TrainingSpec(rounds=4, round_deadline_s=5.0),
        faults=(
            FaultSpec(kind="link_degradation", round=2, phase="collecting",
                      duration_s=0.4, clients=("client_001", "client_004"),
                      factor=0.05, latency_add_s=0.05,
                      detail="regional backhaul outage opens with round 2"),
            FaultSpec(kind="broker_slowdown", round=2, phase="collecting",
                      start_s=0.05, duration_s=0.3, factor=40.0,
                      detail="co-located batch job lands mid-blackout"),
        ),
    )


def _mid_round_flash_crowd() -> ScenarioSpec:
    # Mid-round admission: the joins land while round 0's uploads are still
    # in flight; the coordinator folds each joiner into the live topology and
    # re-issues the grown aggregators' expected-contribution counts, and the
    # harness triggers the joiner's first upload once its set_role arrives.
    return ScenarioSpec(
        name="mid-round-flash-crowd",
        description="half the fleet joins mid-round; admission folds them into the live topology",
        seed=42,
        fleet=FleetSpec(num_clients=10, initial_clients=5, admission="mid_round"),
        training=TrainingSpec(rounds=4, round_deadline_s=5.0),
        churn=tuple(
            ChurnEvent(time=0.085 + 0.010 * (index - 5), action="join",
                       client_id=f"client_{index:03d}",
                       detail="flash-crowd arrival mid-round")
            for index in range(5, 10)
        ),
    )


for _name, _builder in (
    ("baseline", _baseline),
    ("heavy-churn", _heavy_churn),
    ("straggler-heavy", _straggler_heavy),
    ("degraded-wan", _degraded_wan),
    ("degraded-wan-int8", _degraded_wan_int8),
    ("bridged-multi-region", _bridged_multi_region),
    ("flash-crowd", _flash_crowd),
    ("round2-blackout", _round2_blackout),
    ("mid-round-flash-crowd", _mid_round_flash_crowd),
):
    register_scenario(_builder, name=_name)
