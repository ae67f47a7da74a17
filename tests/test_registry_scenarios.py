"""Every registry scenario, one case each: pinned results, spec forms, accounting.

``tests/data/registry_scenarios.json`` pins, per named scenario at its
default seed, the signature (dispatch-order digest plus final model), the
``scenario sweep`` summary row and the per-round table that ``scenario run``
prints.  Regenerate it only for a change that is meant to move results, and
say so where the change is described.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.scenarios import (
    ResultsStore,
    ScenarioRunner,
    ScenarioSpec,
    compile_scenario,
    get_scenario,
    scenario_names,
    spec_hash,
)
from repro.scenarios.runner import ScenarioResult, execute_scenario

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
NAMES = scenario_names()


@pytest.fixture(scope="module")
def golden():
    path = os.path.join(REPO_ROOT, "tests", "data", "registry_scenarios.json")
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


@pytest.fixture(scope="module")
def executed():
    """Each registry scenario executed once (no store), shared by the module."""
    cache = {}

    def run(name: str) -> ScenarioResult:
        if name not in cache:
            cache[name] = execute_scenario(get_scenario(name))
        return cache[name]

    return run


def test_golden_file_covers_exactly_the_registry(golden):
    assert sorted(golden) == sorted(NAMES)


@pytest.mark.parametrize("name", NAMES)
class TestCommittedResults:
    def test_signature_matches_committed_golden(self, name, golden, executed):
        assert executed(name).signature == golden[name]["signature"]

    def test_summary_row_matches_committed_golden(self, name, golden, executed):
        row = executed(name).summary_row()
        assert row.pop("signature") == golden[name]["signature"][:12]
        assert row == golden[name]["summary"]

    def test_round_rows_match_committed_golden(self, name, golden, executed):
        assert executed(name).round_rows() == golden[name]["rounds"]


@pytest.mark.parametrize("name", NAMES)
class TestSpecForms:
    def test_spec_survives_json_round_trip(self, name):
        spec = get_scenario(name)
        rebuilt = ScenarioSpec.from_dict(json.loads(json.dumps(spec.as_dict())))
        assert rebuilt == spec
        assert spec_hash(rebuilt) == spec_hash(spec)

    def test_compiled_experiment_matches_spec(self, name):
        spec = get_scenario(name)
        experiment = compile_scenario(spec).experiment
        initial = spec.fleet.initial_clients or spec.fleet.num_clients
        assert len(experiment.clients) == spec.fleet.num_clients
        assert len(experiment.brokers) == spec.topology.regions
        assert len(experiment.participants()) == initial
        assert experiment.config.fl_rounds == spec.training.rounds
        assert experiment.config.seed == spec.seed


@pytest.mark.parametrize("name", NAMES)
class TestTrafficAccounting:
    def test_traffic_gauges_equal_broker_bytes_delivered(self, name, executed):
        result = executed(name)
        gauges = result.metrics["gauges"]
        brokers = result.experiment.brokers
        for broker in brokers:
            key = f"{{broker={broker.name}}}"
            assert gauges["broker_traffic_payload_bytes" + key] == broker.stats.bytes_delivered
            assert gauges["broker_bytes_delivered" + key] == broker.stats.bytes_delivered
        assert result.total_traffic_bytes == sum(b.stats.bytes_delivered for b in brokers)

    def test_round_traffic_fits_inside_the_run_total(self, name, executed):
        result = executed(name)
        rows = result.round_rows()
        assert [row["round"] for row in rows] == list(range(len(rows)))
        assert all(row["traffic_bytes"] > 0 and row["messages"] > 0 for row in rows)
        # Session setup (creation, joins, the first global model) is traffic
        # that belongs to no round.
        assert sum(row["traffic_bytes"] for row in rows) < result.total_traffic_bytes


@pytest.mark.parametrize("name", NAMES)
def test_stored_payload_renders_like_the_fresh_result(name, executed, tmp_path):
    fresh = executed(name)
    store = ResultsStore(str(tmp_path / "store"))
    key = spec_hash(fresh.spec)
    store.put_run(key, fresh.seed, fresh.spec, fresh.signature, fresh.to_payload())
    served = ScenarioResult.from_payload(fresh.spec, store.get_run(key, fresh.seed).payload)
    assert served.from_store and not fresh.from_store
    assert served.signature == fresh.signature
    assert served.metrics == fresh.metrics
    assert ScenarioRunner.format_rounds(served) == ScenarioRunner.format_rounds(fresh)
    assert ScenarioRunner.format_summary([served]) == ScenarioRunner.format_summary([fresh])
