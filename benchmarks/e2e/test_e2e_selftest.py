"""Self-test of the e2e benchmark harness (runs no workload, well under 5 s).

Covers what a wrong number would hide behind: the self-time arithmetic, the
generator span, the seeded spec generators, the install/uninstall round trip
and the shape of ``BENCHMARK.json``.
"""

from __future__ import annotations

import json
import os
import re

import pytest

# pytest puts this directory on sys.path (rootdir-less test file), as does
# running run.py from it, so the harness modules import by their plain names.
from ledger import Ledger, self_times, span_counts
from workloads import DEFAULT_SEED, FLEET_CLIENTS, WORKLOADS, build

REPO = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def test_self_time_of_nested_and_recursive_spans():
    spans = [
        ["a/outer", 0.0, 10.0, -1],
        ["b/inner", 1.0, 4.0, 0],
        ["a/outer", 2.0, 3.0, 1],  # the outer layer re-entered below b
        ["b/inner", 5.0, 7.0, 0],
        ["c/leaf", 5.5, 6.0, 3],
    ]
    selfs = self_times(spans)
    assert selfs == {"a/outer": (10 - 3 - 2) + 1, "b/inner": (3 - 1) + (2 - 0.5), "c/leaf": 0.5}
    # Parts sum to the whole: every second of the root is booked exactly once.
    assert sum(selfs.values()) == pytest.approx(10.0)
    assert span_counts(spans) == {"a/outer": 2, "b/inner": 2, "c/leaf": 1}


def test_wrapped_calls_nest_and_survive_exceptions():
    ledger = Ledger()
    inner = ledger.timed("x/inner", lambda: 1)

    def boom():
        inner()
        raise ValueError("boom")

    outer = ledger.timed("x/outer", boom)
    with pytest.raises(ValueError):
        outer()
    assert inner() == 1
    names_and_parents = [(span[0], span[3]) for span in ledger.spans]
    assert names_and_parents == [("x/outer", -1), ("x/inner", 0), ("x/inner", -1)]
    assert all(span[2] >= span[1] for span in ledger.spans)


def test_generator_span_times_the_iteration_not_the_consumer():
    ledger = Ledger()
    consumer = ledger.timed("y/consumer", lambda item: item)

    def produce(count):
        for index in range(count):
            yield index

    wrapped = ledger.timed("y/produce", produce)
    assert [consumer(item) for item in wrapped(3)] == [0, 1, 2]
    # One span per resumption (3 items + the final StopIteration), none of
    # them the parent of a consumer span.
    assert span_counts(ledger.spans) == {"y/produce": 4, "y/consumer": 3}
    assert all(span[3] == -1 for span in ledger.spans)
    assert ledger.counters["y/produce.yields"] == 3


def test_spec_generators_are_seeded_and_sized():
    for name in WORKLOADS:
        first, second, other = build(name, 7), build(name, 7), build(name, 8)
        assert first == second
        assert first.commands != other.commands or first.files != other.files
    wire = {name: json.loads(text) for name, text in build("fleet-wire", 7).files.items()}
    assert sorted(wire) == ["fleet-wire-f32.json", "fleet-wire-int8.json"]
    for spec, codec in ((wire["fleet-wire-f32.json"], "none"), (wire["fleet-wire-int8.json"], "int8")):
        assert spec["fleet"]["num_clients"] == FLEET_CLIENTS == 48
        assert spec["seed"] == 7 and spec["topology"]["regions"] == 1
        training = spec["training"]
        assert (training["update_codec"], training["compression_enabled"]) == (codec, True)
        assert training["train_for_real"] and training["round_deadline_s"] is None
    (control,) = (json.loads(text) for text in build("fleet-control", 7).files.values())
    assert control["fleet"]["num_clients"] == 48 and control["topology"]["regions"] == 3
    assert control["training"]["rounds"] == 30
    assert not control["training"]["train_for_real"]
    assert not control["training"]["compression_enabled"]


def test_grid_specs_are_the_registry_grids_at_the_default_seed():
    from repro.scenarios.sweep import SweepSpec, get_grid

    for name, text in build("grid-cold-warm", DEFAULT_SEED).files.items():
        grid = get_grid(name[: -len(".json")])
        assert SweepSpec.from_dict(json.loads(text)).cells() == grid.cells()
    moved = json.loads(build("grid-cold-warm", 9).files["codec-compare.json"])
    assert moved["base"]["seed"] == 9 and moved["axes"]["seed"][0] == 9


def test_install_uninstall_round_trip():
    ledger = Ledger()
    try:
        assert ledger.install() > 0
        patched = ledger.patched
        for holder, attribute, original in patched:
            assert vars(holder)[attribute] is not original
    finally:
        ledger.uninstall()
    assert ledger.patched == []
    for holder, attribute, original in patched:
        assert vars(holder)[attribute] is original


def test_benchmark_json_is_well_formed():
    with open(os.path.join(REPO, "BENCHMARK.json"), "r", encoding="utf-8") as handle:
        spec = json.load(handle)
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert spec["paths"] == ["benchmarks/e2e"]
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert 2 <= len(spec["workloads"]) <= 8
    assert 1 <= len(spec["end_to_end"]) <= 16 and 1 <= len(spec["per_layer"]) <= 128
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer") for m in spec[key]]
    assert len(names) == len(set(names))
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name) for name in names)
    for metric in spec["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert metric["better"] in ("lower", "higher") and 0 < metric["bound"] <= 0.25
    for metric in spec["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])
    # Every command of every workload has its cmd.<label>.wall_s row.
    labels = {f"cmd.{c.label}.wall_s" for name in WORKLOADS for c in build(name, 1).commands}
    assert labels == {name for name in names if name.startswith("cmd.")}
