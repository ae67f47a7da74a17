"""The lazy package name tables still present every public name."""

from __future__ import annotations

import doctest
import importlib

import pytest

import repro

PACKAGES = ["repro"] + [
    f"repro.{name}"
    for name in (
        "baselines", "core", "experiments", "ml", "mqtt", "mqttfc",
        "obs", "runtime", "scenarios", "sim", "utils",
    )
]


@pytest.mark.parametrize("package_name", PACKAGES)
def test_every_public_name_resolves(package_name):
    package = importlib.import_module(package_name)
    assert package.__all__ and len(set(package.__all__)) == len(package.__all__)
    listed = dir(package)
    for name in package.__all__:
        assert getattr(package, name) is not None
        assert name in listed
    namespace: dict = {}
    exec(f"from {package_name} import *", namespace)
    assert set(package.__all__) <= set(namespace)


@pytest.mark.parametrize("package_name", PACKAGES)
def test_unknown_attribute_names_the_package(package_name):
    package = importlib.import_module(package_name)
    with pytest.raises(AttributeError, match=package_name.replace(".", r"\.")):
        package.no_such_name
    with pytest.raises(ImportError):
        exec(f"from {package_name} import no_such_name", {})


def test_names_resolve_to_the_defining_modules_objects():
    from repro.scenarios import ScenarioRunner
    from repro.scenarios.runner import ScenarioRunner as defined

    assert ScenarioRunner is defined
    core = importlib.import_module("repro.core")
    assert core.topics is importlib.import_module("repro.core.topics")


def test_quick_start_doctest_runs():
    results = doctest.testmod(repro)
    assert results.attempted == 3 and results.failed == 0
