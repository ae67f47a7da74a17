"""Import hygiene: a CLI verb loads only the modules it runs.

Each row starts a fresh interpreter, calls ``repro.cli.main`` and reads back
``sys.modules``: the verbs that read the registry or the results store must
not import numpy or the execution stack, and a ``--no-store`` run must not
import sqlite, the worker pool or the figure harnesses.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

import repro

SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
GRID_SPEC = os.path.join(os.path.dirname(__file__), "data", "grid_smoke.json")

EXECUTION_STACK = (
    "numpy",
    "repro.runtime.experiment",
    "repro.core.client",
    "repro.mqtt.broker",
    "repro.ml",
)
NOT_FOR_A_PLAIN_RUN = (
    "sqlite3",
    "multiprocessing.pool",
    "repro.experiments.fig7_accuracy",
    "repro.experiments.fig8_delay",
    "repro.experiments.ablations",
    "repro.scenarios.serve",
)


def _python(code: str, cwd) -> subprocess.CompletedProcess:
    env = {k: v for k, v in os.environ.items() if k != "REPRO_STORE"}
    env["PYTHONPATH"] = SRC
    return subprocess.run(
        [sys.executable, "-c", code], cwd=cwd, env=env,
        capture_output=True, text=True, timeout=120,
    )


def _modules_after(argv, cwd):
    """``(exit code, stderr, sys.modules)`` of ``repro.cli.main(argv)``."""
    done = _python(
        "import json, sys; from repro.cli import main; "
        f"rc = main({list(argv)!r}); "
        "print(); print(json.dumps([rc, sorted(sys.modules)]))",
        cwd,
    )
    assert done.returncode == 0, done.stderr
    code, modules = json.loads(done.stdout.splitlines()[-1])
    return code, done.stderr, set(modules)


@pytest.fixture(scope="module")
def warm_store(tmp_path_factory):
    """A store already holding every cell of the smoke grid."""
    root = tmp_path_factory.mktemp("startup")
    code, stderr, _ = _modules_after(
        ["scenario", "grid", "--spec", GRID_SPEC, "--store", "store.sqlite"], root
    )
    assert code == 0 and "0 cached, 4 executed" in stderr, stderr
    return root


@pytest.mark.parametrize(
    "argv",
    [
        ["scenario", "list"],
        ["scenario", "grid", "--list"],
        ["scenario", "schema"],
        ["scenario", "store", "ls", "--store", "store.sqlite"],
        ["scenario", "grid", "--spec", GRID_SPEC, "--store", "store.sqlite", "--workers", "2"],
    ],
    ids=["list", "grid-list", "schema", "store-ls", "warm-grid"],
)
def test_verbs_that_execute_nothing_leave_the_execution_stack_unloaded(argv, warm_store):
    code, stderr, modules = _modules_after(argv, warm_store)
    assert code == 0
    if "--spec" in argv:
        assert "4 cached, 0 executed" in stderr
    assert not modules.intersection(EXECUTION_STACK)


def test_a_no_store_run_loads_no_store_pool_or_figure_code(tmp_path):
    code, _, modules = _modules_after(["scenario", "run", "baseline", "--no-store"], tmp_path)
    assert code == 0
    assert "repro.runtime.experiment" in modules
    assert not modules.intersection(NOT_FOR_A_PLAIN_RUN)


def test_bare_import_loads_only_the_lazy_helper(tmp_path):
    done = _python(
        "import json, sys; import repro; "
        "print(json.dumps(sorted(m for m in sys.modules if m.startswith('repro'))))",
        tmp_path,
    )
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == ["repro", "repro._lazy"]
