"""Import hygiene: a CLI verb loads only the modules it runs.

Each row starts a fresh interpreter, calls ``repro.cli.main`` and reads back
``sys.modules``: the verbs that read the registry or the results store must
not import numpy, the execution stack or ``sqlite3`` (the store is plain JSON
files), and a ``--no-store`` run must not import the worker pool or the figure
harnesses.
"""

from __future__ import annotations

import json
import os
import signal
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
        ["scenario", "grid", "--spec", GRID_SPEC, "--store", "store"], root
    )
    assert code == 0 and "0 cached, 4 executed" in stderr, stderr
    return root


@pytest.mark.parametrize(
    "argv",
    [
        ["scenario", "list"],
        ["scenario", "grid", "--list"],
        ["scenario", "schema"],
        ["scenario", "store", "ls", "--store", "store"],
        ["scenario", "grid", "--spec", GRID_SPEC, "--store", "store", "--workers", "2"],
    ],
    ids=["list", "grid-list", "schema", "store-ls", "warm-grid"],
)
def test_verbs_that_execute_nothing_leave_the_execution_stack_unloaded(argv, warm_store):
    code, stderr, modules = _modules_after(argv, warm_store)
    assert code == 0
    if "--spec" in argv:
        assert "4 cached, 0 executed" in stderr
    assert not modules.intersection(EXECUTION_STACK)
    if "--store" in argv:
        assert "sqlite3" not in modules


def test_a_no_store_run_loads_no_store_pool_or_figure_code(tmp_path):
    code, _, modules = _modules_after(["scenario", "run", "baseline", "--no-store"], tmp_path)
    assert code == 0
    assert "repro.runtime.experiment" in modules
    assert not modules.intersection(NOT_FOR_A_PLAIN_RUN)


@pytest.mark.parametrize(
    "argv",
    [
        ["scenario", "run", "nope"],
        ["scenario", "run", "--spec", "missing.json"],
        ["scenario", "run", "--spec", "invalid.json"],
        ["scenario", "sweep", "baseline", "nope"],
    ],
    ids=["unknown-name", "missing-spec", "invalid-spec", "unknown-sweep-name"],
)
def test_a_refused_run_opens_no_store(argv, tmp_path):
    (tmp_path / "invalid.json").write_text('{"name": "x", "fleet": {"num_clients": 0}}')
    code, stderr, modules = _modules_after(argv, tmp_path)
    assert code == 2 and stderr.strip()
    assert not (tmp_path / ".repro").exists()
    assert "sqlite3" not in modules


def test_bare_import_loads_only_the_lazy_helper(tmp_path):
    done = _python(
        "import json, sys; import repro; "
        "print(json.dumps(sorted(m for m in sys.modules if m.startswith('repro'))))",
        tmp_path,
    )
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == ["repro", "repro._lazy"]


# ------------------------------------------------- ``python -m repro`` exit
#
# ``__main__`` leaves through ``os._exit`` after a normal return, skipping
# interpreter teardown: nothing the interpreter would have flushed, reaped or
# written on the way out may go missing.


def _buffered_env():
    """The caller's environment with the streams left block-buffered."""
    env = {k: v for k, v in os.environ.items() if k not in ("REPRO_STORE", "PYTHONUNBUFFERED")}
    env["PYTHONPATH"] = SRC
    return env


def _repro(argv, cwd, stdout=subprocess.PIPE) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "repro", *argv], cwd=cwd, env=_buffered_env(),
        stdout=stdout, stderr=subprocess.PIPE, timeout=120, start_new_session=True,
    )


def _main_in_process(argv, cwd) -> subprocess.CompletedProcess:
    """The same command through ``cli.main`` and a full interpreter teardown."""
    return _python(f"import sys; from repro.cli import main; sys.exit(main({list(argv)!r}))", cwd)


@pytest.mark.parametrize(
    "argv, status",
    [(["scenario", "list"], 0), (["scenario", "run", "no-such-scenario"], 2)],
    ids=["success", "usage-error"],
)
def test_module_entry_point_flushes_pipe_and_file_and_keeps_the_status(argv, status, tmp_path):
    reference = _main_in_process(argv, tmp_path)
    assert reference.returncode == status
    piped = _repro(argv, tmp_path)
    with open(tmp_path / "out.txt", "w+b") as handle:  # a file is block-buffered
        filed = _repro(argv, tmp_path, stdout=handle)
        handle.seek(0)
        written = handle.read()
    assert piped.returncode == filed.returncode == status
    assert piped.stdout == written == reference.stdout.encode()
    assert piped.stderr == filed.stderr == reference.stderr.encode()


def test_module_entry_point_leaves_no_grid_worker_behind(tmp_path):
    child = subprocess.Popen(
        [sys.executable, "-m", "repro", "scenario", "grid", "--spec", GRID_SPEC,
         "--workers", "2", "--no-store"],
        cwd=tmp_path, env=_buffered_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        start_new_session=True,
    )
    stdout, stderr = child.communicate(timeout=120)
    assert child.returncode == 0, stderr
    reference = _main_in_process(child.args[3:], tmp_path).stdout.encode()
    # Everything below the headline (which prints the wall time) is the run.
    assert stdout.split(b"\n", 1)[1] == reference.split(b"\n", 1)[1]
    # The child led its own session, so its pool workers were its process
    # group: with the leader reaped, any survivor keeps the group alive.
    try:
        os.killpg(child.pid, 0)
    except ProcessLookupError:
        return
    os.killpg(child.pid, signal.SIGKILL)
    pytest.fail("a grid worker outlived `python -m repro`")


def test_module_entry_point_writes_complete_trace_files(tmp_path):
    argv = ["scenario", "run", "baseline", "--no-store", "--trace"]
    assert _repro(argv + ["fast-exit"], tmp_path).returncode == 0
    assert _main_in_process(argv + ["teardown"], tmp_path).returncode == 0
    names = sorted(os.listdir(tmp_path / "teardown"))
    assert len(names) == 3 and names == sorted(os.listdir(tmp_path / "fast-exit"))
    for name in names:
        assert (tmp_path / "fast-exit" / name).read_bytes() == (tmp_path / "teardown" / name).read_bytes()
