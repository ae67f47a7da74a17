"""``tools/reach.py``: profile dumps of a forked child and its parent merge."""

from __future__ import annotations

import importlib.util
import subprocess
import sys
import textwrap
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

TOY = '''\
def called_in_parent():
    return 1


def called_in_child():
    return 2


def never_called():
    value = 3
    return value
'''


def _reach():
    spec = importlib.util.spec_from_file_location("reach", ROOT / "tools" / "reach.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_fork_and_os_exit_dumps_merge_and_the_uncalled_function_is_reported(tmp_path):
    package = tmp_path / "toy"
    package.mkdir()
    (package / "toy.py").write_text(TOY)
    outdir = tmp_path / "profiles"
    outdir.mkdir()
    # Both processes leave through os._exit, as ``python -m repro`` and pool
    # workers do, so neither dump may depend on atexit.
    script = textwrap.dedent(
        f"""
        import os, sys
        sys.path[:0] = [{str(ROOT / "tools")!r}, {str(package)!r}]
        import reach
        reach.install({str(outdir)!r}, {str(package)!r})
        import toy
        pid = os.fork()
        if pid == 0:
            toy.called_in_child()
            os._exit(0)
        os.waitpid(pid, 0)
        toy.called_in_parent()
        os._exit(0)
        """
    )
    subprocess.run([sys.executable, "-c", script], check=True, timeout=60)

    assert len(list(outdir.glob("*.json"))) == 2  # one dump per pid
    missed = _reach().never_entered(str(outdir), str(package))
    assert [(name, lines) for _path, _line, name, lines in missed] == [("never_called", 3)]
