"""Shared helpers for the benchmark harness.

Every benchmark regenerates one of the paper's evaluation artefacts (or one of
the ablations in ``repro.experiments.ablations``), prints the corresponding
table/series in a paper-comparable form, and asserts the qualitative *shape*
the paper reports (who wins, how the gap moves) rather than absolute numbers.

Run with::

    pytest benchmarks/ --benchmark-only -s
"""

from __future__ import annotations

import os

import pytest


def fast_mode() -> bool:
    """Whether the benchmarks should run in reduced-size mode.

    Set ``REPRO_BENCH_FAST=1`` to shrink the sweeps (useful on very slow
    machines); the default regenerates the full paper-sized experiments.
    """
    return os.environ.get("REPRO_BENCH_FAST", "0") not in ("0", "", "false", "False")


@pytest.fixture(scope="session")
def bench_fast() -> bool:
    """Session fixture exposing the fast-mode flag."""
    return fast_mode()


def emit(title: str, body: str) -> None:
    """Print a clearly delimited result block (visible with ``pytest -s``)."""
    bar = "=" * max(20, len(title) + 10)
    print(f"\n{bar}\n== {title}\n{bar}\n{body}\n")
