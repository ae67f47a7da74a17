#!/usr/bin/env python3
"""Compare two sets of ``run.py --output`` documents, metric by metric.

    python3 benchmarks/e2e/compare.py parent.jsonl change.jsonl
    python3 benchmarks/e2e/compare.py first.jsonl second.jsonl --aa
    python3 benchmarks/e2e/compare.py one.jsonl            # spreads of one set

A set is a JSON-lines file: run the benchmark several times (different
``--seed`` each) with ``--output`` pointing at the same file.  For every
workload x end-to-end metric the table shows both medians, the quartiles,
the spread (inter-quartile distance as a share of the median), the delta as
a share of A's median (positive = B is worse) and the bound from
``BENCHMARK.json``.  Verdicts: ``ok``; ``worse`` (delta beyond the bound);
``unresolved`` (a spread wider than the bound, unless every B run beats every
A run).  ``--aa`` is for two sets from the same commit: any difference beyond
the bound in either direction, any unresolved row, any failed operation or
any differing ``sim.*`` count on a shared (workload, seed) exits 1.

Exit status: 0 all ok, 1 a row is worse (or ``--aa`` found a difference),
2 refused because cpu_count, python or numpy differ (``--force`` overrides).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
from typing import Any, Dict, List, Optional, Sequence, Tuple

REPO = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
ENVIRONMENT_KEYS = ("cpu_count", "python", "numpy")


def load(path: str) -> List[Dict[str, Any]]:
    with open(path, "r", encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


def summary(values: Sequence[float]) -> Tuple[float, float, float, float]:
    """(median, first quartile, third quartile, spread as a share of the median)."""
    median = statistics.median(values)
    if len(values) < 2:
        return median, median, median, 0.0
    first, _second, third = statistics.quantiles(values, n=4)
    return median, first, third, (third - first) / median if median else 0.0


def end_to_end(documents: Sequence[Dict[str, Any]]) -> Dict[Tuple[str, str], List[float]]:
    """(workload, metric) -> values of the untraced runs, in file order."""
    table: Dict[Tuple[str, str], List[float]] = {}
    for document in documents:
        if document["trace"]:
            continue
        for metric, entry in document["metrics"].items():
            table.setdefault((document["workload"], metric), []).append(entry["value"])
    return table


def simulated(documents: Sequence[Dict[str, Any]]) -> Dict[Tuple[str, int, str], float]:
    """(workload, seed, sim.* metric) -> exact simulated count of the traced runs."""
    return {
        (document["workload"], document["seed"], name): entry["value"]
        for document in documents
        if document["trace"]
        for name, entry in document["metrics"].items()
        if name.startswith("sim.")
    }


def verdict(
    a: Sequence[float], b: Sequence[float], definition: Dict[str, Any], aa: bool
) -> Tuple[str, float]:
    sign = 1.0 if definition["better"] == "lower" else -1.0
    median_a, _, _, spread_a = summary(a)
    median_b, _, _, spread_b = summary(b)
    delta = sign * (median_b - median_a) / median_a if median_a else 0.0
    bound = definition["bound"]
    if max(spread_a, spread_b) > bound:
        b_always_better = max(sign * v for v in b) < min(sign * v for v in a)
        return ("ok" if b_always_better and not aa else "unresolved"), delta
    if delta > bound or (aa and -delta > bound):
        return "worse" if not aa else "differ", delta
    return "ok", delta


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("a", help="JSON-lines file of run documents (the parent)")
    parser.add_argument("b", nargs="?", default=None, help="second set (the change)")
    parser.add_argument("--aa", action="store_true",
                        help="both sets are the same code: differences in either direction fail")
    parser.add_argument("--force", action="store_true",
                        help="compare even if cpu_count, python or numpy differ")
    args = parser.parse_args(argv)

    with open(os.path.join(REPO, "BENCHMARK.json"), "r", encoding="utf-8") as handle:
        definitions = {d["name"]: d for d in json.load(handle)["end_to_end"]}
    first = load(args.a)
    second = load(args.b) if args.b else first
    problems = 0

    for key in ENVIRONMENT_KEYS:
        seen = {json.dumps(d["environment"].get(key)) for d in first + second}
        if len(seen) > 1:
            print(f"environment.{key} differs: {', '.join(sorted(seen))}", file=sys.stderr)
            if not args.force:
                return 2
    failed = sum(document["failed"] for document in first + second)
    if failed:
        print(f"{failed} failed operation(s) in the compared runs", file=sys.stderr)
        problems += 1

    table_a, table_b = end_to_end(first), end_to_end(second)
    print(f"{'workload':15s} {'metric':12s} {'n':>5s} {'median A':>10s} {'q1..q3 A':>19s} "
          f"{'spread A':>8s} {'median B':>10s} {'q1..q3 B':>19s} {'spread B':>8s} "
          f"{'delta':>7s} {'bound':>6s}  verdict")
    for (workload, metric), a in table_a.items():
        b = table_b.get((workload, metric))
        definition = definitions.get(metric)
        if b is None or definition is None:
            continue
        median_a, q1_a, q3_a, spread_a = summary(a)
        median_b, q1_b, q3_b, spread_b = summary(b)
        word, delta = verdict(a, b, definition, args.aa)
        problems += word in ("worse", "differ") or (args.aa and word == "unresolved")
        print(f"{workload:15s} {metric:12s} {f'{len(a)}/{len(b)}':>5s} {median_a:10.4f} "
              f"{f'{q1_a:.4f}..{q3_a:.4f}':>19s} {spread_a:8.2%} {median_b:10.4f} "
              f"{f'{q1_b:.4f}..{q3_b:.4f}':>19s} {spread_b:8.2%} {delta:+7.2%} "
              f"{definition['bound']:6.0%}  {word}")

    sim_a, sim_b = simulated(first), simulated(second)
    for key in sorted(set(sim_a) & set(sim_b)):
        if sim_a[key] != sim_b[key]:
            print(f"{key[0]} seed {key[1]}: {key[2]} differs: {sim_a[key]} vs {sim_b[key]}")
            problems += args.aa
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
