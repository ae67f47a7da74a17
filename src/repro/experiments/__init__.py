"""Experiment harness: the code that regenerates every figure of the paper.

Each module corresponds to one evaluation artefact (``README.md`` lists the
commands that regenerate them):

* :mod:`repro.experiments.fig7_accuracy` — Fig. 7, accuracy convergence of
  offline training vs 2-layer hierarchical SDFL with 5 clients;
* :mod:`repro.experiments.fig8_delay` — Fig. 8, total processing delay of 10
  FL rounds vs number of clients for hierarchical vs central aggregation;
* :mod:`repro.experiments.ablations` — ablation studies of the design choices
  the paper calls out (aggregator fraction, payload compression/batching,
  per-round role rearrangement, broker bridging, FL topologies, aggregation
  strategies);
* :mod:`repro.experiments.report` — plain-text table/series rendering used by
  the benchmark harness to print paper-style rows.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "repro.experiments.fig7_accuracy": ("Fig7Config", "Fig7Result", "run_fig7"),
        "repro.experiments.fig8_delay": ("Fig8Config", "Fig8Result", "run_fig8"),
        "repro.experiments.report": ("format_table", "format_series", "rows_to_markdown"),
    },
    submodules=("ablations",),
)
