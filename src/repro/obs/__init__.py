"""Unified observability layer: metrics registry, sim-time tracer, logging.

The package is deliberately a leaf: nothing here imports runtime, scenario,
or broker modules.  Components expose plain attributes (``tracer``,
counters) and the :mod:`repro.obs.attach` helpers wire them up by duck
typing, so the hot paths pay a single ``is None`` check when observability
is disabled and literally nothing when a component was never attached.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "repro.obs.log": ("configure_logging", "get_logger"),
        "repro.obs.metrics": ("Gauge", "Histogram", "MetricsRegistry", "metric_key"),
        "repro.obs.trace": ("LifecycleTracer", "Tracer"),
    },
)
