"""Unified metrics registry for the simulation platform.

Two instrument kinds — :class:`Gauge` and :class:`Histogram` — each
addressed by a name plus an optional label set.
Components that need *live* instrumentation hold a direct reference to an
instrument (one attribute load + one method call per event); components
that already keep their own plain counters are absorbed through
*collectors*: callbacks run at snapshot time that copy the component's
counters into registry gauges.  Collectors cost nothing on the hot path,
which is how the registry stays near-zero-cost when unregistered.

Snapshots are plain dicts with deterministically sorted keys, so two runs
of the same scenario and seed serialize to byte-identical JSON.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Callable, Dict, List, Mapping, Optional, Tuple

__all__ = [
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "metric_key",
]

#: Latency-ish default bucket upper bounds, in simulated seconds.
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.001,
    0.005,
    0.01,
    0.05,
    0.1,
    0.5,
    1.0,
    5.0,
    10.0,
    60.0,
)


def metric_key(name: str, labels: Mapping[str, object]) -> str:
    """Render ``name{a=1,b=x}`` with labels sorted by key (stable across runs)."""
    if not labels:
        return name
    inner = ",".join(f"{k}={labels[k]}" for k in sorted(labels))
    return f"{name}{{{inner}}}"


class Gauge:
    """Point-in-time value (last write wins)."""

    __slots__ = ("key", "value")

    def __init__(self, key: str) -> None:
        self.key = key
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value


class Histogram:
    """Fixed-bucket histogram with count/total/min/max summary stats."""

    __slots__ = ("key", "buckets", "bucket_counts", "count", "total", "min", "max")

    def __init__(self, key: str, buckets: Tuple[float, ...] = DEFAULT_BUCKETS) -> None:
        self.key = key
        self.buckets = tuple(float(b) for b in buckets)
        self.bucket_counts = [0] * (len(self.buckets) + 1)
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def observe(self, value: float) -> None:
        # bisect_left returns the first bucket whose bound >= value (the
        # overflow slot when none is) at C speed — this runs once per
        # scheduler delivery of every ``scenario run``, inside its e2e wall.
        self.bucket_counts[bisect_left(self.buckets, value)] += 1
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    def summary(self) -> Dict[str, object]:
        doc: Dict[str, object] = {
            "count": self.count,
            "total": self.total,
            "min": self.min,
            "max": self.max,
            "buckets": {
                f"le_{bound:g}": self.bucket_counts[i]
                for i, bound in enumerate(self.buckets)
            },
        }
        doc["buckets"]["le_inf"] = self.bucket_counts[-1]  # type: ignore[index]
        return doc


class MetricsRegistry:
    """Get-or-create instrument store with snapshot-time collectors.

    ``gauge`` / ``histogram`` return the same object for the same
    (name, labels) pair, so hot paths can cache the instrument once at
    attach time and skip the dict lookup per event.
    """

    def __init__(self) -> None:
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}
        self._collectors: List[Callable[["MetricsRegistry"], None]] = []

    # ----------------------------------------------------------- instruments

    def gauge(self, name: str, **labels: object) -> Gauge:
        key = metric_key(name, labels)
        instrument = self._gauges.get(key)
        if instrument is None:
            instrument = self._gauges[key] = Gauge(key)
        return instrument

    def histogram(
        self,
        name: str,
        buckets: Tuple[float, ...] = DEFAULT_BUCKETS,
        **labels: object,
    ) -> Histogram:
        key = metric_key(name, labels)
        instrument = self._histograms.get(key)
        if instrument is None:
            instrument = self._histograms[key] = Histogram(key, buckets)
        return instrument

    # ------------------------------------------------------------ collectors

    def register_collector(self, collector: Callable[["MetricsRegistry"], None]) -> None:
        """Register a callback run at snapshot time.

        Collectors absorb components that keep their own plain counters
        (broker stats, topic-trie caches, scheduler counters, QoS dedup
        rings, contribution buffers) without touching their hot paths.
        """
        self._collectors.append(collector)

    def collect(self) -> None:
        for collector in self._collectors:
            collector(self)

    # --------------------------------------------------------------- exports

    def snapshot(self) -> Dict[str, Dict[str, object]]:
        """Run collectors, then return a deterministic nested dict."""
        self.collect()
        return {
            # No instrument is a counter; the empty section keeps the
            # snapshot format every stored ``*.metrics.json`` already has.
            "counters": {},
            "gauges": {key: self._gauges[key].value for key in sorted(self._gauges)},
            "histograms": {
                key: self._histograms[key].summary()
                for key in sorted(self._histograms)
            },
        }
