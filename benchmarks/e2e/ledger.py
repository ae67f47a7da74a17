"""Outside-in span ledger: timing wrappers around each layer's public callables.

The benchmark owns all instrumentation (nothing inside ``src/`` is edited):
:meth:`Ledger.install` replaces every target in :data:`TARGETS` — in each
loaded ``repro.*`` module namespace that holds the function, or on the class
that defines the method — with a wrapper that records one span per call, and
:meth:`Ledger.uninstall` puts every original object back.

A span is ``[name, start, end, parent]`` (``name`` is ``layer/callable``, host ``perf_counter`` seconds,
``parent`` an index into the span list, ``-1`` for a root).  A layer's
**self time** is the sum over its spans of ``duration - direct children``,
so nested and recursive calls are never double counted and the self times of
all layers add up to the duration of the root spans exactly.

Targets that no longer exist are skipped, so a later PR that deletes a
wrapped callable moves ``trace.targets_patched`` instead of breaking the
benchmark.
"""

from __future__ import annotations

import importlib
import inspect
import sys
from collections import Counter
from time import perf_counter
from typing import Any, Callable, Dict, Iterable, List, Sequence, Tuple

__all__ = ["Ledger", "TARGETS", "self_times", "span_counts"]

Span = Sequence[Any]  # [name, start, end, parent]

#: (layer, module, attribute) — ``Class.method`` patches the class and every
#: subclass that overrides the method.  Spans are named ``layer/callable``
#: (``layer/registered`` for a registered callback); the layer is where the
#: call's self time is booked.
TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("cli", "repro.cli", "main"),
    ("scenarios.compiler", "repro.scenarios.compiler", "compile_scenario"),
    ("scenarios.runner", "repro.scenarios.runner", "ScenarioRunner.run"),
    ("scenarios.runner", "repro.scenarios.runner", "ScenarioRunner.run_grid"),
    ("scenarios.runner", "repro.scenarios.runner", "execute_scenario"),
    ("scenarios.store", "repro.scenarios.store", "ResultsStore.get_run"),
    ("scenarios.store", "repro.scenarios.store", "ResultsStore.put_run"),
    ("scenarios.store", "repro.scenarios.store", "ResultsStore.record_grid"),
    ("scenarios.store", "repro.scenarios.store", "ResultsStore.resolve_grid"),
    ("scenarios.store", "repro.scenarios.store", "ResultsStore.runs"),
    ("scenarios.store", "repro.scenarios.store", "ResultsStore.grids"),
    ("experiments.fig", "repro.experiments.fig7_accuracy", "run_fig7"),
    ("experiments.fig", "repro.experiments.fig8_delay", "run_fig8"),
    ("experiments.report", "repro.experiments.report", "format_table"),
    ("experiments.report", "repro.experiments.report", "write_grid_report"),
    ("runtime.experiment.setup", "repro.runtime.experiment", "FLExperiment.setup"),
    ("runtime.experiment.round", "repro.runtime.experiment", "FLExperiment.run_round"),
    ("runtime.scheduler", "repro.runtime.scheduler", "EventScheduler.run_until_idle"),
    ("runtime.scheduler", "repro.runtime.scheduler", "EventScheduler.run_until_quiet"),
    ("runtime.scheduler", "repro.runtime.scheduler", "EventScheduler.run_until_time"),
    ("runtime.scheduler", "repro.runtime.scheduler", "EventScheduler.run_until"),
    ("runtime.scheduler", "repro.runtime.scheduler", "EventScheduler.cancel_deliveries"),
    ("mqtt.broker", "repro.mqtt.broker", "MQTTBroker.publish"),
    ("mqtt.broker", "repro.mqtt.broker", "MQTTBroker.subscribe"),
    ("mqtt.broker", "repro.mqtt.broker", "MQTTBroker.connect"),
    ("mqttfc.serialization", "repro.mqttfc.serialization", "encode_payload_frame"),
    ("mqttfc.serialization", "repro.mqttfc.serialization", "decode_payload"),
    ("mqttfc.compression", "repro.mqttfc.compression", "compress_frame"),
    ("mqttfc.compression", "repro.mqttfc.compression", "decompress_payload"),
    ("mqttfc.batching", "repro.mqttfc.batching", "BatchEncoder.iter_payloads_frame"),
    ("mqttfc.batching", "repro.mqttfc.batching", "BatchAssembler.add"),
    ("mqttfc.codecs", "repro.mqttfc.codecs", "UpdateCodec.encode_state"),
    ("mqttfc.codecs", "repro.mqttfc.codecs", "UpdateCodec.decode_state"),
    ("core.handlers", "repro.core.client", "SDFLMQClient.send_local"),
    ("core.handlers", "repro.core.clustering", "ClusteringEngine.build"),
    ("core.aggregation", "repro.core.aggregation", "AggregationStrategy.aggregate"),
    ("ml.train", "repro.ml.models", "ClassifierModel.fit"),
    ("ml.train", "repro.ml.models", "ClassifierModel.train_epoch"),
    ("ml.eval", "repro.ml.models", "ClassifierModel.evaluate"),
    ("obs", "repro.obs.attach", "attach_experiment_metrics"),
    ("obs", "repro.obs.metrics", "MetricsRegistry.snapshot"),
    # Registration hooks: the registered callable is what gets the span.
    ("mqttfc.rfc", "repro.mqtt.client", "MQTTClient.message_callback_add"),
    ("core.handlers", "repro.mqttfc.rfc", "FleetControlEndpoint.register"),
)

#: Targets whose wrapper times the *callback being registered* — their second
#: argument after ``self``, always passed positionally — not the call itself.
_REGISTRATIONS = frozenset(
    {"MQTTClient.message_callback_add", "FleetControlEndpoint.register"}
)


def self_times(spans: Iterable[Span]) -> Dict[str, float]:
    """Per-name self time: each span's duration minus its direct children."""
    spans = list(spans)
    children = [0.0] * len(spans)
    for _name, start, end, parent in spans:
        if parent >= 0:
            children[parent] += end - start
    totals: Dict[str, float] = {}
    for (name, start, end, _parent), covered in zip(spans, children):
        totals[name] = totals.get(name, 0.0) + (end - start) - covered
    return totals


def span_counts(spans: Iterable[Span]) -> Dict[str, int]:
    """Number of spans recorded per name."""
    return dict(Counter(span[0] for span in spans))


class Ledger:
    """Records spans and counters for one traced pass."""

    def __init__(self) -> None:
        self.spans: List[List[Any]] = []
        self.counters: Counter = Counter()
        #: ``ScenarioResult`` objects returned by ``execute_scenario``.
        self.results: List[Any] = []
        self._stack: List[int] = []
        self._patched: List[Tuple[Any, str, Any]] = []  # (holder, attr, original)

    # ------------------------------------------------------------- wrapping

    def timed(
        self,
        name: str,
        func: Callable[..., Any],
        after: "Callable[[tuple, Any], None] | None" = None,
    ) -> Callable[..., Any]:
        """``func`` wrapped in a span; ``after(args, result)`` feeds counters."""
        if inspect.isgeneratorfunction(func):
            return self._timed_generator(name, func)
        spans, stack = self.spans, self._stack

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        wrapper.__wrapped__ = func  # type: ignore[attr-defined]
        return wrapper

    def _timed_generator(self, name: str, func: Callable[..., Any]) -> Callable[..., Any]:
        """One span per resumption, so the consumer's time between ``next``
        calls is not booked to the generator's layer."""
        spans, stack, counters = self.spans, self._stack, self.counters

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            iterator = func(*args, **kwargs)
            while True:
                span = [name, 0.0, 0.0, stack[-1] if stack else -1]
                stack.append(len(spans))
                spans.append(span)
                span[1] = perf_counter()
                try:
                    item = next(iterator)
                except StopIteration:
                    return
                finally:
                    span[2] = perf_counter()
                    stack.pop()
                counters[name + ".yields"] += 1
                yield item

        wrapper.__wrapped__ = func  # type: ignore[attr-defined]
        return wrapper

    def _registering(self, name: str, func: Callable[..., Any]) -> Callable[..., Any]:
        """``func`` unchanged, except that the callback it is handed gets a ``name`` span."""

        def wrapper(self_: Any, key: Any, callback: Callable[..., Any], *rest: Any) -> Any:
            return func(self_, key, self.timed(name, callback), *rest)

        wrapper.__wrapped__ = func  # type: ignore[attr-defined]
        return wrapper

    # ----------------------------------------------------------- counters

    def _after(self, attribute: str) -> "Callable[[tuple, Any], None] | None":
        counters, results = self.counters, self.results

        def compressed(args: tuple, result: Any) -> None:
            counters["compress.bytes_in"] += args[0].nbytes
            counters["compress.bytes_out"] += result.nbytes
            counters["compress.kept"] += result.nbytes < args[0].nbytes

        def store_read(_args: tuple, result: Any) -> None:
            counters["store.hits"] += result is not None

        return {
            "compress_frame": compressed,
            "ResultsStore.get_run": store_read,
            "execute_scenario": lambda _args, result: results.append(result),
        }.get(attribute)

    # ---------------------------------------------------- install / uninstall

    def install(self) -> int:
        """Patch every resolvable target; returns how many objects were replaced."""
        for name, module_name, attribute in TARGETS:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                continue
            if "." in attribute:
                class_name, method = attribute.split(".")
                base = getattr(module, class_name, None)
                if not inspect.isclass(base):
                    continue
                for cls in _with_subclasses(base):
                    original = cls.__dict__.get(method)
                    if inspect.isfunction(original):
                        self._patch(cls, method, original, self._wrap(name, attribute, original))
            else:
                original = getattr(module, attribute, None)
                if not inspect.isfunction(original):
                    continue
                wrapped = self._wrap(name, attribute, original)
                # ``from x import f`` copies the binding: replace it in every
                # loaded repro module that holds this exact function object.
                for holder_name, holder in list(sys.modules.items()):
                    if holder is None or not (
                        holder_name == "repro" or holder_name.startswith("repro.")
                    ):
                        continue
                    for key, value in list(vars(holder).items()):
                        if value is original:
                            self._patch(holder, key, original, wrapped)
        return len(self._patched)

    def _wrap(self, layer: str, attribute: str, original: Callable[..., Any]) -> Callable[..., Any]:
        if attribute in _REGISTRATIONS:
            return self._registering(f"{layer}/registered", original)
        name = f"{layer}/{attribute.rsplit('.', 1)[-1]}"
        return self.timed(name, original, self._after(attribute))

    def _patch(self, holder: Any, attribute: str, original: Any, wrapped: Any) -> None:
        setattr(holder, attribute, wrapped)
        self._patched.append((holder, attribute, original))

    def uninstall(self) -> None:
        """Restore every patched attribute to the original object."""
        while self._patched:
            holder, attribute, original = self._patched.pop()
            setattr(holder, attribute, original)

    @property
    def patched(self) -> List[Tuple[Any, str, Any]]:
        """``(holder, attribute, original)`` for everything currently patched."""
        return list(self._patched)


def _with_subclasses(base: type) -> List[type]:
    found, queue = [], [base]
    while queue:
        cls = queue.pop()
        found.append(cls)
        queue.extend(cls.__subclasses__())
    return found
