"""SDFLMQ reproduction: semi-decentralized federated learning over MQTT.

This package is a from-scratch reproduction of *"SDFLMQ: A Semi-Decentralized
Federated Learning Framework over MQTT"* (Ali-Pour & Gascon-Samson, IPDPSW
PAISE 2025).  It contains the framework itself (:mod:`repro.core`), the
substrates it needs — an in-process MQTT broker (:mod:`repro.mqtt`), the
MQTTFC remote-function-call layer (:mod:`repro.mqttfc`), a numpy ML stack
(:mod:`repro.ml`), and a device/time simulator (:mod:`repro.sim`) — plus
baselines (:mod:`repro.baselines`), a deterministic experiment runtime
(:mod:`repro.runtime`) and the experiment harness used by the benchmarks
(:mod:`repro.experiments`).

Quickstart
----------
>>> from repro.runtime import ExperimentConfig, FLExperiment
>>> result = FLExperiment(ExperimentConfig(num_clients=5, fl_rounds=2,
...                                        dataset_samples=800)).run()
>>> 0.0 <= result.final_accuracy <= 1.0
True
"""

from repro._lazy import lazy_exports

__version__ = "1.0.0"

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "repro.core.client": ("SDFLMQClient",),
        "repro.core.coordinator": ("Coordinator", "CoordinatorConfig"),
        "repro.core.parameter_server": ("ParameterServer",),
        "repro.runtime.experiment": ("ExperimentConfig", "ExperimentResult", "FLExperiment"),
    },
)
__all__.append("__version__")
