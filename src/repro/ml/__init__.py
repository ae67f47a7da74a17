"""From-scratch numpy ML substrate used in place of PyTorch.

The paper's evaluation trains a fully connected MLP on MNIST with
cross-entropy loss and the Adam optimizer.  This package provides the minimal
but complete machinery to do the same at laptop scale:

* :mod:`repro.ml.layers` — composable layers with explicit forward/backward,
* :mod:`repro.ml.losses` — cross-entropy (with integrated softmax) and MSE,
* :mod:`repro.ml.optim` — SGD, momentum, Adam, AdamW,
* :mod:`repro.ml.models` — model factories and the :class:`ClassifierModel`
  training wrapper that the FL client's training pipeline uses,
* :mod:`repro.ml.state` — state-dict utilities (flatten/unflatten, sizes),
* :mod:`repro.ml.data` — array datasets and mini-batch loaders,
* :mod:`repro.ml.datasets` — deterministic synthetic "digits" data standing in
  for MNIST (no network access in this environment),
* :mod:`repro.ml.partition` — IID / Dirichlet / shard client partitioners,
* :mod:`repro.ml.metrics` — accuracy and related metrics.

All arrays are ``float64`` by default for numerical robustness in tests, with
``float32`` used on the wire — uploads, relayed aggregates and globals alike
(see :mod:`repro.core.model_controller`) — to keep payload sizes realistic.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "repro.ml.layers": (
            "Layer", "Linear", "ReLU", "LeakyReLU", "Sigmoid", "Tanh", "Dropout", "Flatten",
            "Sequential",
        ),
        "repro.ml.losses": ("CrossEntropyLoss", "MSELoss", "softmax"),
        "repro.ml.optim": ("SGD", "Adam", "AdamW", "Optimizer"),
        "repro.ml.models": (
            "ClassifierModel", "make_mlp", "make_logistic_regression", "make_paper_mlp",
        ),
        "repro.ml.state": (
            "state_dict_num_parameters", "state_dict_nbytes", "flatten_state_dict",
            "unflatten_state_dict", "zeros_like_state_dict", "state_dicts_allclose",
        ),
        "repro.ml.data": ("ArrayDataset", "DataLoader", "train_test_split"),
        "repro.ml.datasets": ("synthetic_digits", "SyntheticDigitsConfig"),
        "repro.ml.partition": ("iid_partition", "dirichlet_partition", "shard_partition"),
        "repro.ml.metrics": ("accuracy", "confusion_matrix", "top_k_accuracy"),
    },
)
