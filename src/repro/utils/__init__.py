"""Shared low-level utilities used across the SDFLMQ reproduction.

The helpers here are intentionally dependency-free (numpy + stdlib only) so
that every other subpackage (``repro.mqtt``, ``repro.ml``, ``repro.core``,
``repro.sim``) can import them without creating cycles.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "repro.utils.rng": ("SeedSequenceFactory", "derive_seed", "rng_from_seed"),
        "repro.utils.timing": ("Stopwatch",),
        "repro.utils.validation": ("require_positive", "require_in_range", "validate_identifier"),
    },
)
