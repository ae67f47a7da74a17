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
        "repro.utils.bytesize": ("human_bytes", "parse_bytes"),
        "repro.utils.timing": ("Stopwatch", "format_duration"),
        "repro.utils.identifiers": ("make_client_id", "make_correlation_id", "make_session_id"),
        "repro.utils.validation": (
            "require", "require_positive", "require_in_range", "require_type",
        ),
    },
)
