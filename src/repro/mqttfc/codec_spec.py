"""The update-codec spec grammar: stage names, composition order, parameters.

Kept apart from the numpy stage kernels in :mod:`repro.mqttfc.codecs` so that
validating ``training.update_codec`` is exactly as strict as building the
pipeline, without importing numpy.
"""

from __future__ import annotations

from typing import Optional, Tuple

__all__ = [
    "CodecError",
    "DEFAULT_TOPK_DENSITY",
    "available_codecs",
    "parse_codec_grammar",
    "topk_density",
]

DEFAULT_TOPK_DENSITY = 0.1

#: Stage names in composition order (``delta → topk → fp16 → int8``).
_STAGE_ORDER = ("delta", "topk", "fp16", "int8")


class CodecError(ValueError):
    """Raised on invalid codec specs or undecodable encoded updates."""


def available_codecs() -> Tuple[str, ...]:
    """Stage names accepted in ``training.update_codec`` specs."""
    return _STAGE_ORDER


def topk_density(value: object) -> float:
    """``value`` as a top-k density in ``(0, 1]``; raises :class:`CodecError`."""
    density = float(value)  # type: ignore[arg-type]
    if not (0.0 < density <= 1.0):
        raise CodecError(f"topk density must be in (0, 1], got {density!r}")
    return density


def parse_codec_grammar(
    spec: Optional[str],
) -> Optional[Tuple[Tuple[str, Tuple[float, ...]], ...]]:
    """Parse a codec spec string into ``((stage, constructor args), ...)``.

    ``None``/``""``/``"none"``/``"off"`` mean *no codec* and return None.
    Stages compose with ``+`` and must respect the fixed order
    ``delta → topk → fp16 → int8``; ``topk`` takes an optional density
    parameter (``topk=0.25``).  Raises :class:`CodecError` on unknown
    stages, bad parameters, duplicates or mis-ordered pipelines.
    """
    if spec is None:
        return None
    text = str(spec).strip().lower()
    if text in ("", "none", "off"):
        return None
    stages = []
    for part in text.split("+"):
        name, _, param = part.strip().partition("=")
        if name not in _STAGE_ORDER:
            raise CodecError(
                f"unknown update codec stage {name!r}; "
                f"available: {', '.join(_STAGE_ORDER)} (or 'none')"
            )
        args: Tuple[float, ...] = ()
        if param:
            if name != "topk":
                raise CodecError(f"codec stage {name!r} takes no parameter, got {param!r}")
            try:
                args = (topk_density(param),)
            except ValueError as exc:
                raise CodecError(f"bad topk density {param!r}: {exc}") from exc
        if any(existing == name for existing, _ in stages):
            raise CodecError(f"duplicate codec stage {name!r} in {spec!r}")
        if stages and _STAGE_ORDER.index(name) < _STAGE_ORDER.index(stages[-1][0]):
            raise CodecError(
                f"codec stages must compose in order delta+topk+fp16+int8, got {spec!r}"
            )
        stages.append((name, args))
    return tuple(stages)
