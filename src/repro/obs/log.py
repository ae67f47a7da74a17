"""Structured stderr logging for the scenario surfaces.

Built on stdlib :mod:`logging` with a context-prefixing adapter:
``get_logger("repro.scenario", scenario="baseline", seed=3)`` renders

    repro.scenario [scenario=baseline seed=3] store: hit (.repro/store)

Everything goes to **stderr** — stdout stays reserved for rendered results
so cached-run byte-identity checks (``cmp`` over captured stdout) keep
working.  The rendered message text itself is stable: CI greps fixed
substrings like ``store: 12 cached, 0 executed`` out of stderr, and the
adapter only ever *prefixes* context, never rewrites the message.
"""

from __future__ import annotations

import logging
import sys
from typing import Any, Dict, MutableMapping, Optional, Tuple

__all__ = ["configure_logging", "get_logger"]

_HANDLER: Optional[logging.Handler] = None


def configure_logging(level: int = logging.INFO, stream: Any = None) -> logging.Handler:
    """Install (once) a stderr handler on the ``repro`` logger tree.

    Idempotent: repeated calls return the existing handler.  Passing an
    explicit ``stream`` replaces the handler (used by tests to capture
    output).
    """
    global _HANDLER
    root = logging.getLogger("repro")
    if _HANDLER is not None and stream is None:
        return _HANDLER
    if _HANDLER is not None:
        root.removeHandler(_HANDLER)
    handler = logging.StreamHandler(stream if stream is not None else sys.stderr)
    handler.setFormatter(logging.Formatter("%(name)s %(message)s"))
    root.addHandler(handler)
    root.setLevel(level)
    root.propagate = False
    _HANDLER = handler
    return handler


class ContextAdapter(logging.LoggerAdapter):
    """Prefixes ``key=value`` context fields onto every message."""

    def process(
        self, msg: str, kwargs: MutableMapping[str, Any]
    ) -> Tuple[str, MutableMapping[str, Any]]:
        context: Dict[str, Any] = dict(self.extra or {})
        if context:
            rendered = " ".join(f"{key}={context[key]}" for key in sorted(context))
            return f"[{rendered}] {msg}", kwargs
        return msg, kwargs


def get_logger(name: str = "repro", **context: Any) -> ContextAdapter:
    """Return a context-carrying logger writing structured lines to stderr."""
    configure_logging()
    return ContextAdapter(logging.getLogger(name), context)
