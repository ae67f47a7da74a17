"""PEP 562 name tables for the package ``__init__`` modules.

Every ``repro`` package re-exports its public names, but importing the
package must not import the modules that define them: ``python -m repro
scenario store ls`` reads sqlite rows and should not pay for numpy, the
broker or the ML stack on the way in.  A package ``__init__`` therefore
declares *where* each public name lives and resolves it on first access::

    __getattr__, __dir__, __all__ = lazy_exports(
        __name__, {"repro.sim.clock": ("SimulationClock",)}
    )

``from package import Name``, ``package.Name``, ``from package import *`` and
``dir(package)`` behave as they did with eager imports; the defining module
loads the first time one of its names is asked for.
"""

from __future__ import annotations

import sys
from importlib import import_module
from typing import Callable, Dict, List, Mapping, Sequence, Tuple

__all__ = ["lazy_exports"]


def lazy_exports(
    package: str,
    table: Mapping[str, Sequence[str]],
    submodules: Sequence[str] = (),
) -> Tuple[Callable[[str], object], Callable[[], List[str]], List[str]]:
    """The ``(__getattr__, __dir__, __all__)`` triple for ``package``.

    ``table`` maps a defining module's dotted path to the names it
    contributes; ``submodules`` lists sub-modules of ``package`` that are
    public names themselves (``repro.core.topics``).  ``__all__`` keeps the
    declaration order.
    """
    origin: Dict[str, str] = {name: module for module, names in table.items() for name in names}
    public = [*origin, *submodules]

    def __getattr__(name: str) -> object:
        if name in origin:
            value = getattr(import_module(origin[name]), name)
        elif name in submodules:
            value = import_module(f"{package}.{name}")
        else:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        # Cache on the package so the next lookup is a plain attribute read.
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> List[str]:
        return sorted(set(vars(sys.modules[package])) | set(public))

    return __getattr__, __dir__, public
