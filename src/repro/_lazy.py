"""Lazy package facades (PEP 562).

A facade declares its public names once, as a table from defining
module to the names it exports, and :func:`lazy_exports` turns that
table into the facade's ``__all__``, ``__getattr__`` and ``__dir__``::

    _EXPORTS = {"repro.circuit.netlist": ("Circuit", "Gate", "Signal")}
    __all__, __getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)

Nothing is imported until a name is first read; the defining module is
imported then and the value stored in the facade's namespace, so later
reads are plain attribute lookups.  A name outside the table that names
a submodule (``repro.campaign``, ``repro.sim.engine``) imports and
returns that submodule, as an eager facade's imports would have bound
it.  ``import repro`` therefore loads only this module, and a run loads
only the modules it uses.
"""

from importlib import import_module
from importlib.util import find_spec
from typing import Callable, Dict, List, Tuple


def lazy_exports(
    namespace: Dict[str, object], table: Dict[str, Tuple[str, ...]]
) -> Tuple[List[str], Callable[[str], object], Callable[[], List[str]]]:
    """``(__all__, __getattr__, __dir__)`` for the facade whose
    ``globals()`` is ``namespace``; ``table`` maps each defining module
    to the names the facade re-exports from it."""
    source = {name: module for module, names in table.items() for name in names}
    package = namespace["__name__"]

    def __getattr__(name: str) -> object:
        if name not in source:
            submodule = f"{package}.{name}"
            if name.isidentifier() and find_spec(submodule) is not None:
                return import_module(submodule)  # binds itself on the package
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(import_module(source[name]), name)
        namespace[name] = value
        return value

    def __dir__() -> List[str]:
        return sorted(set(namespace) | set(source))

    return list(source), __getattr__, __dir__
