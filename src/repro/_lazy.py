"""Lazy package indexes: a package's exports imported on first use.

A package ``__init__`` that imports every submodule makes each importer
pay for all of them — a sequential run would load and compile the Time
Warp kernel, the conservative kernel, process mode and the snapshot code
it never calls.  :func:`lazy_index` turns the package into an index
instead (PEP 562): ``from repro.core import TimeWarpKernel`` imports
``repro.core.optimistic`` at that moment, and nothing else.
"""

from __future__ import annotations

__all__ = ["lazy_index"]


def lazy_index(namespace: dict, homes: dict[str, tuple[str, ...]]):
    """Return ``(__all__, __getattr__, __dir__)`` for a lazy package.

    ``namespace`` is the package's ``globals()``; ``homes`` maps each
    defining module to the names the package exports from it.  The first
    lookup of a name imports its module and caches the value in
    ``namespace``, so every later lookup is a plain attribute read.
    """
    home_of = {name: module for module, names in homes.items() for name in names}
    package = namespace["__name__"]

    def __getattr__(name: str):
        module = home_of.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        # ``from module import name``, spelled so that ``-X importtime``
        # sees the import (``importlib.import_module`` would hide it).
        value = getattr(__import__(module, fromlist=(name,)), name)
        namespace[name] = value
        return value

    def __dir__() -> list[str]:
        return sorted(set(namespace) | set(home_of))

    return list(home_of), __getattr__, __dir__
