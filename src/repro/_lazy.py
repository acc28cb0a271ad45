"""Lazy package exports (PEP 562).

A package names its public API in one table and imports a name's
defining module on first access, so a process loads only the modules
its path runs: a serve daemon never compiles the k-d tree baseline, the
load generator or the validator.
"""

from __future__ import annotations

import importlib
import sys
from typing import Callable, List, Mapping, Sequence, Tuple


def lazy_exports(
    package: str, modules: Mapping[str, Sequence[str]]
) -> Tuple[List[str], Callable[[str], object], Callable[[], List[str]]]:
    """``(names, __getattr__, __dir__)`` for ``package``'s namespace.

    ``modules`` maps a module, relative to ``package`` (``".kdtree"``),
    to the public names it defines.  ``__getattr__`` imports a name's
    module on first access and binds the name in the package, so later
    reads never reach the hook; ``__dir__`` lists bound and unloaded
    names alike.
    """
    home = {name: module for module, names in modules.items() for name in names}

    def __getattr__(name: str) -> object:
        try:
            module = home[name]
        except KeyError:
            raise AttributeError(f"module {package!r} has no attribute {name!r}") from None
        value = getattr(importlib.import_module(module, package), name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> List[str]:
        return sorted(set(vars(sys.modules[package])) | set(home))

    return list(home), __getattr__, __dir__
