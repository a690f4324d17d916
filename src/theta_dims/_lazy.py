"""numpy as a module that loads on its first attribute access.

Importing numpy takes longer than most queries that need no array at all
(`closed-form`, `lens-table`, and `perm` on cyclic:N), so the layers bind
`np` from here and only a query that touches an array pays for the import.
"""

from __future__ import annotations

import importlib.util
import sys
from types import ModuleType


def _lazy_import(name: str) -> ModuleType:
    """The module `name`, from sys.modules if it is there, else registered
    there by a LazyLoader that executes it on first attribute access."""
    if name in sys.modules:
        return sys.modules[name]
    spec = importlib.util.find_spec(name)
    if spec is None:
        raise ModuleNotFoundError(f"No module named {name!r}", name=name)
    loader = importlib.util.LazyLoader(spec.loader)
    spec.loader = loader
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    loader.exec_module(module)
    return module


np = _lazy_import("numpy")
