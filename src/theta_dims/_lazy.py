"""Modules that load on their first attribute access.

A short query pays for every module its process executes: importing numpy
takes longer than most queries that need no array at all (`closed-form`,
`lens-table`, and `perm` on cyclic:N and sl2:P), and with no valid cached
bytecode each sibling module is compiled from source. So the layers bind
`np` from here, `cli` binds the modules of the verbs and methods it does not
always run (`cayley`, `chartab`, `groups`, `lens`, `oracle`, `verify`) through
`_lazy_import`, `perm` binds `groups`, whose tables a query on class data
alone never builds, and `lens` and `chartab` bind `oracle` the same way; a
query executes only the modules it touches. The same holds for the standard library:
`perm` binds `fractions` (which imports `decimal`) here, since only its
refusals and the direct twisted averages that `verify` and the tests read
form a Fraction, `cli` binds `json` and `csv` for the output
formats of those names, `chartab` binds `json` for its file format, and the
modules a short query runs keep their records in NamedTuples rather than
dataclasses, which import `inspect`.
"""

from __future__ import annotations

import importlib.util
import sys
from types import ModuleType


def _lazy_import(name: str) -> ModuleType:
    """The module `name`, from sys.modules if it is there, else registered
    there by a LazyLoader that executes it on first attribute access. An
    import statement that names it executes it too, as does reading it as an
    attribute of the package (theta_dims.__getattr__)."""
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
