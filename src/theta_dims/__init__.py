"""Exact invariant dimensions of cubic tensors over finite group algebras.

A finite group acts twice on its group algebra (left and right translation)
and once more by inverting basis elements; this package computes the exact
dimensions of the invariant parts of the alternating and symmetric cubes of
that module, by several independent methods that must agree.

The names below are read from their modules on first access (PEP 562), so
that importing one module, such as the command line's, does not execute the
others.
"""

import importlib
import sys

# each module and the names it exports here
_EXPORTS = {
    "cayley": ("load_cayley",),
    "chartab": (
        "CharTable",
        "QuadValue",
        "builtin_sl2f5_table",
        "diagonal_part",
        "dim_invariants_chartab",
        "dump_char_table",
        "fs_indicator",
        "fs_indicators",
        "load_char_table",
        "tau_part",
    ),
    "groups": (
        "ConjugacyData",
        "GroupTable",
        "battery_groups",
        "conjugacy_classes",
        "cyclic_class_data",
        "make_cyclic",
        "make_from_cayley",
        "make_semidirect_product",
        "make_sl2",
        "sl2_class_data",
        "validate_group",
    ),
    "lens": ("LensDims", "lens_dims", "p3_closed", "p3_dp", "weight_map", "weight_rank"),
    "oracle": ("dim_invariants_orbit", "dim_invariants_reynolds"),
    "perm": ("dim_invariants_perm", "twisted_coset_average"),
    "verify": ("Sl2Fixture", "load_sl2_fixture", "verify_sl2f5_fixture"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name in _HOME:
        return getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    if f"{__name__}.{name}" in sys.modules:  # registered by _lazy: executed here
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
