"""Exact invariant dimensions of cubic tensors over finite group algebras.

A finite group acts twice on its group algebra (left and right translation)
and once more by inverting basis elements; this package computes the exact
dimensions of the invariant parts of the alternating and symmetric cubes of
that module, by several independent methods that must agree.
"""

from .chartab import (
    CharTable,
    QuadValue,
    builtin_sl2f5_table,
    diagonal_part,
    dim_invariants_chartab,
    dump_char_table,
    fs_indicator,
    fs_indicators,
    load_char_table,
    tau_part,
)
from .groups import (
    ConjugacyData,
    GroupTable,
    Sl2Fixture,
    battery_groups,
    class_power_map,
    conjugacy_classes,
    cyclic_class_data,
    load_cayley,
    load_sl2_fixture,
    make_cyclic,
    make_from_cayley,
    make_semidirect_product,
    make_sl2,
    sl2_class_data,
    validate_group,
    verify_sl2f5_fixture,
)
from .lens import LensDims, lens_dims, p3_closed, p3_dp, weight_map, weight_rank
from .oracle import build_module_actions, dim_invariants_orbit, dim_invariants_reynolds
from .perm import (
    CosetElement,
    act,
    cube_character,
    dim_invariants_perm,
    fixed_points,
    twisted_coset_average,
)

__all__ = [
    "CharTable",
    "ConjugacyData",
    "CosetElement",
    "GroupTable",
    "LensDims",
    "QuadValue",
    "Sl2Fixture",
    "act",
    "battery_groups",
    "build_module_actions",
    "builtin_sl2f5_table",
    "class_power_map",
    "conjugacy_classes",
    "cube_character",
    "cyclic_class_data",
    "diagonal_part",
    "dim_invariants_chartab",
    "dim_invariants_orbit",
    "dim_invariants_perm",
    "dim_invariants_reynolds",
    "dump_char_table",
    "fixed_points",
    "fs_indicator",
    "fs_indicators",
    "lens_dims",
    "load_cayley",
    "load_char_table",
    "load_sl2_fixture",
    "make_cyclic",
    "make_from_cayley",
    "make_semidirect_product",
    "make_sl2",
    "p3_closed",
    "p3_dp",
    "sl2_class_data",
    "tau_part",
    "twisted_coset_average",
    "validate_group",
    "verify_sl2f5_fixture",
    "weight_map",
    "weight_rank",
]
