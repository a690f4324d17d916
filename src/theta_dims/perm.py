"""Invariant dimensions via fixed-point characters of basis permutations.

The doubled group acts on the group-algebra basis by x -> g x h^-1, and the
extra involution acts by basis-level inversion x -> x^-1 (so the coset
element tau*(g,h) sends x to h x^-1 g^-1). Everything here is exact: traces
are integer fixed-point counts, and the single division happens at the end.

The cube-character step is written once, in `_shift_sign`, `_cube_sum` and
`_as_dimension`; `chartab` passes its character sums to the same three.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import NonIntegralDimension, SimplificationMismatch
from .groups import GroupTable, conjugacy_classes

GROUP_ALGEBRA = "group-algebra"
AUG_KERNEL = "aug-kernel"
MODULES = (GROUP_ALGEBRA, AUG_KERNEL)

EVEN = "even"
ODD = "odd"
PARITIES = (EVEN, ODD)

FULL = "full"
PI_PI = "pi-pi"
SYMMETRIES = (FULL, PI_PI)


def _check_choice(value: str, allowed: tuple[str, ...], what: str) -> str:
    if value not in allowed:
        raise ValueError(f"{what} must be one of {allowed}, got {value!r}")
    return value


@dataclass(frozen=True)
class CosetElement:
    """An element of the doubled-and-swapped symmetry group, acting on basis
    indices by x -> g x h^-1 (untwisted) or x -> h x^-1 g^-1 (twisted)."""

    twisted: bool
    g: int
    h: int


def act(G: GroupTable, sigma: CosetElement, x: int) -> int:
    """Apply sigma to a single basis index."""
    if sigma.twisted:
        return G.mul(G.mul(sigma.h, G.inv(x)), G.inv(sigma.g))
    return G.mul(G.mul(sigma.g, x), G.inv(sigma.h))


def compose(G: GroupTable, s: CosetElement, t: CosetElement) -> CosetElement:
    """The coset element acting as s after t (function composition)."""
    if not s.twisted and not t.twisted:
        return CosetElement(False, G.mul(s.g, t.g), G.mul(s.h, t.h))
    if not s.twisted and t.twisted:
        return CosetElement(True, G.mul(s.h, t.g), G.mul(s.g, t.h))
    if s.twisted and not t.twisted:
        return CosetElement(True, G.mul(s.g, t.g), G.mul(s.h, t.h))
    return CosetElement(False, G.mul(s.h, t.g), G.mul(s.g, t.h))


def permutation_of(G: GroupTable, sigma: CosetElement) -> np.ndarray:
    """The full permutation array of sigma on basis indices."""
    mul, inv = G.mul_table, G.inv_table
    if sigma.twisted:
        return mul[mul[sigma.h, inv], inv[sigma.g]]
    return mul[mul[sigma.g], inv[sigma.h]]


def fixed_points(G: GroupTable, sigma: CosetElement) -> int:
    """Number of basis indices fixed by sigma (its permutation character)."""
    p = permutation_of(G, sigma)
    return int((p == np.arange(G.order)).sum())


def _shift_sign(module: str, parity: str) -> tuple[int, int]:
    """The trace shift of the module and the sign of the parity.

    Removing the trivial summand subtracts the trivial character (all ones)
    from every trace; the alternating cube (parity "even") has sign -1.
    """
    _check_choice(module, MODULES, "module")
    _check_choice(parity, PARITIES, "parity")
    return (1 if module == AUG_KERNEL else 0), (-1 if parity == EVEN else 1)


def _cube_sum(terms, shift: int, sign: int):
    """Sum of w * (t1^3 + 3 sign t2 t1 + 2 t3) over the (w, t1, t2, t3) in terms,
    each trace lowered by shift first: six times the weighted sum of cube
    characters. Exact on int and on QuadValue traces."""
    total = 0
    for w, t1, t2, t3 in terms:
        t1, t2, t3 = t1 - shift, t2 - shift, t3 - shift
        total = total + w * (t1 * t1 * t1 + sign * 3 * t2 * t1 + 2 * t3)
    return total


def _as_dimension(average: Fraction, **context) -> int:
    """The average as an int; NonIntegralDimension unless a nonnegative integer."""
    if average.denominator != 1 or average < 0:
        where = ", ".join(f"{key}={value}" for key, value in context.items())
        raise NonIntegralDimension(f"average {average} is not a nonnegative integer ({where})")
    return int(average)


def cube_character(c1, c2, c3, parity: str) -> Fraction:
    """Trace on the cubic power of a map with traces c1, c2, c3 at powers 1,2,3.

    Alternating cube for parity "even", symmetric cube for "odd".
    """
    _, sign = _shift_sign(GROUP_ALGEBRA, parity)
    return Fraction(_cube_sum([(1, c1, c2, c3)], 0, sign), 6)


def _numerator_sum(perms: np.ndarray, shift: int, sign: int, weights=None) -> int:
    """`_cube_sum` over the row permutations of perms.

    Each row's traces are the fixed-point counts of the permutation, its
    square and its cube; rows are weighted by `weights` when given.
    """
    idx = np.arange(perms.shape[1])[None, :]
    p2 = np.take_along_axis(perms, perms, axis=1)
    p3 = np.take_along_axis(perms, p2, axis=1)
    counts = ((p == idx).sum(axis=1).tolist() for p in (perms, p2, p3))
    if weights is None:
        weights = itertools.repeat(1)
    return _cube_sum(zip(weights, *counts), shift, sign)


def _untwisted_block(G: GroupTable, g: int, hs=slice(None)) -> np.ndarray:
    """Permutations x -> g x h^-1 of the untwisted (g, h), one row per h in hs."""
    mul, inv = G.mul_table, G.inv_table
    return mul[mul[g][None, :], inv[hs][:, None]]


def _coset_sum(G: GroupTable, shift: int, sign: int, twisted: bool) -> int:
    """Reference for the reduced sums: the direct O(n^3) double sum over all
    (g, h) of one coset. Only `twisted_coset_average` and the tests call it."""
    mul, inv = G.mul_table, G.inv_table
    hx = mul[:, inv]  # hx[h, x] = h * x^-1
    total = 0
    for g in range(G.order):
        # twisted row h is x -> h x^-1 g^-1
        block = mul[hx, inv[g]] if twisted else _untwisted_block(G, g)
        total += _numerator_sum(block, shift, sign)
    return total


def _sum_untwisted_by_class_pairs(G: GroupTable, shift: int, sign: int) -> int:
    cd = conjugacy_classes(G)
    reps = np.array(cd.reps)
    return sum(
        size * _numerator_sum(_untwisted_block(G, r, reps), shift, sign, cd.sizes)
        for r, size in zip(cd.reps, cd.sizes)
    )


def _sum_twisted_by_products(G: GroupTable, shift: int, sign: int) -> int:
    """The twisted coset sum: n times the sum over tau*(e, w), x -> w x^-1, row w of mul[:, inv]."""
    return G.order * _numerator_sum(G.mul_table[:, G.inv_table], shift, sign)


def dim_invariants_perm(
    G: GroupTable,
    module: str = GROUP_ALGEBRA,
    parity: str = EVEN,
    symmetry: str = FULL,
) -> int:
    """Exact invariant dimension of the cubic power of the chosen module.

    Averages the alternating/symmetric cube character over the doubled group
    (symmetry "pi-pi") or over the doubled group extended by the inversion
    involution (symmetry "full"). The untwisted coset is summed one row per
    class pair (g, h), weighted by class sizes; the twisted one row per w for
    tau*(e, w), conjugate to the n elements tau*(g, h) with h g = w. Squares
    and cubes of every summed permutation are formed by explicit composition.
    """
    shift, sign = _shift_sign(module, parity)
    _check_choice(symmetry, SYMMETRIES, "symmetry")
    n = G.order
    total = _sum_untwisted_by_class_pairs(G, shift, sign)
    group_size = n * n
    if symmetry == FULL:
        total += _sum_twisted_by_products(G, shift, sign)
        group_size *= 2
    return _as_dimension(
        Fraction(total, 6 * group_size), module=module, parity=parity, symmetry=symmetry
    )


def twisted_coset_average(
    G: GroupTable, module: str = GROUP_ALGEBRA, parity: str = EVEN
) -> Fraction:
    """Average of the cube character over the twisted coset only.

    Computed twice: directly over all pairs (g, h), and by the single sum
    over w that `dim_invariants_perm` uses. The two routes must agree exactly.
    """
    shift, sign = _shift_sign(module, parity)
    n = G.order
    direct = Fraction(_coset_sum(G, shift, sign, twisted=True), 6 * n * n)
    reduced = Fraction(_sum_twisted_by_products(G, shift, sign), 6 * n * n)
    if direct != reduced:
        raise SimplificationMismatch(
            f"direct twisted average {direct} != reduced single-sum value {reduced}"
        )
    return direct
