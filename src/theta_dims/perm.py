"""Invariant dimensions via fixed-point characters of basis permutations.

The doubled group acts on the group-algebra basis by x -> g x h^-1, and the
extra involution acts by basis-level inversion x -> x^-1 (so the coset
element tau*(g,h) sends x to h x^-1 g^-1). Everything here is exact: traces
are integer fixed-point counts, and the single division happens at the end.

Both cosets are summed one weighted row per orbit: the untwisted coset per
class pair, with the first class taken once per orbit of the center; the
twisted coset per class. Rows are built and composed in fixed-size chunks.

The cube-character step is written once, in `_shift_sign`, `_cube_sum` and
`_as_dimension`; `chartab` passes its character sums to the same three.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import NonIntegralDimension, SimplificationMismatch
from .groups import ConjugacyData, GroupTable, _row_chunks, conjugacy_classes

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


def _numerator_sum(G: GroupTable, block, g: int, hs: np.ndarray, shift: int, sign: int,
                   weights=None) -> int:
    """`_cube_sum` over the permutations block(G, g, h), one row per h in hs.

    Each row's traces are the fixed-point counts of the permutation, its
    square and its cube; rows are weighted by `weights` when given. Rows are
    built and composed a chunk at a time (`_row_chunks`), so no n x n block
    is ever live.
    """
    n = G.order
    idx = np.arange(n, dtype=G.mul_table.dtype)
    counts: tuple[list[int], ...] = ([], [], [])
    for rows in _row_chunks(len(hs), n):
        p1 = block(G, g, hs[rows])
        # flat position of row i's entries, for composing within rows
        offsets = np.arange(0, p1.size, n)[:, None]
        p2 = np.take(p1, p1 + offsets)
        p3 = np.take(p1, p2 + offsets)
        for out, p in zip(counts, (p1, p2, p3)):
            out.extend(np.count_nonzero(p == idx, axis=1).tolist())
    if weights is None:
        weights = itertools.repeat(1)
    return _cube_sum(zip(weights, *counts), shift, sign)


def _twisted_block(G: GroupTable, g: int, hs: np.ndarray) -> np.ndarray:
    """Permutations x -> h (g x)^-1 of the twisted tau*(g, h), one row per h in hs."""
    mul, inv = G.mul_table, G.inv_table
    return np.take(mul[hs], inv[mul[g]], axis=1)


def _untwisted_block(G: GroupTable, g: int, hs: np.ndarray) -> np.ndarray:
    """Permutations x -> g x h^-1 of the untwisted (g, h), one row per h in hs:
    the inverses of the twisted rows, read along rows of the table."""
    return np.take(G.inv_table, _twisted_block(G, g, hs))


def _coset_sum(G: GroupTable, shift: int, sign: int, twisted: bool) -> int:
    """Reference for the reduced sums: the direct O(n^3) double sum over all
    (g, h) of one coset. Only `twisted_coset_average` and the tests call it."""
    block = _twisted_block if twisted else _untwisted_block
    hs = np.arange(G.order)
    return sum(_numerator_sum(G, block, g, hs, shift, sign) for g in range(G.order))


def _sum_untwisted_by_class_pairs(G: GroupTable, cd: ConjugacyData, shift: int, sign: int) -> int:
    """The untwisted coset sum: one row per class pair (C, D), weighted by |C| |D|,
    with C running over one class per orbit of the center, weighted by the orbit size.

    (g z, h z) acts as (g, h) for central z, and C -> C z permutes the classes
    and keeps their sizes, so every class of an orbit gives the same row sum.
    The orbit of C has |Z| / |{z : r z in C}| classes, r its rep.
    """
    reps = np.array(cd.reps)
    center = reps[np.array(cd.sizes) == 1]
    reached = np.zeros(cd.num_classes, dtype=bool)
    total = 0
    for c in range(cd.num_classes):
        if reached[c]:
            continue
        moved = cd.class_of[G.mul_table[reps[c], center]]
        reached[moved] = True
        orbit_size = center.size // np.count_nonzero(moved == c)
        row_sum = _numerator_sum(G, _untwisted_block, reps[c], reps, shift, sign, cd.sizes)
        total += orbit_size * cd.sizes[c] * row_sum
    return total


def _sum_twisted_by_products(G: GroupTable, cd: ConjugacyData, shift: int, sign: int) -> int:
    """The twisted coset sum: one row x -> r x^-1 of tau*(e, r) per class rep r, weighted by n |C|.

    tau*(g, h) is conjugate to tau*(e, h g), n pairs per product, and
    conjugating tau*(e, w) by (a, a) gives tau*(e, a w a^-1).
    """
    reps = np.array(cd.reps)
    return G.order * _numerator_sum(G, _twisted_block, G.identity, reps, shift, sign, cd.sizes)


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
    class pair (g, h), weighted by class sizes, with g's class taken once per
    orbit of the center and weighted by the orbit size; the twisted one row
    per class rep r for tau*(e, r), weighted by n times the class size. The
    classes are computed once for both. Squares and cubes of every summed
    permutation are formed by explicit composition, in fixed-size row chunks.
    """
    shift, sign = _shift_sign(module, parity)
    _check_choice(symmetry, SYMMETRIES, "symmetry")
    n = G.order
    cd = conjugacy_classes(G)
    total = _sum_untwisted_by_class_pairs(G, cd, shift, sign)
    group_size = n * n
    if symmetry == FULL:
        total += _sum_twisted_by_products(G, cd, shift, sign)
        group_size *= 2
    return _as_dimension(
        Fraction(total, 6 * group_size), module=module, parity=parity, symmetry=symmetry
    )


def twisted_coset_average(
    G: GroupTable, module: str = GROUP_ALGEBRA, parity: str = EVEN
) -> Fraction:
    """Average of the cube character over the twisted coset only.

    Computed twice: directly over all pairs (g, h), and by the sum over
    classes that `dim_invariants_perm` uses. The two routes must agree exactly.
    """
    shift, sign = _shift_sign(module, parity)
    n = G.order
    direct = Fraction(_coset_sum(G, shift, sign, twisted=True), 6 * n * n)
    reduced = Fraction(_sum_twisted_by_products(G, conjugacy_classes(G), shift, sign), 6 * n * n)
    if direct != reduced:
        raise SimplificationMismatch(
            f"direct twisted average {direct} != reduced class-sum value {reduced}"
        )
    return direct
