"""Invariant dimensions via fixed-point characters of basis permutations.

The doubled group acts on the group-algebra basis by x -> g x h^-1, and the
extra involution acts by basis-level inversion x -> x^-1 (so the coset
element tau*(g,h) sends x to h x^-1 g^-1). Everything here is exact: traces
are integer fixed-point counts, and the single division happens at the end.

Both cosets are summed over classes, with fixed points counted by the
orbit–stabilizer lemma from class sizes and power maps; `_coset_sum` is the
direct sum over explicit permutations that the tests compare them with.

The cube-character step is written once, in `_shift_sign`, `_cube_sum` and
`_as_dimension`; `chartab` passes its character sums to the same three.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from ._lazy import np
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

# how the extra involution acts: chartab computes both, every other method
# basis-level inversion
FLIP = "flip"
INVERSION = "inversion"
CONVENTIONS = (FLIP, INVERSION)


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


def permutation_of(G: GroupTable, sigma: CosetElement) -> np.ndarray:
    """The full permutation array of sigma on basis indices."""
    mul, inv = G.mul_table, G.inv_table
    if sigma.twisted:
        return mul[mul[sigma.h, inv], inv[sigma.g]]
    return mul[mul[sigma.g], inv[sigma.h]]


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


def _coset_sum(G: GroupTable, shift: int, sign: int, twisted: bool) -> int:
    """Reference for the class-data sums: `_cube_sum` over every (g, h) of one
    coset, directly, in O(n^3). Each pair's traces are the fixed-point counts
    of its permutation, the square and the cube, formed by explicit composition
    a chunk of rows h at a time (`_row_chunks`). Only `twisted_coset_average`
    and the tests call it."""
    n = G.order
    mul, inv = G.mul_table, G.inv_table
    idx = np.arange(n, dtype=mul.dtype)
    counts: tuple[list[int], ...] = ([], [], [])
    for g in range(n):
        inv_gx = inv[mul[g]]
        for rows in _row_chunks(n, n):
            p1 = np.take(mul[rows], inv_gx, axis=1)  # x -> h (g x)^-1
            if not twisted:
                p1 = np.take(inv, p1)  # x -> (h (g x)^-1)^-1 = g x h^-1
            # flat position of row i's entries, for composing within rows
            offsets = np.arange(0, p1.size, n)[:, None]
            p2 = np.take(p1, p1 + offsets)
            p3 = np.take(p1, p2 + offsets)
            for out, p in zip(counts, (p1, p2, p3)):
                out.extend(np.count_nonzero(p == idx, axis=1).tolist())
    return _cube_sum(zip(itertools.repeat(1), *counts), shift, sign)


def _root_counts(sizes: tuple[int, ...], power: tuple[int, ...]) -> list[int]:
    """For each class C, the number of k-th roots of one element of C, where
    power maps each class D to the class of D^k: the sum of |D| over D^k = C, over |C|."""
    roots = [0] * len(sizes)
    for d, c in enumerate(power):
        roots[c] += sizes[d]
    return [r // s for r, s in zip(roots, sizes)]


def _class_sums(cd: ConjugacyData, shift: int, sign: int) -> tuple[int, int]:
    """The untwisted and twisted coset sums, from class sizes and the square and
    cube class maps alone, with fixed points counted by the orbit–stabilizer lemma.

    (g, h) fixes x exactly when x^-1 g x = h, so its k-th power has
    z(g^k) [g^k ~ h^k] fixed points, z(C) = n / |C| the centralizer order with
    n the sum of the class sizes. For g in C, h in C gives traces z(C), z(C^2),
    z(C^3); every other h has first trace 0, and summed over all h the other
    two are n r2(C^2) and n r3(C^3), rk(D) the number of k-th roots of an
    element of D. tau*(e, r) fixes the square roots of r, its square is (r, r)
    and its cube tau*(r, r^2), so it has traces r2(C), z(C), r2(C^3);
    tau*(g, h) is conjugate to tau*(e, h g), n pairs per product.
    """
    n = cd.order
    sq, cu = cd.power2, cd.power3
    z = [n // size for size in cd.sizes]
    r2, r3 = _root_counts(cd.sizes, sq), _root_counts(cd.sizes, cu)

    def one(t1: int, t2: int, t3: int) -> int:
        return _cube_sum([(1, t1, t2, t3)], shift, sign)

    # with t1 = 0 the summand is affine in t2 and t3
    base = one(0, 0, 0)
    per_root2, per_root3 = one(0, 1, 0) - base, one(0, 0, 1) - base
    untwisted = sum(
        size * (size * (one(z[c], z[sq[c]], z[cu[c]]) - one(0, z[sq[c]], z[cu[c]]))
                + n * (base + per_root2 * r2[sq[c]] + per_root3 * r3[cu[c]]))
        for c, size in enumerate(cd.sizes)
    )
    twisted = n * _cube_sum(zip(cd.sizes, r2, z, [r2[c] for c in cu]), shift, sign)
    return untwisted, twisted


def dim_invariants_perm(
    G: GroupTable | ConjugacyData,
    module: str = GROUP_ALGEBRA,
    parity: str = EVEN,
    symmetry: str = FULL,
) -> int:
    """Exact invariant dimension of the cubic power of the chosen module.

    Averages the alternating/symmetric cube character over the doubled group
    (symmetry "pi-pi") or over the doubled group extended by the inversion
    involution (symmetry "full"), with fixed points counted by the
    orbit–stabilizer lemma from class sizes and power maps (`_class_sums`).
    G is the group's table or its class data, such as `sl2_class_data`.
    """
    shift, sign = _shift_sign(module, parity)
    _check_choice(symmetry, SYMMETRIES, "symmetry")
    cd = G if isinstance(G, ConjugacyData) else conjugacy_classes(G)
    n = cd.order
    untwisted, twisted = _class_sums(cd, shift, sign)
    total, group_size = untwisted, n * n
    if symmetry == FULL:
        total, group_size = untwisted + twisted, 2 * n * n
    return _as_dimension(
        Fraction(total, 6 * group_size), module=module, parity=parity, symmetry=symmetry
    )


def twisted_coset_average(
    G: GroupTable, module: str = GROUP_ALGEBRA, parity: str = EVEN
) -> Fraction:
    """Average of the cube character over the twisted coset only.

    Computed twice: directly over all pairs (g, h) by `_coset_sum`, and with
    fixed points counted by the orbit–stabilizer lemma from class sizes and
    power maps, as `dim_invariants_perm` does. The two routes must agree exactly.
    """
    shift, sign = _shift_sign(module, parity)
    n = G.order
    direct = Fraction(_coset_sum(G, shift, sign, twisted=True), 6 * n * n)
    reduced = Fraction(_class_sums(conjugacy_classes(G), shift, sign)[1], 6 * n * n)
    if direct != reduced:
        raise SimplificationMismatch(
            f"direct twisted average {direct} != reduced class-sum value {reduced}"
        )
    return direct
