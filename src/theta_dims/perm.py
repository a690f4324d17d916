"""Invariant dimensions via fixed-point characters of basis permutations.

The doubled group acts on the group-algebra basis by x -> g x h^-1, and the
extra involution acts by basis-level inversion x -> x^-1 (so the coset
element tau*(g,h) sends x to h x^-1 g^-1). Everything here is exact: traces
are integer fixed-point counts, and the single division happens at the end.

Both cosets are summed over classes, with fixed points counted by the
orbit–stabilizer lemma from class sizes and power maps; `_coset_terms` is the
direct route for the tests and `verify`, one tally per coset of the fixed
points of explicit permutations that takes no module or parity.

The cube-character step is written once, in `_shift_sign`, `_cube_sum` and
`_as_dimension`; `chartab` passes its character sums to the same three,
through `_class_sums`.
"""

from __future__ import annotations

import itertools
from collections import Counter

from ._lazy import _lazy_import, np
from .classdata import ConjugacyData
from .errors import NonIntegralDimension

# the tables, which a query that passes class data never builds, load on first use
groups = _lazy_import(f"{__package__}.groups")
# only refusals, direct twisted averages and inexact table quotients form Fractions
fractions = _lazy_import("fractions")

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
    characters."""
    total = 0
    for w, t1, t2, t3 in terms:
        t1, t2, t3 = t1 - shift, t2 - shift, t3 - shift
        total = total + w * (t1 * t1 * t1 + sign * 3 * t2 * t1 + 2 * t3)
    return total


def _as_dimension(total, den: int = 1, **context) -> int:
    """total / den as an int, total an int or a Fraction and den a positive
    int; NonIntegralDimension unless a nonnegative integer."""
    quotient, remainder = divmod(total.numerator, total.denominator * den)
    if remainder or quotient < 0:
        where = ", ".join(f"{key}={value}" for key, value in context.items())
        raise NonIntegralDimension(f"average {fractions.Fraction(total, den)} "
                                   f"is not a nonnegative integer ({where})")
    return quotient


def _quotient(a: int, b: int):
    """a / b, an int when b divides a, else a Fraction."""
    return a // b if a % b == 0 else fractions.Fraction(a, b)


def _coset_terms(G: groups.GroupTable, twisted: bool) -> list[tuple[int, int, int, int]]:
    """Reference for the class-data sums: the `_cube_sum` terms (w, t1, t2, t3)
    of one coset, directly, in O(n^3), w the number of pairs (g, h) whose
    permutation, square and cube fix t1, t2 and t3 points. The powers are
    formed by explicit composition a chunk of rows h at a time
    (`groups._row_chunks`). Only `twisted_coset_average` and the tests call it."""
    n = G.order
    mul, inv = G.mul_table, G.inv_table
    idx = np.arange(n, dtype=mul.dtype)
    tally: Counter[tuple[int, int, int]] = Counter()
    for g in range(n):
        inv_gx = inv[mul[g]]
        for rows in groups._row_chunks(n, n):
            p1 = np.take(mul[rows], inv_gx, axis=1)  # x -> h (g x)^-1
            if not twisted:
                p1 = np.take(inv, p1)  # x -> (h (g x)^-1)^-1 = g x h^-1
            # flat position of row i's entries, for composing within rows
            offsets = np.arange(0, p1.size, n)[:, None]
            p2 = np.take(p1, p1 + offsets)
            p3 = np.take(p1, p2 + offsets)
            tally.update(zip(*(np.count_nonzero(p == idx, 1).tolist() for p in (p1, p2, p3))))
    return [(w, *traces) for traces, w in tally.items()]


def _root_counts(sizes: tuple[int, ...], power: tuple[int, ...]) -> list:
    """For each class C, the number of k-th roots of one element of C, where
    power maps each class D to the class of D^k: the sum of |D| over D^k = C, over |C|."""
    roots = [0] * len(sizes)
    for d, c in enumerate(power):
        roots[c] += sizes[d]
    return [_quotient(r, s) for r, s in zip(roots, sizes)]


def _class_sums(sizes, power2, power3, shift: int, sign: int, roots2=None) -> tuple:
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

    roots2, by default r2 from the square map, is what the twisted coset reads;
    `chartab` passes sum_i nu_i chi_i(C), the same counts by Frobenius–Schur.
    Every quotient is exact, and an int on a group's class data.
    """
    n, sq, cu = sum(sizes), power2, power3
    z = [_quotient(n, size) for size in sizes]
    r2, r3 = _root_counts(sizes, sq), _root_counts(sizes, cu)
    roots2 = r2 if roots2 is None else roots2

    def one(t1: int, t2: int, t3: int) -> int:
        return _cube_sum([(1, t1, t2, t3)], shift, sign)

    # with t1 = 0 the summand is affine in t2 and t3
    base = one(0, 0, 0)
    per_root2, per_root3 = one(0, 1, 0) - base, one(0, 0, 1) - base
    untwisted = sum(
        size * (size * (one(z[c], z[sq[c]], z[cu[c]]) - one(0, z[sq[c]], z[cu[c]]))
                + n * (base + per_root2 * r2[sq[c]] + per_root3 * r3[cu[c]]))
        for c, size in enumerate(sizes)
    )
    twisted = n * _cube_sum(zip(sizes, roots2, z, [roots2[c] for c in cu]), shift, sign)
    return untwisted, twisted


def dim_invariants_perm(
    G: groups.GroupTable | ConjugacyData,
    module: str = GROUP_ALGEBRA,
    parity: str = EVEN,
    symmetry: str = FULL,
) -> int:
    """Exact invariant dimension of the cubic power of the chosen module.

    Averages the alternating/symmetric cube character over the doubled group
    (symmetry "pi-pi") or over the doubled group extended by the inversion
    involution (symmetry "full"), with fixed points counted by the
    orbit–stabilizer lemma from class sizes and power maps (`_class_sums`).
    G is the group's table or its class data, such as `classdata.sl2_class_data`.
    """
    shift, sign = _shift_sign(module, parity)
    _check_choice(symmetry, SYMMETRIES, "symmetry")
    cd = G if isinstance(G, ConjugacyData) else groups.conjugacy_classes(G)
    n = cd.order
    untwisted, twisted = _class_sums(cd.sizes, cd.power2, cd.power3, shift, sign)
    total, group_size = untwisted, n * n
    if symmetry == FULL:
        total, group_size = untwisted + twisted, 2 * n * n
    return _as_dimension(total, 6 * group_size, module=module, parity=parity, symmetry=symmetry)


def twisted_coset_average(G: groups.GroupTable) -> dict[tuple[str, str], fractions.Fraction]:
    """Average of the cube character over the twisted coset only, by (module,
    parity), directly over all pairs (g, h) from one `_coset_terms` tally.

    The class-sum route gives the same average as 2 full - pi-pi of
    `dim_invariants_perm`; `verify conventions` checks that they agree."""
    n, terms = G.order, _coset_terms(G, twisted=True)
    return {
        (module, parity): fractions.Fraction(_cube_sum(terms, *_shift_sign(module, parity)),
                                             6 * n * n)
        for module, parity in itertools.product(MODULES, PARITIES)
    }
