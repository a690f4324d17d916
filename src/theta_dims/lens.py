"""Closed forms for cyclic groups: partition counts and weight systems.

For the cyclic group of order n the four invariant dimensions reduce to
p3(n), p3(n-6), p3(n-3), p3(n-6), where p3(m) counts partitions of m into
at most three parts. The weight-system maps realize the same numbers as
ranks of explicitly computed vectors, giving yet another route.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ._lazy import _lazy_import, np
from .errors import HalfwayPoint, SimplificationMismatch
from .perm import AUG_KERNEL, EVEN, GROUP_ALGEBRA, ODD, PARITIES, _check_choice

# the weight-system kernels; the closed forms need none of it
oracle = _lazy_import(f"{__package__}.oracle")

# incremental tables for partitions into parts of size <= 2 and <= 3
_P2 = [1]
_P3 = [1]


def p3_dp(m: int) -> int:
    """Partitions of m into at most three parts, by dynamic programming."""
    if m < 0:
        return 0
    while len(_P3) <= m:
        j = len(_P3)
        _P2.append((0 if j < 2 else _P2[j - 2]) + 1)
        _P3.append((0 if j < 3 else _P3[j - 3]) + _P2[j])
    return _P3[m]


def p3_closed(m: int) -> int:
    """Partitions of m into at most three parts: nearest integer to (m+3)^2/12."""
    if m < 0:
        raise ValueError(f"closed form needs m >= 0, got {m}")
    q = (m + 3) ** 2
    if q % 12 == 6:
        raise HalfwayPoint(f"(m+3)^2 = {q} sits exactly between multiples of 12")
    return (q + 6) // 12


@dataclass(frozen=True)
class LensDims:
    """The four invariant dimensions for the cyclic group of order n."""

    n: int
    odd_group_algebra: int
    even_group_algebra: int
    odd_aug_kernel: int
    even_aug_kernel: int


# (module, parity) of the dimension fields of LensDims, in field order
COLUMNS = (
    (GROUP_ALGEBRA, ODD),
    (GROUP_ALGEBRA, EVEN),
    (AUG_KERNEL, ODD),
    (AUG_KERNEL, EVEN),
)


def lens_dims(n: int) -> LensDims:
    """Closed-form dimensions (p3(n), p3(n-6), p3(n-3), p3(n-6))."""
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    dims = (p3_closed(m) if m >= 0 else 0 for m in (n, n - 6, n - 3, n - 6))
    return LensDims(n, *dims)


@dataclass(frozen=True)
class WeightVector:
    """A sparse signed combination of canonical cubic monomials mod n."""

    n: int
    parity: str
    coeffs: tuple[tuple[tuple[int, int, int], int], ...]  # sorted, nonzero


def weight_map(n: int, a: int, b: int, c: int, parity: str) -> WeightVector:
    """The two-term difference pattern of a cubic monomial, canonicalized.

    Sends the monomial on exponents (a, b, c) to the sum of the monomials on
    (b-a, c-b, a-c) and (a-b, b-c, c-a), all mod n.
    """
    _check_choice(parity, PARITIES, "parity")
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    triples = np.array([
        ((b - a) % n, (c - b) % n, (a - c) % n),
        ((a - b) % n, (b - c) % n, (c - a) % n),
    ])
    keys, signs = oracle._sort_sign(triples, parity)
    acc: dict[tuple[int, int, int], int] = {}
    for key, sign in zip(map(tuple, keys.tolist()), signs.tolist()):
        acc[key] = acc.get(key, 0) + sign
    coeffs = tuple(sorted((k, v) for k, v in acc.items() if v))
    return WeightVector(n, parity, coeffs)


def _orbit_representatives(n: int, parity: str) -> list[list[int]]:
    """One monomial per orbit under index shifts and negation: the least in rank."""
    basis = oracle._monomials(n, parity)
    images = np.stack([basis, -basis])[:, None] + np.arange(n)[:, None, None]
    ranks = oracle._rank(oracle._sort_sign(images % n, parity)[0], parity).min(axis=(0, 1))
    return basis[np.unique(ranks)].tolist()


def _rank_of_rows(rows) -> int:
    """Exact rank of sparse integer rows, each an iterable of (column, value)
    pairs, by fraction-free echelon reduction.

    Each pivot row is divided by its content and each pair of lead
    coefficients by their gcd. Rows are only scaled by nonzero rationals, so
    the rank is unchanged, and the entries stay small."""
    pivots: dict = {}
    rank = 0
    for row in rows:
        row = dict(row)
        while row:
            lead = min(row)
            if lead not in pivots:
                content = math.gcd(*row.values())
                pivots[lead] = {k: v // content for k, v in row.items()}
                rank += 1
                break
            piv = pivots[lead]
            a, b = piv[lead], row[lead]
            common = math.gcd(a, b)
            a, b = a // common, b // common
            # row := a * row - b * piv, whose lead entry cancels
            if a != 1:
                row = {k: v * a for k, v in row.items()}
            for k, v in piv.items():
                if w := row.get(k, 0) - v * b:
                    row[k] = w
                else:
                    del row[k]
    return rank


def weight_rank(n: int, parity: str) -> int:
    """Exact rank of the span of the weight map over all cubic monomials.

    Orbit representatives span the same space; for small n both ranks are
    computed and checked against each other.
    """
    _check_choice(parity, PARITIES, "parity")
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    full = _rank_of_rows(
        weight_map(n, *mono, parity).coeffs for mono in oracle._monomials(n, parity).tolist()
    )
    if n <= 12:
        reduced = _rank_of_rows(
            weight_map(n, *mono, parity).coeffs for mono in _orbit_representatives(n, parity)
        )
        if reduced != full:  # representatives must span the whole image
            raise SimplificationMismatch(f"orbit representatives span rank {reduced}, not {full}")
    return full
