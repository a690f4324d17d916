"""Class data by arithmetic, with no group table.

The class data of a group (ConjugacyData) is its partition into conjugacy
classes, ordered by class minimum, with the class of the square, cube and
inverse of each class. groups.conjugacy_classes reads it off any table; for a
cyclic group and for SL2(F_p) it is built here by integer and 2x2 matrix
arithmetic instead (cyclic_class_data, sl2_class_data), in the element order
of groups.make_cyclic and groups.make_sl2, which take their order checks and
SL2(F_p)'s matrices from here. So `perm` on cyclic:N and sl2:P executes this
module and neither groups nor numpy.
"""

from __future__ import annotations

import itertools
from collections.abc import Sequence
from typing import NamedTuple

from . import limits

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13)


def _is(a, b) -> bool:
    return a is b


def _is_not(a, b) -> bool:
    return a is not b


class ConjugacyData(NamedTuple):
    """Partition of a group into conjugacy classes, ordered by class minimum,
    with the class of the square, cube and inverse of each class. Compared
    and hashed by identity, as GroupTable is: class_of may be an array."""

    class_of: Sequence[int]  # element index -> class index; an array, or a range
    reps: tuple[int, ...]  # smallest member of each class
    sizes: tuple[int, ...]
    power2: tuple[int, ...]  # class of r^2 for each representative r
    power3: tuple[int, ...]  # class of r^3
    inverse: tuple[int, ...]  # class of r^-1

    __eq__, __ne__, __hash__ = _is, _is_not, object.__hash__

    @property
    def num_classes(self) -> int:
        return len(self.reps)

    @property
    def order(self) -> int:
        """The order of the group: the sum of the class sizes."""
        return sum(self.sizes)

    @property
    def inversion_orbits(self) -> int:
        """The number of orbits of the involution [x] -> [x^-1] on classes."""
        return sum(1 for c, t in enumerate(self.inverse) if t >= c)


def _check_cyclic_order(n: int) -> None:
    """The orders that make_cyclic and cyclic_class_data accept: 1 up to the
    largest table, so that both routes refuse the same orders."""
    if n < 1:
        raise ValueError(f"cyclic group order must be positive, got {n}")
    limits.check_table_size(n)


def _check_sl2_prime(p: int) -> None:
    """The primes that make_sl2 and sl2_class_data accept."""
    if p not in _SMALL_PRIMES:
        raise ValueError(f"p must be a prime <= 13, got {p}")


def cyclic_class_data(n: int) -> ConjugacyData:
    """The class data of the cyclic group of order n, by arithmetic and with no
    table: every element is its own class, and the square, cube and inverse of
    x are 2x, 3x and -x mod n. Equal to conjugacy_classes(make_cyclic(n))."""
    _check_cyclic_order(n)
    return ConjugacyData(
        class_of=range(n),
        reps=tuple(range(n)),
        sizes=(1,) * n,
        power2=tuple(2 * x % n for x in range(n)),
        power3=tuple(3 * x % n for x in range(n)),
        inverse=tuple(-x % n for x in range(n)),
    )


def sl2_matrices(p: int) -> list[tuple[int, int, int, int]]:
    """All (a, b, c, d) with ad - bc = 1 mod p, in lexicographic order."""
    return [
        (a, b, c, d)
        for a, b, c, d in itertools.product(range(p), repeat=4)
        if (a * d - b * c) % p == 1
    ]


def _sl2_label(m) -> str:
    """The label "[a,b;c,d]" of the matrix (a, b, c, d) in make_sl2."""
    return "[{},{};{},{}]".format(*m)


def _sl2_times(x, y, p: int):
    """The product of 2x2 matrices (a, b, c, d) mod p, entries ints or arrays."""
    (a, b, c, d), (e, f, g, h) = x, y
    return (a * e + b * g) % p, (a * f + b * h) % p, (c * e + d * g) % p, (c * f + d * h) % p


def _sl2_inverse(m, p: int):
    """The inverse (d, -b, -c, a) mod p of a determinant-1 matrix (a, b, c, d)."""
    a, b, c, d = m
    return d, -b % p, -c % p, a


def _sl2_class_key(m: tuple[int, int, int, int], p: int, squares: frozenset) -> tuple[int, int]:
    """A key that two elements of SL2(F_p) share exactly when they are
    conjugate: (trace, 0), unless the trace is 2s for s = +-1 and the matrix
    is not the scalar sI. Then m = sI + N with N nilpotent, and the key is
    (trace, 1) or (trace, 2) as s*v is a square mod p or not, v being N's
    upper-right entry, or minus its lower-left one when that is 0."""
    a, b, c, d = m
    t = (a + d) % p
    if t not in (2 % p, -2 % p) or b == c == 0:  # ad = 1 and a + d = 2s give a = d = s
        return t, 0
    s = 1 if t == 2 % p else -1
    return t, 1 if s * (b or -c) % p in squares else 2


def sl2_class_data(p: int) -> ConjugacyData:
    """The class data of SL2(F_p), by 2x2 matrix arithmetic and with no table:
    the elements in sl2_matrices order, classed by _sl2_class_key, and the
    square, cube and inverse of each representative. Equal to
    conjugacy_classes(make_sl2(p))."""
    _check_sl2_prime(p)
    squares = frozenset(x * x % p for x in range(1, p))
    number: dict[tuple[int, int], int] = {}  # class key -> class index
    class_of, reps, sizes = [], [], []
    for i, m in enumerate(mats := sl2_matrices(p)):
        c = number.setdefault(_sl2_class_key(m, p, squares), len(number))
        if c == len(reps):
            reps.append(i)
            sizes.append(0)
        sizes[c] += 1
        class_of.append(c)

    def class_of_matrix(m):
        return number[_sl2_class_key(m, p, squares)]

    power2, power3, inverse = [], [], []
    for r in reps:
        m = mats[r]
        square = _sl2_times(m, m, p)
        power2.append(class_of_matrix(square))
        power3.append(class_of_matrix(_sl2_times(square, m, p)))
        inverse.append(class_of_matrix(_sl2_inverse(m, p)))
    return ConjugacyData(
        tuple(class_of), tuple(reps), tuple(sizes), tuple(power2), tuple(power3), tuple(inverse)
    )
