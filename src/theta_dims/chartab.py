"""Exact invariant dimensions from a real quadratic character table.

Character values live in Q(sqrt(d)) for a single squarefree d per table
(or plain Q). Only real-valued tables are supported; the one shipped here
is the 9x9 table of the binary icosahedral group over Q(sqrt(5)), together
with its class squaring/cubing maps. The dimensions are `perm`'s class sums
on the table's class sizes and power maps; the characters give only the
twisted coset's count per class, sum_i nu_i chi_i(c) (`_coset_roots`), which
under "inversion" is the class's square-root count. The module shift and the
integrality check are `perm`'s too.

Each table is held once as integer rows over one common denominator,
X = (A + B sqrt(d)) / D. Only `CharTable.validate` forms table products, as
integer products on A and B in plain Python ints, exact at any size.
"""

from __future__ import annotations

import functools
import json
import math
from collections.abc import Callable
from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from pathlib import Path
from typing import NamedTuple

from . import limits
from .errors import (
    MixedRadicand,
    NonRealValue,
    OrthogonalityViolation,
    ParseError,
    PowerMapViolation,
)
from .perm import (
    CONVENTIONS,
    FLIP,
    FULL,
    INVERSION,
    PI_PI,
    SYMMETRIES,
    _as_dimension,
    _check_choice,
    _class_sums,
    _quotient,
    _shift_sign,
)


@dataclass(frozen=True)
class QuadValue:
    """A value a + b*sqrt(d) with exact rational a, b; d=None means plain Q."""

    a: Fraction
    b: Fraction = Fraction(0)
    d: int | None = None

    def __post_init__(self):
        if self.d is not None and (self.d < 2 or math.isqrt(self.d) ** 2 == self.d):
            raise NonRealValue(f"radicand must be a non-square >= 2 or None, got {self.d}")
        if self.b != 0 and self.d is None:
            raise NonRealValue("irrational part requires a radicand")

    @staticmethod
    def of(x, d: int | None = None) -> "QuadValue":
        if isinstance(x, QuadValue):
            return x
        return QuadValue(Fraction(x), Fraction(0), d)

    def _join(self, other: "QuadValue") -> int | None:
        if self.d is None:
            return other.d
        if other.d is None or other.d == self.d:
            return self.d
        raise MixedRadicand(f"cannot mix sqrt({self.d}) with sqrt({other.d})")

    def __add__(self, other) -> "QuadValue":
        other = QuadValue.of(other)
        return QuadValue(self.a + other.a, self.b + other.b, self._join(other))

    __radd__ = __add__

    def __neg__(self) -> "QuadValue":
        return QuadValue(-self.a, -self.b, self.d)

    def __sub__(self, other) -> "QuadValue":
        return self + (-QuadValue.of(other))

    def __rsub__(self, other) -> "QuadValue":
        return QuadValue.of(other) + (-self)

    def __mul__(self, other) -> "QuadValue":
        other = QuadValue.of(other)
        d = self._join(other)
        rad = d if d is not None else 0
        return QuadValue(
            self.a * other.a + self.b * other.b * rad,
            self.a * other.b + self.b * other.a,
            d,
        )

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = QuadValue.of(other)
        if not isinstance(other, QuadValue):
            return NotImplemented
        if self.a != other.a or self.b != other.b:
            return False
        return self.b == 0 or self.d == other.d

    def __hash__(self):
        return hash((self.a, self.b, self.d if self.b else None))

    def __repr__(self):
        if self.b == 0:
            return f"QuadValue({self.a})"
        return f"QuadValue({self.a} + {self.b}*sqrt({self.d}))"

    def as_fraction(self) -> Fraction:
        if self.b != 0:
            raise ValueError(f"{self!r} is not rational")
        return self.a

    def as_int(self) -> int:
        q = self.as_fraction()
        if q.denominator != 1:
            raise ValueError(f"{self!r} is not an integer")
        return int(q)


@dataclass(frozen=True)
class CharTable:
    """Irreducible character values per (row, class), with power maps."""

    radicand: int | None
    class_names: tuple[str, ...]
    class_sizes: tuple[int, ...]
    power2: tuple[int, ...]
    power3: tuple[int, ...]
    rows: tuple[tuple[QuadValue, ...], ...]

    @property
    def num_classes(self) -> int:
        return len(self.class_sizes)

    @property
    def order(self) -> int:
        return sum(self.class_sizes)

    @property
    def irrep_dims(self) -> tuple[int, ...]:
        return tuple(row[0].as_int() for row in self.rows)

    def value(self, i: int, c: int) -> QuadValue:
        return self.rows[i][c]

    def _check_shape(self) -> None:
        """Check the block lengths, the class sizes and the power maps: the
        O(k^2) checks that make every index into the table valid."""
        k = self.num_classes
        if k == 0:
            raise ParseError("table has no classes")
        if not (len(self.rows) == len(self.class_names) == len(self.power2) == len(self.power3) == k):
            raise ParseError("table blocks disagree on the number of classes")
        if any(len(row) != k for row in self.rows):
            raise ParseError("character rows must be square with the class count")
        if any(s < 1 for s in self.class_sizes):
            raise ParseError("class sizes must be positive")
        if any(not (0 <= c < k) for c in self.power2 + self.power3):
            raise ParseError("power maps must be class indices")

    @functools.cached_property
    def _integral(self) -> _Integral:
        """The rows over one common denominator, computed once per table."""
        values = [v for row in self.rows for v in row]
        for v in values:
            if v.b and v.d != self.radicand:
                raise MixedRadicand(f"entry {v!r} is not in the field of radicand {self.radicand}")
        den = math.lcm(*{v.a.denominator for v in values}, *{v.b.denominator for v in values})

        def scaled(part: str) -> list[list[int]]:
            return [
                [getattr(v, part).numerator * (den // getattr(v, part).denominator) for v in row]
                for row in self.rows
            ]

        return _Integral(scaled("a"), scaled("b"), den, self.radicand or 0)

    def validate(self) -> None:
        """Check shape, the trivial first row, exact row orthogonality and the
        power maps, in integer products on the rows over one denominator.

        The square map must give nonnegative integer multiplicities
        <(chi_i^2 +- chi_i o p_2) / 2, chi_j>, those of chi_j in Sym^2 chi_i and
        Lambda^2 chi_i; so <chi_i o p_2, chi_j> is an integer and every
        indicator is +-1. The cube map must give integers <chi_i o p_3, chi_j>,
        since chi(g^3) is a virtual character. Both are necessary, not
        sufficient, for the maps to be right."""
        self._check_shape()
        if any(v != 1 for v in self.rows[0]):
            raise ParseError("first row must be the trivial character")
        order = self.order
        try:
            dims = self.irrep_dims
        except ValueError:
            raise ParseError("the first column must hold integer degrees") from None
        if sum(d * d for d in dims) != order:
            raise ParseError("sum of squared dimensions must equal the group order")
        form = self._integral
        den = form.den
        scale = order * den**2
        k, sizes = self.num_classes, list(self.class_sizes)
        rational, irrational = _gram(form, form, sizes)
        for i in range(k):
            for j in range(i, k):
                expected = scale if i == j else 0
                if rational[i][j] != expected or irrational[i][j]:
                    got = form.value(rational[i][j], irrational[i][j], den**2)
                    raise OrthogonalityViolation(
                        f"rows ({i}, {j}): got {got}, expected {expected // den**2}"
                    )
        # <chi_i^2, chi_j> times n den^3, and <chi_i o p_2, chi_j> times n den^2
        square = _gram(form.squared(), form, sizes)
        power2 = _gram(form.with_columns(self.power2), form, sizes)
        for i in range(k):
            for j in range(k):
                for sign, op in ((1, "+"), (-1, "-")):
                    a, b = (s[i][j] + sign * den * p[i][j] for s, p in zip(square, power2))
                    if b or a % (2 * scale * den) or a < 0:
                        raise PowerMapViolation(
                            f"power2 map: <(chi_{i}^2 {op} chi_{i}(g^2))/2, chi_{j}> = "
                            f"{form.value(a, b, 2 * scale * den)} is not a nonnegative integer"
                        )
        rational, irrational = _gram(form.with_columns(self.power3), form, sizes)
        for i in range(k):
            for j in range(k):
                if rational[i][j] % scale or irrational[i][j]:
                    raise PowerMapViolation(
                        f"power3 map: <chi_{i}(g^3), chi_{j}> = "
                        f"{form.value(rational[i][j], irrational[i][j], scale)} is not an integer"
                    )


class _Integral(NamedTuple):
    """A table X as integer rows over one denominator, X = (a + b sqrt(rad)) / den;
    b is all zeros on a rational table, whose rad is 0."""

    a: list[list[int]]
    b: list[list[int]]
    den: int
    rad: int

    def value(self, a: int, b: int, den: int):
        """(a + b sqrt(rad)) / den: an int or a Fraction if b is 0, else a QuadValue."""
        if b:
            return QuadValue(Fraction(a, den), Fraction(b, den), self.rad)
        return _quotient(a, den)

    def with_columns(self, columns) -> "_Integral":
        """The table whose column c is this table's column columns[c]."""
        return self._replace(a=[[row[c] for c in columns] for row in self.a],
                             b=[[row[c] for c in columns] for row in self.b])

    def squared(self) -> "_Integral":
        """The table of the squared entries, over den^2."""
        pairs = [list(zip(a, b)) for a, b in zip(self.a, self.b)]
        return _Integral([[x * x + self.rad * y * y for x, y in row] for row in pairs],
                         [[2 * x * y for x, y in row] for row in pairs], self.den**2, self.rad)


def _products(left, right, weights) -> list[list[int]]:
    """The integer matrix left diag(weights) right^T, of two lists of rows."""
    left = [list(map(mul, weights, row)) for row in left]
    return [[sum(map(mul, row, other)) for other in right] for row in left]


def _gram(x: _Integral, y: _Integral, weights) -> tuple[list[list[int]], list[list[int]]]:
    """The matrix of sum_c weights[c] x_ic y_jc, times x.den y.den, as its
    rational and irrational parts P and Q, so that it is
    (P + Q sqrt(rad)) / (x.den y.den). Each part is one product of rows of
    length 2k; Q is zeros, with no product, when x and y are both rational."""
    if not any(map(any, x.b)) and not any(map(any, y.b)):
        return _products(x.a, y.a, weights), [[0] * len(y.a) for _ in x.a]
    twice = list(weights) * 2
    rational = _products(
        [a + [x.rad * v for v in b] for a, b in zip(x.a, x.b)],
        [a + b for a, b in zip(y.a, y.b)],
        twice,
    )
    irrational = _products(
        [a + b for a, b in zip(x.a, x.b)], [b + a for a, b in zip(y.a, y.b)], twice
    )
    return rational, irrational


def _sl2f5_values():
    half = Fraction(1, 2)
    phi = QuadValue(half, half, 5)
    phis = QuadValue(half, -half, 5)  # the conjugate (1 - sqrt(5)) / 2

    def q(x):
        return QuadValue.of(x, 5)

    return [
        [q(1), q(1), q(1), q(1), q(1), q(1), q(1), q(1), q(1)],
        [q(2), q(-2), q(0), q(-1), q(1), -phis, -phi, phis, phi],
        [q(2), q(-2), q(0), q(-1), q(1), -phi, -phis, phi, phis],
        [q(3), q(3), q(-1), q(0), q(0), phi, phis, phi, phis],
        [q(3), q(3), q(-1), q(0), q(0), phis, phi, phis, phi],
        [q(4), q(4), q(0), q(1), q(1), q(-1), q(-1), q(-1), q(-1)],
        [q(4), q(-4), q(0), q(1), q(-1), q(-1), q(-1), q(1), q(1)],
        [q(5), q(5), q(1), q(-1), q(-1), q(0), q(0), q(0), q(0)],
        [q(6), q(-6), q(0), q(0), q(0), q(1), q(1), q(-1), q(-1)],
    ]


@functools.cache
def builtin_sl2f5_table() -> CharTable:
    """The 9-class character table of SL2(F5) over Q(sqrt(5)), validated."""
    names = ("I", "-I", "a", "b", "b'", "c", "c'", "-c", "-c'")
    sizes = (1, 1, 30, 20, 20, 12, 12, 12, 12)
    power2 = (0, 0, 1, 3, 3, 6, 5, 6, 5)
    power3 = (0, 1, 2, 0, 1, 6, 5, 8, 7)
    table = CharTable(
        radicand=5,
        class_names=names,
        class_sizes=sizes,
        power2=power2,
        power3=power3,
        rows=tuple(tuple(row) for row in _sl2f5_values()),
    )
    table.validate()
    return table


def fs_indicator(t: CharTable, i: int) -> int:
    """Squared-power average of row i, on a table that has passed validate:
    there it is +-1. validate makes (<chi_i^2, 1> +- nu_i) / 2 nonnegative
    integers with no irrational part, and <chi_i^2, 1> = <chi_i, chi_i> = 1 by
    row orthogonality of a real table."""
    form = t._integral
    # weights[c]: the size of the classes whose square lies in class c
    weights = [0] * t.num_classes
    for c, size in zip(t.power2, t.class_sizes):
        weights[c] += size
    return sum(map(mul, weights, form.a[i])) // (form.den * t.order)


def fs_indicators(t: CharTable) -> tuple[int, ...]:
    return tuple(fs_indicator(t, i) for i in range(t.num_classes))


def diagonal_part(t: CharTable, module: str, parity: str) -> Fraction:
    """Average of the cube character over the doubled group alone: `perm`'s
    untwisted class sum on the table's class sizes and power maps."""
    untwisted, _ = _class_sums(t.class_sizes, t.power2, t.power3, *_shift_sign(module, parity))
    return Fraction(untwisted, 6 * t.order**2)


def _coset_roots(t: CharTable, convention: str) -> list:
    """sum_i nu_i X_ic for each class c, on a table that has passed validate:
    an int or a Fraction, or a QuadValue where irrational. Under "inversion"
    nu_i is the squared-power indicator, and by Frobenius–Schur the sum counts
    the square roots of an element of c; under "flip" every nu_i is 1."""
    nu = fs_indicators(t) if convention == INVERSION else (1,) * t.num_classes
    form = t._integral
    return [form.value(sum(map(mul, nu, a)), sum(map(mul, nu, b)), form.den)
            for a, b in zip(zip(*form.a), zip(*form.b))]


def tau_part(t: CharTable, module: str, parity: str, convention: str = FLIP) -> Fraction:
    """Average of the cube character over the twisted coset, on a table that
    has passed validate: `perm`'s twisted class sum, with the sums of
    `_coset_roots` in place of the square-root counts.

    With the "flip" convention the involution swaps the two tensor factors on
    each isotypic block, so its trace weights every row by +1. With the
    "inversion" convention (basis-level x -> x^-1) each row is weighted by
    its squared-power indicator wherever the involution itself acts, i.e. in
    the odd powers of the coset element; the even power lands back in the
    doubled group and stays unweighted.
    """
    shift, sign = _shift_sign(module, parity)
    _check_choice(convention, CONVENTIONS, "convention")
    _, twisted = _class_sums(t.class_sizes, t.power2, t.power3, shift, sign,
                             _coset_roots(t, convention))
    twisted = twisted.as_fraction() if isinstance(twisted, QuadValue) else twisted
    return Fraction(twisted, 6 * t.order**2)


def dim_invariants_chartab(
    t: CharTable, module: str, parity: str, convention: str = FLIP, symmetry: str = FULL
) -> int:
    """Invariant dimension: the diagonal part alone for symmetry "pi-pi",
    else the average of the diagonal and twisted-coset parts."""
    _check_choice(symmetry, SYMMETRIES, "symmetry")
    if symmetry == PI_PI:
        return _as_dimension(diagonal_part(t, module, parity),
                             module=module, parity=parity, symmetry=symmetry)
    dim = (diagonal_part(t, module, parity) + tau_part(t, module, parity, convention)) / 2
    return _as_dimension(dim, module=module, parity=parity, convention=convention)


# -- file format ----------------------------------------------------------------


def _fraction_from(rec, num_key, den_key) -> Fraction:
    num = limits._json_int(rec[num_key], num_key)
    den = limits._json_int(rec[den_key], den_key)
    if den == 0:
        raise NonRealValue(f"zero denominator in {rec!r}")
    return Fraction(num, den)


def load_char_table(
    path: str | Path, fits: Callable[[CharTable], None] | None = None
) -> CharTable:
    """Load and validate a character table from its JSON file format, a
    regular file of at most limits.CHAR_TABLE_FILE_LIMIT bytes read by
    limits.read_input, which names the file in every refusal. fits, when
    given, sees the table once its shape is checked and before the O(k^3)
    orthogonality sums of validate, and raises if the table cannot serve."""

    def build(table: CharTable) -> CharTable:
        if fits is not None:
            fits(table)
        table.validate()
        return table

    return limits.read_input(
        path, "character table", lambda text: _char_table_of(json.loads(text)), build
    )


def _char_table_of(raw: dict) -> CharTable:
    """The table that raw encodes, its shape checked but not yet validated."""
    if not isinstance(raw, dict):
        raise ParseError("character table file must hold a JSON object")
    radicand = raw["radicand"]
    if radicand is not None:
        radicand = limits._json_int(radicand, "radicand")

    def ints(key: str, what: str) -> tuple[int, ...]:
        return tuple(limits._json_int(v, what) for v in limits._json_list(raw[key], repr(key)))

    sizes = ints("class_sizes", "a class size")
    power2 = ints("power2", "a power2 entry")
    power3 = ints("power3", "a power3 entry")
    names = raw.get("class_names")
    if names is None:
        names = [f"c{i + 1}" for i in range(len(sizes))]
    names = tuple(map(str, limits._json_list(names, "'class_names'")))
    rows = []
    for raw_row in limits._json_list(raw["rows"], "'rows'"):
        if not isinstance(raw_row, list):
            raise ParseError(f"a character row must be a list of objects, got {raw_row!r:.40}")
        row = []
        for rec in raw_row:
            if not isinstance(rec, dict):
                raise ParseError(f"a character value must be a JSON object, got {rec!r:.40}")
            a = _fraction_from(rec, "a_num", "a_den")
            b = _fraction_from(rec, "b_num", "b_den")
            if b != 0 and radicand is None:
                raise NonRealValue(f"entry {rec!r} declares a radical part with no radicand")
            row.append(QuadValue(a, b, radicand if b != 0 else None))
        rows.append(tuple(row))
    table = CharTable(radicand, names, sizes, power2, power3, tuple(rows))
    table._check_shape()
    return table


def char_table_to_dict(t: CharTable) -> dict:
    def enc(v: QuadValue) -> dict:
        return {
            "a_num": v.a.numerator,
            "a_den": v.a.denominator,
            "b_num": v.b.numerator,
            "b_den": v.b.denominator,
        }

    return {
        "radicand": t.radicand,
        "class_names": list(t.class_names),
        "class_sizes": list(t.class_sizes),
        "power2": list(t.power2),
        "power3": list(t.power3),
        "rows": [[enc(v) for v in row] for row in t.rows],
    }


def dump_char_table(t: CharTable, path: str | Path) -> None:
    Path(path).write_text(json.dumps(char_table_to_dict(t), indent=1) + "\n")
