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
X = (A + B sqrt(d)) / D. Only `CharTable.validate` forms table products, one
`oracle._exact_matmul` product of int64 arrays per Gram part; so a file table
loads numpy and `oracle`, and the builtin one, fixed data, loads neither.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from pathlib import Path
from typing import NamedTuple

from . import limits
from ._lazy import _lazy_import, np
from .errors import (
    MixedRadicand,
    NonRealValue,
    OrthogonalityViolation,
    ParseError,
    PowerMapViolation,
    TooLarge,
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

# the exact product kernel, which only validate runs
oracle = _lazy_import(f"{__package__}.oracle")


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

        rad = self.radicand if any(v.b for v in values) else 0
        return _Integral(scaled("a"), scaled("b"), den, rad)

    def validate(self) -> None:
        """Check shape, the trivial first row, integer degrees, exact row
        orthogonality, the power maps, in Gram products of the rows over one
        denominator (`_gram`), and last that every degree is positive: a
        negated faithful row keeps orthogonality and the power-map
        multiplicities, so only its degree refuses it.

        The square map must give nonnegative integer multiplicities
        <(chi_i^2 +- chi_i o p_2) / 2, chi_j>, those of chi_j in Sym^2 chi_i and
        Lambda^2 chi_i; so <chi_i o p_2, chi_j> is an integer and every
        indicator is +-1. The cube map must give integers <chi_i o p_3, chi_j>,
        since chi(g^3) is a virtual character. Both are necessary, not
        sufficient, for the maps to be right. Each check names its first
        failing pair (i, j) in row-major order, with i <= j for orthogonality
        and + before - for the square map.

        Every product and intermediate is an integer below 2^53 if the squared
        table's Gram is, 2k terms of at most a class size times (1 + 2 rad) top^3,
        top the largest integer entry (at least den, from the trivial row); a
        table past that bound is refused with TooLarge before any array is formed."""
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
        k, den, rad, most = self.num_classes, form.den, form.rad, max(self.class_sizes)
        top = max(abs(v) for part in (form.a, form.b) for row in part for v in row)
        if 2 * k * most * (1 + 2 * rad) * top**3 >= oracle._FLOAT64_EXACT_LIMIT:
            raise TooLarge(f"entries up to {top} over {den} and class sizes up to {most} "
                           "may take the validation products past 2^53")
        a, b = x = np.array([form.a, form.b], dtype=np.int64)
        sizes, scale = self.class_sizes, order * den**2
        # <chi_i, chi_j> times n den^2
        rational, irrational = _gram(x, x, sizes, rad)
        bad = np.triu((rational != scale * np.eye(k, dtype=np.int64)) | (irrational != 0))
        for i, j in np.argwhere(bad)[:1].tolist():  # the first, in row-major order
            got = form.value(int(rational[i, j]), int(irrational[i, j]), den**2)
            raise OrthogonalityViolation(f"rows ({i}, {j}): got {got}, expected {order * (i == j)}")
        # <chi_i^2, chi_j> times n den^3, and <chi_i o p_2, chi_j> times n den^2;
        # their sum and difference, on the last axis, over 2 n den^3
        square = _gram((a * a + rad * b * b, 2 * a * b), x, sizes, rad)
        power2 = _gram(x[..., self.power2], x, sizes, rad)
        rational, irrational = (s[..., None] + np.array([1, -1]) * den * p[..., None]
                                for s, p in zip(square, power2))
        bad = (irrational != 0) | (rational % (2 * scale * den) != 0) | (rational < 0)
        for i, j, s in np.argwhere(bad)[:1].tolist():
            raise PowerMapViolation(
                f"power2 map: <(chi_{i}^2 {'+-'[s]} chi_{i}(g^2))/2, chi_{j}> = "
                f"{form.value(int(rational[i, j, s]), int(irrational[i, j, s]), 2 * scale * den)}"
                " is not a nonnegative integer"
            )
        rational, irrational = _gram(x[..., self.power3], x, sizes, rad)
        for i, j in np.argwhere((rational % scale != 0) | (irrational != 0))[:1].tolist():
            raise PowerMapViolation(
                f"power3 map: <chi_{i}(g^3), chi_{j}> = "
                f"{form.value(int(rational[i, j]), int(irrational[i, j]), scale)} is not an integer"
            )
        # last, so that a table the checks above refuse keeps its message
        for i, d in enumerate(dims):
            if d <= 0:
                raise ParseError(f"the first column must hold positive degrees, row {i} has {d}")


class _Integral(NamedTuple):
    """A table X as integer rows over one denominator, X = (a + b sqrt(rad)) / den;
    rad is 0 where b is all zeros."""

    a: list[list[int]]
    b: list[list[int]]
    den: int
    rad: int

    def value(self, a: int, b: int, den: int):
        """(a + b sqrt(rad)) / den: an int or a Fraction if b is 0, else a QuadValue."""
        if b:
            return QuadValue(Fraction(a, den), Fraction(b, den), self.rad)
        return _quotient(a, den)


def _gram(x, y, weights, rad: int):
    """The matrix of sum_c weights[c] x_ic y_jc for two tables x and y, each a
    pair (a, b) of int64 arrays that stands for a + b sqrt(rad), as its
    rational and irrational parts (P, Q): the matrix is P + Q sqrt(rad). Each
    part is one `oracle._exact_matmul` product of rows of length 2k; with rad
    0, where b is all zeros, P is one of rows of length k and Q is zeros."""
    (xa, xb), (ya, yb) = x, y
    if not rad:
        return oracle._exact_matmul(xa * weights, ya.T), np.zeros((len(xa), len(ya)), np.int64)
    twice = np.concatenate([weights, weights])
    rational = oracle._exact_matmul(np.hstack([xa, rad * xb]) * twice, np.hstack([ya, yb]).T)
    irrational = oracle._exact_matmul(np.hstack([xa, xb]) * twice, np.hstack([yb, ya]).T)
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
    """The 9-class character table of SL2(F5) over Q(sqrt(5)): fixed data,
    validated by `verify`, which also matches its classes with SL2(F5)'s."""
    names = ("I", "-I", "a", "b", "b'", "c", "c'", "-c", "-c'")
    sizes = (1, 1, 30, 20, 20, 12, 12, 12, 12)
    power2 = (0, 0, 1, 3, 3, 6, 5, 6, 5)
    power3 = (0, 1, 2, 0, 1, 6, 5, 8, 7)
    return CharTable(
        radicand=5,
        class_names=names,
        class_sizes=sizes,
        power2=power2,
        power3=power3,
        rows=tuple(tuple(row) for row in _sl2f5_values()),
    )


def fs_indicators(t: CharTable) -> tuple[int, ...]:
    """Squared-power average of each row, on a table that has passed validate:
    there it is +-1. validate makes (<chi_i^2, 1> +- nu_i) / 2 nonnegative
    integers with no irrational part, and <chi_i^2, 1> = <chi_i, chi_i> = 1 by
    row orthogonality of a real table."""
    form = t._integral
    # weights[c]: the size of the classes whose square lies in class c
    weights = [0] * t.num_classes
    for c, size in zip(t.power2, t.class_sizes):
        weights[c] += size
    return tuple(sum(map(mul, weights, row)) // (form.den * t.order) for row in form.a)


def fs_indicator(t: CharTable, i: int) -> int:
    return fs_indicators(t)[i]


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
    return _parts(t, module, parity, convention)[1]


def _parts(t: CharTable, module: str, parity: str, convention: str) -> tuple[Fraction, ...]:
    """The diagonal and twisted-coset parts, from one `_class_sums` call."""
    shift, sign = _shift_sign(module, parity)
    _check_choice(convention, CONVENTIONS, "convention")
    sums = _class_sums(t.class_sizes, t.power2, t.power3, shift, sign, _coset_roots(t, convention))
    return tuple(Fraction(s.as_fraction() if isinstance(s, QuadValue) else s, 6 * t.order**2)
                 for s in sums)


def dim_invariants_chartab(
    t: CharTable, module: str, parity: str, convention: str = FLIP, symmetry: str = FULL
) -> int:
    """Invariant dimension: the diagonal part alone for symmetry "pi-pi",
    else the average of the diagonal and twisted-coset parts."""
    _check_choice(symmetry, SYMMETRIES, "symmetry")
    if symmetry == PI_PI:
        return _as_dimension(diagonal_part(t, module, parity),
                             module=module, parity=parity, symmetry=symmetry)
    dim = sum(_parts(t, module, parity, convention)) / 2
    return _as_dimension(dim, module=module, parity=parity, convention=convention)


# -- file format ----------------------------------------------------------------


def _fraction_from(rec, num_key, den_key) -> Fraction:
    num = limits._json_int(rec[num_key], num_key)
    den = limits._json_int(rec[den_key], den_key)
    if den == 0:
        raise NonRealValue(f"zero denominator in {rec!r}")
    return Fraction(num, den)


def load_char_table(path: str | Path) -> CharTable:
    """Load and validate a character table from its JSON file format, a
    regular file of at most limits.CHAR_TABLE_FILE_LIMIT bytes read by
    limits.read_input, which names the file in every refusal."""

    def build(table: CharTable) -> CharTable:
        table.validate()
        return table

    return limits.read_input(
        path, "character table", lambda text: _char_table_of(json.loads(text)), build
    )


def _char_table_of(raw: dict) -> CharTable:
    """The table that raw encodes, not yet validated."""
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
    return CharTable(radicand, names, sizes, power2, power3, tuple(rows))


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
