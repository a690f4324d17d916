"""Exact invariant dimensions from a real quadratic character table.

Character values live in Q(sqrt(d)) for a single squarefree d per table
(or plain Q). Only real-valued tables are supported; the one shipped here
is the 9x9 table of the binary icosahedral group over Q(sqrt(5)), together
with its class squaring/cubing maps. The module characters are summed here
from the table; the cube-character step, the module shift and the
integrality check are those of `perm`.
"""

from __future__ import annotations

import functools
import json
from collections.abc import Callable
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from . import limits
from .errors import (
    IndicatorOutOfRange,
    MixedRadicand,
    NonRealValue,
    OrthogonalityViolation,
    ParseError,
)
from .perm import (
    CONVENTIONS,
    FLIP,
    INVERSION,
    _as_dimension,
    _check_choice,
    _cube_sum,
    _shift_sign,
)


@dataclass(frozen=True)
class QuadValue:
    """A value a + b*sqrt(d) with exact rational a, b; d=None means plain Q."""

    a: Fraction
    b: Fraction = Fraction(0)
    d: int | None = None

    def __post_init__(self):
        if self.d is not None and self.d < 2:
            raise NonRealValue(f"radicand must be >= 2 or None, got {self.d}")
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

    def is_rational(self) -> bool:
        return self.b == 0

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

    def validate(self) -> None:
        """Check shape, the trivial first row, and exact row orthogonality."""
        self._check_shape()
        k = self.num_classes
        if any(v != 1 for v in self.rows[0]):
            raise ParseError("first row must be the trivial character")
        order = self.order
        try:
            dims = self.irrep_dims
        except ValueError:
            raise ParseError("the first column must hold integer degrees") from None
        if sum(d * d for d in dims) != order:
            raise ParseError("sum of squared dimensions must equal the group order")
        for i in range(k):
            for j in range(i, k):
                total = QuadValue.of(0, self.radicand)
                for c in range(k):
                    total = total + self.class_sizes[c] * self.rows[i][c] * self.rows[j][c]
                expected = order if i == j else 0
                if total != expected:
                    raise OrthogonalityViolation(
                        f"rows ({i}, {j}): got {total!r}, expected {expected}"
                    )


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
    """Squared-power average of row i: +1, -1 or 0 for real tables."""
    total = QuadValue.of(0, t.radicand)
    for c in range(t.num_classes):
        total = total + t.class_sizes[c] * t.rows[i][t.power2[c]]
    try:
        value = total.as_fraction() / t.order
    except ValueError:
        raise IndicatorOutOfRange(f"row {i}: average {total!r} is irrational") from None
    if value.denominator != 1 or value not in (-1, 0, 1):
        raise IndicatorOutOfRange(f"row {i}: average {value} is not in -1, 0, +1")
    return int(value)


def fs_indicators(t: CharTable) -> tuple[int, ...]:
    return tuple(fs_indicator(t, i) for i in range(t.num_classes))


def diagonal_part(t: CharTable, module: str, parity: str) -> Fraction:
    """Average of the cube character over the doubled group alone."""
    shift, sign = _shift_sign(module, parity)
    k, rows, p2, p3 = t.num_classes, t.rows, t.power2, t.power3
    zero = QuadValue.of(0, t.radicand)
    # x[c][d]: the group-algebra character at the class pair (c, d)
    x = [[sum((row[c] * row[d] for row in rows), zero) for d in range(k)] for c in range(k)]
    terms = (
        (t.class_sizes[c] * t.class_sizes[d], x[c][d], x[p2[c]][p2[d]], x[p3[c]][p3[d]])
        for c in range(k)
        for d in range(k)
    )
    return _cube_sum(terms, shift, sign).as_fraction() / (6 * t.order**2)


def tau_part(t: CharTable, module: str, parity: str, convention: str = FLIP) -> Fraction:
    """Average of the cube character over the twisted coset, via single sums.

    With the "flip" convention the involution swaps the two tensor factors on
    each isotypic block, so its trace weights every row by +1. With the
    "inversion" convention (basis-level x -> x^-1) each row is weighted by
    its squared-power indicator wherever the involution itself acts, i.e. in
    the odd powers of the coset element; the even power lands back in the
    doubled group and stays unweighted.
    """
    shift, sign = _shift_sign(module, parity)
    _check_choice(convention, CONVENTIONS, "convention")
    k, rows = t.num_classes, t.rows
    nu = fs_indicators(t) if convention == INVERSION else (1,) * k
    zero = QuadValue.of(0, t.radicand)
    terms = (
        (
            t.class_sizes[c],
            sum((n * row[c] for n, row in zip(nu, rows)), zero),
            sum((row[c] * row[c] for row in rows), zero),
            sum((n * row[t.power3[c]] for n, row in zip(nu, rows)), zero),
        )
        for c in range(k)
    )
    return _cube_sum(terms, shift, sign).as_fraction() / (6 * t.order)


def dim_invariants_chartab(
    t: CharTable, module: str, parity: str, convention: str = FLIP
) -> int:
    """Invariant dimension: average of the diagonal and twisted-coset parts."""
    dim = (diagonal_part(t, module, parity) + tau_part(t, module, parity, convention)) / 2
    return _as_dimension(dim, module=module, parity=parity, convention=convention)


# -- file format ----------------------------------------------------------------


def _fraction_from(rec, num_key, den_key) -> Fraction:
    try:
        num = limits._json_int(rec[num_key], num_key)
        den = limits._json_int(rec[den_key], den_key)
    except (KeyError, TypeError) as exc:
        raise ParseError(f"bad rational entry {rec!r}") from exc
    if den == 0:
        raise NonRealValue(f"zero denominator in {rec!r}")
    return Fraction(num, den)


def load_char_table(
    path: str | Path, fits: Callable[[CharTable], None] | None = None
) -> CharTable:
    """Load and validate a character table from its JSON file format, a
    regular file of at most limits.CHAR_TABLE_FILE_LIMIT bytes. fits, when given,
    sees the table once its shape is checked and before the O(k^3)
    orthogonality sums of validate, and raises if the table cannot serve."""
    where = f"character table {str(path)!r}"
    text = limits._read_text(path, where, limits.CHAR_TABLE_FILE_LIMIT, "a table may take")
    try:
        raw = json.loads(text)
    except (RecursionError, ValueError) as exc:
        raise ParseError(f"cannot read {where}: {exc}") from exc
    table = _char_table_of(raw)
    if fits is not None:
        fits(table)
    table.validate()
    return table


def char_table_from_dict(raw: dict) -> CharTable:
    table = _char_table_of(raw)
    table.validate()
    return table


def _char_table_of(raw: dict) -> CharTable:
    """The table that raw encodes, its shape checked but not yet validated."""
    if not isinstance(raw, dict):
        raise ParseError("character table file must hold a JSON object")
    try:
        radicand = raw["radicand"]
        if radicand is not None:
            radicand = limits._json_int(radicand, "radicand")
        sizes = tuple(limits._json_int(s, "a class size") for s in raw["class_sizes"])
        power2 = tuple(limits._json_int(c, "a power2 entry") for c in raw["power2"])
        power3 = tuple(limits._json_int(c, "a power3 entry") for c in raw["power3"])
        names = raw.get("class_names")
        if names is None:
            names = tuple(f"c{i + 1}" for i in range(len(sizes)))
        else:
            names = tuple(str(s) for s in names)
        rows = []
        for raw_row in raw["rows"]:
            row = []
            for rec in raw_row:
                a = _fraction_from(rec, "a_num", "a_den")
                b = _fraction_from(rec, "b_num", "b_den")
                if b != 0 and radicand is None:
                    raise NonRealValue(f"entry {rec!r} declares a radical part with no radicand")
                row.append(QuadValue(a, b, radicand if b != 0 else None))
            rows.append(tuple(row))
    except (KeyError, TypeError) as exc:
        raise ParseError(f"missing or malformed field: {exc!r}") from exc
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
