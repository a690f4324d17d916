"""Exact invariant dimensions from a real quadratic character table.

Character values live in Q(sqrt(d)) for a single non-square d >= 2 per table
(or plain Q). Only real-valued tables are supported; the one shipped here
is the 9x9 table of the binary icosahedral group over Q(sqrt(5)), together
with its class squaring/cubing maps. The dimensions are `perm`'s class sums
on the table's class sizes and power maps; the characters give only the
twisted coset's count per class, sum_i nu_i chi_i(c) (`_coset_roots`), which
under "inversion" is the class's square-root count. The module shift and the
integrality check are `perm`'s too.

A table is held once, as integer rows over one denominator,
X = (A + B sqrt(d)) / D, with D the lcm of the entries' reduced denominators:
a table file is read straight into these integers, and the builtin table is
integer data over D = 2. Only `CharTable.validate` forms table products, one
`oracle._exact_matmul` product of int64 arrays per Gram part; so a file table
loads numpy and `oracle`, and the builtin one, fixed data, loads neither.
"""

from __future__ import annotations

import functools
import math
from operator import mul
from pathlib import Path
from typing import NamedTuple

from . import limits
from ._lazy import _lazy_import, np
from .errors import NonRealValue, OrthogonalityViolation, ParseError, PowerMapViolation, TooLarge
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

# the exact product kernel, which only validate runs, and the JSON of the
# file format, which only reading or writing a file needs
oracle = _lazy_import(f"{__package__}.oracle")
json = _lazy_import("json")


def _shown(a: int, b: int, den: int, rad: int | None) -> str:
    """(a + b sqrt(rad)) / den, den > 0, as a message prints it: p/q in lowest
    terms, p alone where q is 1, and QuadValue(p/q + r/s*sqrt(rad)) where b is not 0."""

    def part(x: int) -> str:
        g = math.gcd(x, den)
        return f"{x // g}" if g == den else f"{x // g}/{den // g}"

    return f"QuadValue({part(a)} + {part(b)}*sqrt({rad}))" if b else part(a)


class CharTable(NamedTuple):
    """Irreducible characters with their classes and power maps: row i at
    class c is (a[i][c] + b[i][c] sqrt(radicand)) / den, den the lcm of the
    entries' reduced denominators, so that equal tables compare equal."""

    radicand: int | None
    class_names: tuple[str, ...]
    class_sizes: tuple[int, ...]
    power2: tuple[int, ...]
    power3: tuple[int, ...]
    a: tuple[tuple[int, ...], ...]
    b: tuple[tuple[int, ...], ...]
    den: int

    @property
    def num_classes(self) -> int:
        return len(self.class_sizes)

    @property
    def order(self) -> int:
        return sum(self.class_sizes)

    @property
    def irrep_dims(self) -> tuple[int, ...]:
        """The first column; ValueError unless it holds integers."""
        if any(row[0] for row in self.b) or any(row[0] % self.den for row in self.a):
            raise ValueError("the first column must hold integer degrees")
        return tuple(row[0] // self.den for row in self.a)

    def _check_shape(self) -> None:
        """Check the block lengths, the class sizes and the power maps: the
        O(k^2) checks that make every index into the table valid."""
        k = self.num_classes
        if k == 0:
            raise ParseError("table has no classes")
        if not (len(self.a) == len(self.b) == len(self.class_names) == len(self.power2)
                == len(self.power3) == k):
            raise ParseError("table blocks disagree on the number of classes")
        if any(len(row) != k for row in self.a + self.b):
            raise ParseError("character rows must be square with the class count")
        if any(s < 1 for s in self.class_sizes):
            raise ParseError("class sizes must be positive")
        if any(not (0 <= c < k) for c in self.power2 + self.power3):
            raise ParseError("power maps must be class indices")

    def validate(self) -> None:
        """Check shape, the trivial first row, integer degrees, exact row
        orthogonality, the power maps, in Gram products of the integer rows
        (`_gram`), and last that every degree is positive: a negated faithful
        row keeps orthogonality and the power-map multiplicities, so only its
        degree refuses it.

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
        den = self.den
        if any(v != den for v in self.a[0]) or any(self.b[0]):
            raise ParseError("first row must be the trivial character")
        order = self.order
        try:
            dims = self.irrep_dims
        except ValueError as exc:
            raise ParseError(str(exc)) from None
        if sum(d * d for d in dims) != order:
            raise ParseError("sum of squared dimensions must equal the group order")
        k, most = self.num_classes, max(self.class_sizes)
        rad = self.radicand if any(map(any, self.b)) else 0
        top = max(abs(v) for part in (self.a, self.b) for row in part for v in row)
        if 2 * k * most * (1 + 2 * rad) * top**3 >= oracle._FLOAT64_EXACT_LIMIT:
            raise TooLarge(f"entries up to {top} over {den} and class sizes up to {most} "
                           "may take the validation products past 2^53")
        a, b = x = np.array([self.a, self.b], dtype=np.int64)
        sizes, scale = self.class_sizes, order * den**2
        # <chi_i, chi_j> times n den^2
        rational, irrational = _gram(x, x, sizes, rad)
        bad = np.triu((rational != scale * np.eye(k, dtype=np.int64)) | (irrational != 0))
        for i, j in np.argwhere(bad)[:1].tolist():  # the first, in row-major order
            got = _shown(int(rational[i, j]), int(irrational[i, j]), den**2, self.radicand)
            raise OrthogonalityViolation(f"rows ({i}, {j}): got {got}, expected {order * (i == j)}")
        # <chi_i^2, chi_j> times n den^3, and <chi_i o p_2, chi_j> times n den^2;
        # their sum and difference, on the last axis, over 2 n den^3
        square = _gram((a * a + rad * b * b, 2 * a * b), x, sizes, rad)
        power2 = _gram(x[..., self.power2], x, sizes, rad)
        rational, irrational = (s[..., None] + np.array([1, -1]) * den * p[..., None]
                                for s, p in zip(square, power2))
        bad = (irrational != 0) | (rational % (2 * scale * den) != 0) | (rational < 0)
        for i, j, s in np.argwhere(bad)[:1].tolist():
            got = _shown(int(rational[i, j, s]), int(irrational[i, j, s]), 2 * scale * den,
                         self.radicand)
            raise PowerMapViolation(f"power2 map: <(chi_{i}^2 {'+-'[s]} chi_{i}(g^2))/2, "
                                    f"chi_{j}> = {got} is not a nonnegative integer")
        rational, irrational = _gram(x[..., self.power3], x, sizes, rad)
        for i, j in np.argwhere((rational % scale != 0) | (irrational != 0))[:1].tolist():
            got = _shown(int(rational[i, j]), int(irrational[i, j]), scale, self.radicand)
            raise PowerMapViolation(f"power3 map: <chi_{i}(g^3), chi_{j}> = {got} is not an integer")
        # last, so that a table the checks above refuse keeps its message
        for i, d in enumerate(dims):
            if d <= 0:
                raise ParseError(f"the first column must hold positive degrees, row {i} has {d}")


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


# SL2(F5)'s characters as (A + B sqrt(5)) / 2: the last four classes hold
# +-phi and +-phi*, phi = (1 + sqrt(5)) / 2 and its conjugate phi* = (1 - sqrt(5)) / 2
_SL2F5_A = (
    (2, 2, 2, 2, 2, 2, 2, 2, 2),
    (4, -4, 0, -2, 2, -1, -1, 1, 1),
    (4, -4, 0, -2, 2, -1, -1, 1, 1),
    (6, 6, -2, 0, 0, 1, 1, 1, 1),
    (6, 6, -2, 0, 0, 1, 1, 1, 1),
    (8, 8, 0, 2, 2, -2, -2, -2, -2),
    (8, -8, 0, 2, -2, -2, -2, 2, 2),
    (10, 10, 2, -2, -2, 0, 0, 0, 0),
    (12, -12, 0, 0, 0, 2, 2, -2, -2),
)
_SL2F5_B = (
    (0,) * 9,
    (0, 0, 0, 0, 0, 1, -1, -1, 1),
    (0, 0, 0, 0, 0, -1, 1, 1, -1),
    (0, 0, 0, 0, 0, 1, -1, 1, -1),
    (0, 0, 0, 0, 0, -1, 1, -1, 1),
    (0,) * 9,
    (0,) * 9,
    (0,) * 9,
    (0,) * 9,
)


@functools.cache
def builtin_sl2f5_table() -> CharTable:
    """The 9-class character table of SL2(F5) over Q(sqrt(5)): fixed data,
    validated by `verify`, which also matches its classes with SL2(F5)'s."""
    names = ("I", "-I", "a", "b", "b'", "c", "c'", "-c", "-c'")
    sizes = (1, 1, 30, 20, 20, 12, 12, 12, 12)
    power2 = (0, 0, 1, 3, 3, 6, 5, 6, 5)
    power3 = (0, 1, 2, 0, 1, 6, 5, 8, 7)
    return CharTable(5, names, sizes, power2, power3, _SL2F5_A, _SL2F5_B, 2)


def fs_indicators(t: CharTable) -> tuple[int, ...]:
    """Squared-power average of each row, on a table that has passed validate:
    there it is +-1. validate makes (<chi_i^2, 1> +- nu_i) / 2 nonnegative
    integers with no irrational part, and <chi_i^2, 1> = <chi_i, chi_i> = 1 by
    row orthogonality of a real table."""
    # weights[c]: the size of the classes whose square lies in class c
    weights = [0] * t.num_classes
    for c, size in zip(t.power2, t.class_sizes):
        weights[c] += size
    return tuple(sum(map(mul, weights, row)) // (t.den * t.order) for row in t.a)


def fs_indicator(t: CharTable, i: int) -> int:
    return fs_indicators(t)[i]


def diagonal_part(t: CharTable, module: str, parity: str):
    """Average of the cube character over the doubled group alone, an int or
    a Fraction: `perm`'s untwisted class sum on the table's class sizes and
    power maps."""
    untwisted, _ = _class_sums(t.class_sizes, t.power2, t.power3, *_shift_sign(module, parity))
    return _quotient(untwisted, 6 * t.order**2)


def _coset_roots(t: CharTable, convention: str) -> list:
    """sum_i nu_i X_ic for each class c, on a table that has passed validate:
    an int, or a Fraction where inexact; a ValueError names the first that is
    irrational. Under "inversion" nu_i is the squared-power indicator, and by
    Frobenius–Schur the sum counts the square roots of an element of c; under
    "flip" every nu_i is 1."""
    nu = fs_indicators(t) if convention == INVERSION else (1,) * t.num_classes
    roots = []
    for a, b in zip(zip(*t.a), zip(*t.b)):
        a, b = sum(map(mul, nu, a)), sum(map(mul, nu, b))
        if b:
            raise ValueError(f"{_shown(a, b, t.den, t.radicand)} is not rational")
        roots.append(_quotient(a, t.den))
    return roots


def tau_part(t: CharTable, module: str, parity: str, convention: str = FLIP):
    """Average of the cube character over the twisted coset, an int or a
    Fraction, on a table that has passed validate: `perm`'s twisted class
    sum, with the sums of `_coset_roots` in place of the square-root counts.

    With the "flip" convention the involution swaps the two tensor factors on
    each isotypic block, so its trace weights every row by +1. With the
    "inversion" convention (basis-level x -> x^-1) each row is weighted by
    its squared-power indicator wherever the involution itself acts, i.e. in
    the odd powers of the coset element; the even power lands back in the
    doubled group and stays unweighted.
    """
    return _quotient(_parts(t, module, parity, convention)[1], 6 * t.order**2)


def _parts(t: CharTable, module: str, parity: str, convention: str) -> tuple:
    """The untwisted and twisted coset sums, 6 n^2 times the diagonal and
    twisted-coset parts, from one `_class_sums` call."""
    shift, sign = _shift_sign(module, parity)
    _check_choice(convention, CONVENTIONS, "convention")
    return _class_sums(t.class_sizes, t.power2, t.power3, shift, sign, _coset_roots(t, convention))


def dim_invariants_chartab(
    t: CharTable, module: str, parity: str, convention: str = FLIP, symmetry: str = FULL
) -> int:
    """Invariant dimension: the diagonal part alone for symmetry "pi-pi",
    else the average of the diagonal and twisted-coset parts."""
    _check_choice(symmetry, SYMMETRIES, "symmetry")
    if symmetry == PI_PI:
        return _as_dimension(diagonal_part(t, module, parity),
                             module=module, parity=parity, symmetry=symmetry)
    return _as_dimension(sum(_parts(t, module, parity, convention)), 12 * t.order**2,
                         module=module, parity=parity, convention=convention)


# -- file format ----------------------------------------------------------------


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


def _entry(rec, radicand: int | None) -> tuple[int, int, int, int]:
    """The (a_num, a_den, b_num, b_den) of one character value rec."""
    if not isinstance(rec, dict):
        raise ParseError(f"a character value must be a JSON object, got {rec!r:.40}")
    entry = []
    for num_key, den_key in (("a_num", "a_den"), ("b_num", "b_den")):
        entry += limits._json_int(rec[num_key], num_key), limits._json_int(rec[den_key], den_key)
        if entry[-1] == 0:
            raise NonRealValue(f"zero denominator in {rec!r}")
    if entry[2]:
        if radicand is None:
            raise NonRealValue(f"entry {rec!r} declares a radical part with no radicand")
        if radicand < 2 or math.isqrt(radicand) ** 2 == radicand:
            raise NonRealValue(f"radicand must be a non-square >= 2 or None, got {radicand}")
    return tuple(entry)


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
        rows.append([_entry(rec, radicand) for rec in raw_row])
    # the lcm of the reduced denominators, which each numerator scales to: one
    # of 2^53 or more, whose validation validate would refuse, is refused
    # before it grows with every coprime denominator and scales every entry
    den = 1
    for d in {d // math.gcd(n, d) for row in rows for e in row for n, d in (e[:2], e[2:])}:
        den = math.lcm(den, d)
        if den >= oracle._FLOAT64_EXACT_LIMIT:
            raise TooLarge("the entries' denominators have an lcm of 2^53 or more, "
                           "which would take the validation products past 2^53")
    a = tuple(tuple(e[0] * den // e[1] for e in row) for row in rows)
    b = tuple(tuple(e[2] * den // e[3] for e in row) for row in rows)
    return CharTable(radicand, names, sizes, power2, power3, a, b, den)


def char_table_to_dict(t: CharTable) -> dict:
    def enc(a: int, b: int) -> dict:
        ga, gb = math.gcd(a, t.den), math.gcd(b, t.den)
        return {"a_num": a // ga, "a_den": t.den // ga, "b_num": b // gb, "b_den": t.den // gb}

    return {
        "radicand": t.radicand,
        "class_names": list(t.class_names),
        "class_sizes": list(t.class_sizes),
        "power2": list(t.power2),
        "power3": list(t.power3),
        "rows": [[enc(*v) for v in zip(*rows)] for rows in zip(t.a, t.b)],
    }


def dump_char_table(t: CharTable, path: str | Path) -> None:
    Path(path).write_text(json.dumps(char_table_to_dict(t), indent=1) + "\n")
