import dataclasses
import functools
import itertools
import json
import re
import time
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from theta_dims import chartab, groups, lens, perm
from theta_dims.chartab import FLIP, INVERSION, CharTable, QuadValue
from theta_dims.errors import (
    InputError,
    MixedRadicand,
    NonRealValue,
    OrthogonalityViolation,
    ParseError,
    PowerMapViolation,
    TooLarge,
)

def char_table_from_dict(raw):
    table = chartab._char_table_of(raw)
    table.validate()
    return table


PHI = QuadValue(Fraction(1, 2), Fraction(1, 2), 5)
PHI_STAR = QuadValue(Fraction(1, 2), Fraction(-1, 2), 5)


def test_quad_arithmetic_identities():
    assert PHI * PHI_STAR == -1
    assert PHI * PHI == PHI + 1
    assert PHI + PHI_STAR == 1
    assert -96 - 24 * (PHI + PHI_STAR) == -120
    assert (PHI - PHI_STAR) * (PHI - PHI_STAR) == 5


def test_quad_errors_and_coercions():
    with pytest.raises(MixedRadicand):
        QuadValue(Fraction(0), Fraction(1), 2) + QuadValue(Fraction(0), Fraction(1), 5)
    with pytest.raises(NonRealValue):
        QuadValue(Fraction(1), Fraction(1), None)
    with pytest.raises(NonRealValue):
        QuadValue(Fraction(1), Fraction(1), -5)
    # Q[x]/(x^2 - 4) is no field: 2 - sqrt(4) would be a nonzero zero divisor
    with pytest.raises(NonRealValue, match="non-square"):
        QuadValue(Fraction(2), Fraction(-1), 4)
    assert QuadValue.of(3, 5) == QuadValue.of(3)
    # comparing across radicands is an inequality, not an arithmetic error
    assert QuadValue(Fraction(1), Fraction(1), 2) != QuadValue(Fraction(1), Fraction(1), 5)
    assert QuadValue.of(Fraction(1, 2)).as_fraction() == Fraction(1, 2)
    with pytest.raises(ValueError):
        PHI.as_fraction()
    with pytest.raises(ValueError):
        QuadValue.of(Fraction(1, 2)).as_int()
    assert hash(QuadValue.of(2, 5)) == hash(QuadValue.of(2))


def test_builtin_table_entries():
    t = chartab.builtin_sl2f5_table()
    assert t.order == 120 and t.num_classes == 9
    assert t.irrep_dims == (1, 2, 2, 3, 3, 4, 4, 5, 6)
    gamma = t.class_names.index("c")
    assert t.value(1, gamma) == -PHI_STAR
    assert t.value(7, 0) == 5


def test_builtin_table_orthogonality_all_pairs():
    t = chartab.builtin_sl2f5_table()
    checked = 0
    for i in range(9):
        for j in range(i, 9):
            total = QuadValue.of(0, 5)
            for c in range(9):
                total = total + t.class_sizes[c] * t.value(i, c) * t.value(j, c)
            assert total == (120 if i == j else 0)
            checked += 1
    assert checked == 45


def test_row_4_5_orthogonality_exact_sum():
    # direct expansion over the 9 classes as an independent route
    t = chartab.builtin_sl2f5_table()
    total = sum(
        (t.class_sizes[c] * t.value(3, c) * t.value(4, c) for c in range(9)),
        QuadValue.of(0, 5),
    )
    assert total == 0


def test_round_trip(tmp_path):
    t = chartab.builtin_sl2f5_table()
    path = tmp_path / "table.json"
    chartab.dump_char_table(t, path)
    assert chartab.load_char_table(path) == t
    assert path.read_text() == SL2F5_TEXT


def test_sign_flip_is_caught(tmp_path):
    raw = chartab.char_table_to_dict(chartab.builtin_sl2f5_table())
    raw["rows"][1][5]["a_num"] *= -1
    raw["rows"][1][5]["b_num"] *= -1
    with pytest.raises(OrthogonalityViolation):
        char_table_from_dict(raw)
    path = tmp_path / "table.json"
    path.write_text(json.dumps(raw))
    with pytest.raises(OrthogonalityViolation):
        chartab.load_char_table(path)


def _pairing(rows, sizes, f, j):
    """sum_c |c| f(c) chi_j(c), in QuadValue."""
    return sum((size * f(c) * x for c, (size, x) in enumerate(zip(sizes, rows[j]))),
               QuadValue.of(0))


def _shown(v):
    return repr(v) if v.b else str(v.a)


def _orthogonality_failure(t):
    """The message of validate's first failing row pair, from naive QuadValue
    sums over i <= j in row-major order; None if every pair holds."""
    n = t.order
    for i, j in itertools.combinations_with_replacement(range(t.num_classes), 2):
        total = _pairing(t.rows, t.class_sizes, lambda c: t.rows[i][c], j)
        if total != n * (i == j):
            return f"rows ({i}, {j}): got {_shown(total)}, expected {n * (i == j)}"
    return None


@functools.cache
def _square_map_failure(rows, sizes, power2):
    """The message of validate's first failing Sym^2 or Lambda^2 multiplicity,
    from naive QuadValue sums, row-major and + before -; None if all hold.
    Cached, since the cube map edits share one square map."""
    n = sum(sizes)
    for i, j in itertools.product(range(len(sizes)), repeat=2):
        row = rows[i]
        for op, sign in (("+", 1), ("-", -1)):
            m = _pairing(rows, sizes, lambda c: row[c] * row[c] + sign * row[power2[c]], j)
            m = m * Fraction(1, 2 * n)
            if m.b or m.a.denominator != 1 or m.a < 0:
                return (f"power2 map: <(chi_{i}^2 {op} chi_{i}(g^2))/2, chi_{j}> = {_shown(m)} "
                        "is not a nonnegative integer")
    return None


def _power_map_failure(t):
    """The message of validate's first failing power-map check: the square
    map's, then the cube map's, row-major; None if every check holds."""
    failure = _square_map_failure(t.rows, t.class_sizes, t.power2)
    if failure:
        return failure
    for i, j in itertools.product(range(t.num_classes), repeat=2):
        m = _pairing(t.rows, t.class_sizes, lambda c: t.rows[i][t.power3[c]], j)
        m = m * Fraction(1, t.order)
        if m.b or m.a.denominator != 1:
            return f"power3 map: <chi_{i}(g^3), chi_{j}> = {_shown(m)} is not an integer"
    return None


def test_each_sign_flip_names_the_first_failing_pair(tmp_path):
    # negating one entry of a row i > 0 changes its class sums with every
    # other row; validate names the first failing pair as the naive sums do.
    # A zero entry reads back as the same table, and the trivial row is
    # refused by its own check
    builtin = chartab.builtin_sl2f5_table()
    path = tmp_path / "table.json"
    named = set()
    for i, c in itertools.product(range(builtin.num_classes), repeat=2):
        raw = chartab.char_table_to_dict(builtin)
        raw["rows"][i][c]["a_num"] *= -1
        raw["rows"][i][c]["b_num"] *= -1
        path.write_text(json.dumps(raw))
        if builtin.value(i, c) == 0:
            assert chartab.load_char_table(path) == builtin
            continue
        if i == 0:
            with pytest.raises(ParseError, match="first row must be the trivial character"):
                chartab.load_char_table(path)
            continue
        expected = _orthogonality_failure(chartab._char_table_of(raw))
        with pytest.raises(OrthogonalityViolation) as refused:
            chartab.load_char_table(path)
        assert str(refused.value) == f"character table {str(path)!r}: {expected}"
        named.add(expected.partition(":")[0])
    assert named == {f"rows (0, {i})" for i in range(1, builtin.num_classes)}


def test_a_swap_in_a_row_names_the_first_failing_pair():
    # two entries of row i swapped between classes of size 12 keep its sum
    # and its square sum, so row 0 and the diagonal still hold: the first
    # failing pair lies off row 0, where the scan order shows
    builtin = chartab.builtin_sl2f5_table()
    named = set()
    for i in range(1, builtin.num_classes):
        for c, d in itertools.combinations(range(5, 9), 2):
            row = list(builtin.rows[i])
            row[c], row[d] = row[d], row[c]
            table = dataclasses.replace(builtin, rows=(*builtin.rows[:i], tuple(row),
                                                       *builtin.rows[i + 1:]))
            expected = _orthogonality_failure(table) or _power_map_failure(table)
            try:
                table.validate()
            except (OrthogonalityViolation, PowerMapViolation) as exc:
                assert str(exc) == expected
                named.add(expected.partition(":")[0])
            else:
                assert expected is None
    assert len(named) > 1 and "rows (0, 1)" not in named, named


def test_each_power_map_edit_names_the_first_failing_multiplicity():
    # every single edit of the square or cube map, whether or not it keeps
    # the class sizes, and the square map sending every class to I on the
    # table whose second row has degree 3, where <(chi_1^2 - chi_1(g^2))/2, 1>
    # = (1 - 3)/2 fails after its + sum (1 + 3)/2 = 2 holds: validate's
    # refusal, or none, is the naive scan's
    builtin = chartab.builtin_sl2f5_table()
    assert _orthogonality_failure(builtin) is None
    rows = builtin.rows
    tables = [builtin, dataclasses.replace(builtin, rows=(rows[0], rows[3], *rows[1:3], *rows[4:]),
                                           power2=(0,) * 9)]
    for field in ("power2", "power3"):
        for c, target in itertools.product(range(builtin.num_classes), repeat=2):
            edited = list(getattr(builtin, field))
            if edited[c] != target:
                edited[c] = target
                tables.append(dataclasses.replace(builtin, **{field: tuple(edited)}))
    kinds = set()
    for table in tables:
        expected = _power_map_failure(table)
        try:
            table.validate()
        except PowerMapViolation as exc:
            assert str(exc) == expected
            kinds.add((expected[:6], " - " in expected))
        else:
            assert expected is None, table
    # each kind of refusal occurs: the square map's + and - and the cube map's
    assert kinds == {("power2", False), ("power2", True), ("power3", False)}, kinds


def _huge_numerator():
    """The builtin table with a numerator of 10^30 off the trivial row and the degrees."""
    raw = chartab.char_table_to_dict(chartab.builtin_sl2f5_table())
    raw["rows"][1][2]["a_num"] = 10**30
    return raw


def _huge_class():
    """Classes of sizes 1 and 10^16 with degrees 1 and 10^8: the sum of the
    squared degrees is the order."""
    def value(a):
        return {"a_num": a, "a_den": 1, "b_num": 0, "b_den": 1}

    return {"radicand": None, "class_sizes": [1, 10**16], "power2": [0, 0], "power3": [0, 1],
            "rows": [[value(1), value(1)], [value(10**8), value(0)]]}


# tables whose validation products would leave the exact range of int64 and float64
BEYOND_EXACT_RANGE = {"numerator": _huge_numerator, "class-size": _huge_class}


@pytest.mark.parametrize("case", BEYOND_EXACT_RANGE)
def test_a_table_beyond_the_exact_range_is_too_large(tmp_path, case):
    path = tmp_path / "table.json"
    path.write_text(json.dumps(BEYOND_EXACT_RANGE[case]()))
    with pytest.raises(TooLarge, match=f"^character table {re.escape(repr(str(path)))}: "):
        chartab.load_char_table(path)


def test_validate_at_288_classes_is_fast():
    # the 288 classes of 2I x Z2^5 over Q(sqrt(5)): one BLAS product per Gram
    # part; the products in Python ints took 10 s
    table = _product_table(chartab.builtin_sl2f5_table(), _sign_table(5))
    started = time.perf_counter()
    table.validate()
    assert time.perf_counter() - started < 2


# the builtin table as dump_char_table writes it (test_round_trip checks that)
SL2F5_TEXT = json.dumps(chartab.char_table_to_dict(chartab.builtin_sl2f5_table()), indent=1) + "\n"
TABLE_MUTATIONS = '{}[]",:-+.0123456789 aen'


@st.composite
def char_table_texts(draw):
    """The builtin sl2:5 table as dump_char_table writes it, with one byte
    replaced by, or preceded by, a byte of TABLE_MUTATIONS, or deleted."""
    at = draw(st.integers(0, len(SL2F5_TEXT) - 1))
    byte = draw(st.sampled_from(TABLE_MUTATIONS))
    return draw(st.sampled_from([
        SL2F5_TEXT[:at] + byte + SL2F5_TEXT[at + 1:],
        SL2F5_TEXT[:at] + byte + SL2F5_TEXT[at:],
        SL2F5_TEXT[:at] + SL2F5_TEXT[at + 1:],
    ]))


def _degree_of_row(i: int, den: int) -> str:
    """SL2F5_TEXT with the a_den of row i's first entry set to den."""
    raw = json.loads(SL2F5_TEXT)
    raw["rows"][i][0]["a_den"] = den
    return json.dumps(raw, indent=1) + "\n"


@settings(
    derandomize=True, database=None, max_examples=60, deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(text=char_table_texts())
@example(text=SL2F5_TEXT)
@example(text=_degree_of_row(8, 5))  # a degree of 6/5
@example(text=SL2F5_TEXT.replace('"radicand": 5', '"radicand": 1'))
@example(text=SL2F5_TEXT.replace('"a_den": 1', '"a_den": 0', 1))
def test_load_char_table_survives_one_byte_edits(tmp_path, text):
    # validate does not check the class names against the characters, and
    # its power-map check is necessary, not sufficient, so an edit there may
    # load; every character value, class size and the radicand must come back
    # as they were, or the load fails with an InputError, never another exception
    path = tmp_path / "table.json"
    path.write_text(text)
    try:
        got = chartab.load_char_table(path)
    except InputError:
        return
    original = chartab.builtin_sl2f5_table()
    free = {"class_names": original.class_names, "power2": original.power2,
            "power3": original.power3}
    assert dataclasses.replace(got, **free) == original


def test_trivial_table_valid():
    t = CharTable(
        radicand=None,
        class_names=("e",),
        class_sizes=(1,),
        power2=(0,),
        power3=(0,),
        rows=((QuadValue.of(1),),),
    )
    t.validate()
    assert chartab.dim_invariants_chartab(t, perm.GROUP_ALGEBRA, perm.ODD) == 1
    assert chartab.diagonal_part(t, perm.GROUP_ALGEBRA, perm.ODD) == 1


def test_parse_errors(tmp_path):
    # the file reader renders each as "cannot read", a missing key by its name
    path = tmp_path / "bad.json"
    raw = chartab.char_table_to_dict(chartab.builtin_sl2f5_table())
    del raw["rows"][2][1]["a_den"]
    for text, detail in (("not json", "Expecting value"),
                         ('{"radicand": 5}', "missing key 'class_sizes'"),
                         ("[1, 2, 3]", "character table file must hold a JSON object"),
                         (json.dumps(raw), "missing key 'a_den'")):
        path.write_text(text)
        with pytest.raises(ParseError, match=f"^cannot read character table .*: {detail}"):
            chartab.load_char_table(path)
    raw = chartab.char_table_to_dict(chartab.builtin_sl2f5_table())
    raw["radicand"] = None
    with pytest.raises(NonRealValue):
        char_table_from_dict(raw)
    raw = chartab.char_table_to_dict(chartab.builtin_sl2f5_table())
    raw["rows"][0][0]["a_den"] = 0
    with pytest.raises(NonRealValue):
        char_table_from_dict(raw)


def test_fs_indicator_class_sum_oracle():
    t = chartab.builtin_sl2f5_table()
    assert chartab.fs_indicator(t, 0) == 1
    # row 2: explicit class sum (2 + 2 - 60 - 20 - 20 - 24 phi - 24 phi*)/120
    oracle = (2 + 2 - 60 - 20 - 20 - 24 * PHI - 24 * PHI_STAR) * Fraction(1, 120)
    assert oracle == -1
    assert chartab.fs_indicator(t, 1) == -1
    # row 4: same oracle shape comes out +1
    oracle4 = (3 + 3 + 30 * 3 + 0 + 0 + 12 * (PHI_STAR + PHI + PHI_STAR + PHI)) * Fraction(1, 120)
    assert oracle4 == 1
    assert chartab.fs_indicator(t, 3) == 1
    assert chartab.fs_indicators(t) == (1, -1, -1, 1, 1, 1, -1, 1, -1)


def test_diagonal_part_values():
    t = chartab.builtin_sl2f5_table()
    assert chartab.diagonal_part(t, perm.GROUP_ALGEBRA, perm.EVEN) == 33
    assert chartab.diagonal_part(t, perm.GROUP_ALGEBRA, perm.ODD) == 71


def _two_tables():
    """The builtin table of 2I and that of 2I x Z2, both validated."""
    t = chartab.builtin_sl2f5_table()
    product = _product_table(t, _sign_table(1))
    product.validate()
    return {"2I": t, "2IxZ2": product}


def test_diagonal_part_matches_independent_expansion():
    # test-local rewrite of the double class sum, kept deliberately naive:
    # X^T X summed from the characters, not read off the class sizes
    for t in _two_tables().values():
        k, zero = t.num_classes, QuadValue.of(0, 5)
        xtx = [[sum((t.value(i, c) * t.value(i, d) for i in range(k)), zero) for d in range(k)]
               for c in range(k)]
        for (module, shift), (parity, sign) in itertools.product(
            ((perm.GROUP_ALGEBRA, 0), (perm.AUG_KERNEL, 1)), ((perm.EVEN, -1), (perm.ODD, 1))
        ):
            total = zero
            for c, d in itertools.product(range(k), repeat=2):
                x1 = xtx[c][d] - shift
                x2 = xtx[t.power2[c]][t.power2[d]] - shift
                x3 = xtx[t.power3[c]][t.power3[d]] - shift
                w = t.class_sizes[c] * t.class_sizes[d]
                total = total + w * (x1 * x1 * x1 + sign * 3 * x2 * x1 + 2 * x3)
            expected = total.as_fraction() / (6 * t.order**2)
            assert chartab.diagonal_part(t, module, parity) == expected


def test_dimensions_form_no_table_product(monkeypatch):
    # once validate holds, every dimension reads X^T X off the class sizes:
    # with the product kernels made to raise, each value is still the same
    tables = _two_tables()
    keys = [(module, parity, convention) for module in perm.MODULES
            for parity in perm.PARITIES for convention in perm.CONVENTIONS]

    def values():
        return {
            (name, key): (chartab.diagonal_part(t, *key[:2]), chartab.tau_part(t, *key),
                          chartab.dim_invariants_chartab(t, *key))
            for name, t in tables.items() for key in keys
        }

    expected = values()

    def refuse(*args):
        raise AssertionError("a dimension formed a table product")

    monkeypatch.setattr(chartab, "_gram", refuse)
    assert values() == expected


def test_tau_part_flip_values():
    t = chartab.builtin_sl2f5_table()
    assert chartab.tau_part(t, perm.GROUP_ALGEBRA, perm.EVEN, FLIP) == 21
    assert chartab.tau_part(t, perm.GROUP_ALGEBRA, perm.ODD, FLIP) == 59


def test_tau_part_inversion_matches_perm_module():
    t = chartab.builtin_sl2f5_table()
    twisted = perm.twisted_coset_average(groups.make_sl2(5))
    for module in perm.MODULES:
        for parity in perm.PARITIES:
            assert chartab.tau_part(t, module, parity, INVERSION) == twisted[module, parity]


def test_diagonal_part_matches_perm_pipi():
    t = chartab.builtin_sl2f5_table()
    G = groups.make_sl2(5)
    for module in perm.MODULES:
        for parity in perm.PARITIES:
            assert chartab.diagonal_part(t, module, parity) == perm.dim_invariants_perm(
                G, module, parity, perm.PI_PI
            )


def test_headline_dimensions():
    t = chartab.builtin_sl2f5_table()
    assert chartab.dim_invariants_chartab(t, perm.GROUP_ALGEBRA, perm.EVEN, FLIP) == 27
    assert chartab.dim_invariants_chartab(t, perm.GROUP_ALGEBRA, perm.ODD, FLIP) == 65
    assert chartab.dim_invariants_chartab(t, perm.AUG_KERNEL, perm.ODD, FLIP) == 56
    assert chartab.dim_invariants_chartab(t, perm.AUG_KERNEL, perm.EVEN, FLIP) == 27


def test_kernel_split_instantiates_orbit_count():
    t = chartab.builtin_sl2f5_table()
    for convention in (FLIP, INVERSION):
        ca = chartab.dim_invariants_chartab(t, perm.GROUP_ALGEBRA, perm.ODD, convention)
        ker = chartab.dim_invariants_chartab(t, perm.AUG_KERNEL, perm.ODD, convention)
        assert ca - ker == 9


def _size_signature(t):
    """The sorted (|C|, |C^2|, |C^3|) of each class, which the fit check compares."""
    return sorted(
        (t.class_sizes[c], t.class_sizes[t.power2[c]], t.class_sizes[t.power3[c]])
        for c in range(t.num_classes)
    )


def test_power_map_check_refuses_edited_maps():
    # every single edit of a power map that keeps the size signature, so that
    # the fit check passes: the check refuses all of them, the square of class
    # a sent to I instead of -I too, which the Sym^2 and Lambda^2 multiplicities
    # refuse and the integrality of <chi_i(g^2), chi_j> alone does not
    t = chartab.builtin_sl2f5_table()
    passed, refused = [], 0
    for field in ("power2", "power3"):
        for c in range(t.num_classes):
            for target in range(t.num_classes):
                edited = list(getattr(t, field))
                if edited[c] == target:
                    continue
                edited[c] = target
                table = dataclasses.replace(t, **{field: tuple(edited)})
                if _size_signature(table) != _size_signature(t):
                    continue
                try:
                    table.validate()
                except PowerMapViolation:
                    refused += 1
                else:
                    passed.append((field, t.class_names[c], t.class_names[target]))
    assert refused == 33 and passed == []


def _sign_table(r):
    """The character table of Z2^r: chi_s(x) = (-1)^|s & x|."""
    k = 1 << r
    return CharTable(
        None, tuple(f"c{x}" for x in range(k)), (1,) * k, (0,) * k, tuple(range(k)),
        tuple(tuple(QuadValue.of((-1) ** (s & x).bit_count()) for x in range(k))
              for s in range(k)),
    )


def _product_table(t, u):
    """The character table of the direct product, class (a, b) at a * k_u + b."""
    ku = u.num_classes

    def pairs(f):
        return tuple(f(a, b) for a in range(t.num_classes) for b in range(ku))

    return CharTable(
        t.radicand or u.radicand,
        pairs(lambda a, b: f"{t.class_names[a]}.{u.class_names[b]}"),
        pairs(lambda a, b: t.class_sizes[a] * u.class_sizes[b]),
        pairs(lambda a, b: t.power2[a] * ku + u.power2[b]),
        pairs(lambda a, b: t.power3[a] * ku + u.power3[b]),
        tuple(pairs(lambda a, b: ti[a] * ui[b]) for ti in t.rows for ui in u.rows),
    )


def _z2_power(r):
    z2 = groups.make_cyclic(2)
    G = z2
    for _ in range(r - 1):
        G = groups.make_semidirect_product(G, z2)
    return G


def test_fs_indicators_of_validated_tables_are_signs():
    # validate fixes every indicator to +-1: fs_indicator returns its integer
    # quotient unchecked, so it must equal the exact average
    # (1/n) sum_c |c| chi_i(c^2), summed here in QuadValue from the rows
    builtin = chartab.builtin_sl2f5_table()
    tables = {"2I": builtin, "Z2^3": _sign_table(3)}
    tables |= {f"2IxZ2^{r}": _product_table(builtin, _sign_table(r)) for r in (1, 2)}
    for name, t in tables.items():
        t.validate()
        nus = chartab.fs_indicators(t)
        assert set(nus) <= {1, -1}, name
        for row, nu in zip(t.rows, nus):
            total = sum((size * row[c2] for size, c2 in zip(t.class_sizes, t.power2)),
                        QuadValue.of(0))
            assert total * Fraction(1, t.order) == nu, name


def test_coset_roots_are_square_root_counts():
    # Frobenius-Schur: under inversion, the weighted column sums that tau_part
    # gives perm's twisted class sum are the square-root counts of the power map
    builtin = chartab.builtin_sl2f5_table()
    tables = {"2I": builtin, "Z2^3": _sign_table(3)}
    tables |= {f"2IxZ2^{r}": _product_table(builtin, _sign_table(r)) for r in (1, 2)}
    for name, t in tables.items():
        t.validate()
        roots = perm._root_counts(t.class_sizes, t.power2)
        assert chartab._coset_roots(t, INVERSION) == roots, name


@pytest.mark.parametrize("name", ["Z2^4", "Z2^6", "2IxZ2"])
def test_product_tables_equal_perm(name):
    # Z2^r: every element an involution and every indicator +1, so the flip
    # and inversion conventions agree; 2I x Z2 has values in Q(sqrt(5))
    if name == "2IxZ2":
        table = _product_table(chartab.builtin_sl2f5_table(), _sign_table(1))
        G = groups.make_semidirect_product(groups.make_sl2(5), groups.make_cyclic(2))
        conventions = (INVERSION,)
    else:
        r = int(name[-1])
        table, G, conventions = _sign_table(r), _z2_power(r), (FLIP, INVERSION)
    started = time.perf_counter()
    table.validate()
    for module, parity in lens.COLUMNS:
        for convention in conventions:
            assert chartab.dim_invariants_chartab(table, module, parity, convention) == (
                perm.dim_invariants_perm(G, module, parity, perm.FULL)
            ), (module, parity, convention)
    # the QuadValue sums took 7.5 s for one dimension at 64 classes
    assert time.perf_counter() - started < 2
