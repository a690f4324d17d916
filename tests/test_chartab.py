import dataclasses
import json
import time
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from theta_dims import chartab, groups, lens, perm
from theta_dims.chartab import FLIP, INVERSION, CharTable, QuadValue
from theta_dims.errors import (
    IndicatorOutOfRange,
    InputError,
    MixedRadicand,
    NonRealValue,
    OrthogonalityViolation,
    ParseError,
    PowerMapViolation,
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
    seen = []
    with pytest.raises(OrthogonalityViolation):
        chartab.load_char_table(path, fits=seen.append)
    # the fit check saw the table before the orthogonality sums refused it
    assert [t.class_sizes for t in seen] == [chartab.builtin_sl2f5_table().class_sizes]


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


def test_fs_indicator_rejects_corrupt_table():
    t = chartab.builtin_sl2f5_table()
    rows = [list(r) for r in t.rows]
    rows[1][0] = QuadValue.of(3, 5)  # no longer a character
    broken = CharTable(
        t.radicand, t.class_names, t.class_sizes, t.power2, t.power3,
        tuple(tuple(r) for r in rows),
    )
    with pytest.raises(IndicatorOutOfRange):
        chartab.fs_indicator(broken, 1)


def test_diagonal_part_values():
    t = chartab.builtin_sl2f5_table()
    assert chartab.diagonal_part(t, perm.GROUP_ALGEBRA, perm.EVEN) == 33
    assert chartab.diagonal_part(t, perm.GROUP_ALGEBRA, perm.ODD) == 71


def test_diagonal_part_matches_independent_expansion():
    # test-local rewrite of the double class sum, kept deliberately naive
    t = chartab.builtin_sl2f5_table()
    for module, shift in ((perm.GROUP_ALGEBRA, 0), (perm.AUG_KERNEL, 1)):
        for parity, sign in ((perm.EVEN, -1), (perm.ODD, 1)):
            total = QuadValue.of(0, 5)
            for c in range(9):
                for d in range(9):
                    x1 = sum(
                        (t.value(i, c) * t.value(i, d) for i in range(9)),
                        QuadValue.of(0, 5),
                    ) - shift
                    x2 = sum(
                        (t.value(i, t.power2[c]) * t.value(i, t.power2[d]) for i in range(9)),
                        QuadValue.of(0, 5),
                    ) - shift
                    x3 = sum(
                        (t.value(i, t.power3[c]) * t.value(i, t.power3[d]) for i in range(9)),
                        QuadValue.of(0, 5),
                    ) - shift
                    w = t.class_sizes[c] * t.class_sizes[d]
                    total = total + w * (x1 * x1 * x1 + sign * 3 * x2 * x1 + 2 * x3)
            expected = total.as_fraction() / (6 * 120 * 120)
            assert chartab.diagonal_part(t, module, parity) == expected


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
