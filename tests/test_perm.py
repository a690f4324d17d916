import itertools
import math
import random
import re
from fractions import Fraction
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from theta_dims import classdata, groups, oracle, perm
from theta_dims.perm import AUG_KERNEL, EVEN, FULL, GROUP_ALGEBRA, ODD, PI_PI


def small_battery(limit=24):
    return [(name, G) for name, G in groups.battery_groups() if G.order <= limit]


class CosetElement(NamedTuple):
    """An element of the doubled-and-swapped symmetry group, acting on basis
    indices by x -> g x h^-1 (untwisted) or x -> h x^-1 g^-1 (twisted)."""

    twisted: bool
    g: int
    h: int


def permutation_of(G, sigma):
    """The full permutation array of sigma on basis indices, from whole rows
    of the table; `act` is the same map one index at a time."""
    mul, inv = G.mul_table, G.inv_table
    if sigma.twisted:
        return mul[mul[sigma.h, inv], inv[sigma.g]]
    return mul[mul[sigma.g], inv[sigma.h]]


def act(G, sigma, x):
    """Apply the coset element sigma to a single basis index."""
    if sigma.twisted:
        return G.mul(G.mul(sigma.h, G.inv(x)), G.inv(sigma.g))
    return G.mul(G.mul(sigma.g, x), G.inv(sigma.h))


def compose(G, s, t):
    """The coset element acting as s after t (function composition)."""
    if not s.twisted and not t.twisted:
        return CosetElement(False, G.mul(s.g, t.g), G.mul(s.h, t.h))
    if not s.twisted and t.twisted:
        return CosetElement(True, G.mul(s.h, t.g), G.mul(s.g, t.h))
    if s.twisted and not t.twisted:
        return CosetElement(True, G.mul(s.g, t.g), G.mul(s.h, t.h))
    return CosetElement(False, G.mul(s.h, t.g), G.mul(s.g, t.h))


def fixed_points(G, sigma):
    """Number of basis indices fixed by sigma (its permutation character)."""
    return int((permutation_of(G, sigma) == np.arange(G.order)).sum())


def cube_character(c1, c2, c3, parity):
    """Trace on the cubic power of a map with traces c1, c2, c3 at powers 1, 2, 3:
    the alternating cube for parity "even", the symmetric cube for "odd"."""
    _, sign = perm._shift_sign(GROUP_ALGEBRA, parity)
    return Fraction(perm._cube_sum([(1, c1, c2, c3)], 0, sign), 6)


def test_act_examples():
    G = groups.make_cyclic(5)
    e = G.identity
    ident = CosetElement(False, e, e)
    assert all(act(G, ident, x) == x for x in range(5))
    assert act(G, CosetElement(True, e, e), 2) == 3
    G5 = groups.make_sl2(5)
    g, h = 17, 42
    sigma = CosetElement(False, g, h)
    assert act(G5, sigma, G5.identity) == G5.mul(g, G5.inv(h))


def test_act_is_bijection():
    G = groups.make_sl2(3)
    rng = random.Random(2)
    for _ in range(20):
        sigma = CosetElement(rng.random() < 0.5, rng.randrange(24), rng.randrange(24))
        assert sorted(act(G, sigma, x) for x in range(24)) == list(range(24))


def test_compose_matches_function_composition():
    G = groups.make_sl2(2)  # S3
    rng = random.Random(3)
    for _ in range(50):
        s = CosetElement(rng.random() < 0.5, rng.randrange(6), rng.randrange(6))
        t = CosetElement(rng.random() < 0.5, rng.randrange(6), rng.randrange(6))
        st = compose(G, s, t)
        for x in range(6):
            assert act(G, st, x) == act(G, s, act(G, t, x))


def test_compose_swap_relation():
    # conjugating an untwisted pair by the twist swaps its two slots
    G = groups.make_sl2(3)
    tau = CosetElement(True, G.identity, G.identity)
    rng = random.Random(4)
    for _ in range(20):
        g, h = rng.randrange(24), rng.randrange(24)
        conj = compose(G, compose(G, tau, CosetElement(False, g, h)), tau)
        assert conj == CosetElement(False, h, g)


def test_fixed_points_examples():
    G = groups.make_sl2(5)
    e = G.identity
    assert fixed_points(G, CosetElement(False, e, e)) == 120
    cd = groups.conjugacy_classes(G)
    g, h = 0, e  # class of g1 is not the identity class, so g and h are not conjugate
    assert cd.class_of[g] != cd.class_of[h]
    assert fixed_points(G, CosetElement(False, g, h)) == 0
    assert fixed_points(groups.make_cyclic(5), CosetElement(True, 0, 0)) == 1


def test_fixed_point_identities_brute():
    for name, G in small_battery(24):
        cd = groups.conjugacy_classes(G)
        centralizer = [
            sum(1 for h in range(G.order) if G.mul(h, g) == G.mul(g, h))
            for g in range(G.order)
        ]
        rng = random.Random(5)
        pairs = [(rng.randrange(G.order), rng.randrange(G.order)) for _ in range(30)]
        for g, h in pairs:
            untw = fixed_points(G, CosetElement(False, g, h))
            if cd.class_of[g] == cd.class_of[h]:
                assert untw == centralizer[g]
            else:
                assert untw == 0
            tw = fixed_points(G, CosetElement(True, g, h))
            hg = G.mul(h, g)
            assert tw == sum(1 for z in range(G.order) if G.mul(z, z) == hg)


def test_cube_character_examples():
    assert cube_character(120, 120, 120, EVEN) == 280840
    assert cube_character(120, 120, 120, EVEN) == Fraction(120 * 119 * 118, 6)
    assert cube_character(0, 7, 0, EVEN) == 0
    assert cube_character(0, 7, 0, ODD) == 0
    assert cube_character(2, 2, 2, ODD) == 4
    with pytest.raises(ValueError):
        cube_character(1, 1, 1, "both")


@pytest.mark.parametrize("total,den", [
    (0, 1), (12, 6), (7, 2), (-6, 6), (-7, 6), (Fraction(12), 1), (Fraction(7, 2), 1),
    (Fraction(3, 2), 3), (Fraction(-4, 3), 2),
])
def test_as_dimension_takes_ints_and_fractions_alike(total, den):
    # the int division of perm and the Fraction averages of chartab share one
    # check, which refuses what is not a nonnegative integer with its average
    average = Fraction(total, den)
    if average.denominator == 1 and average >= 0:
        assert perm._as_dimension(total, den, module=AUG_KERNEL) == average
        return
    with pytest.raises(perm.NonIntegralDimension, match=re.escape(
        f"average {average} is not a nonnegative integer (module={AUG_KERNEL})"
    )):
        perm._as_dimension(total, den, module=AUG_KERNEL)


def _wedge_and_sym_traces(sigma):
    """Traces of sigma on the alternating and symmetric cubes of C^m, by
    listing the monomials it fixes: a fixed wedge counts with the sign of
    the permutation it induces on its three indices."""
    wedge = 0
    for triple in itertools.combinations(range(len(sigma)), 3):
        image = [sigma[i] for i in triple]
        if sorted(image) == list(triple):
            inversions = sum(a > b for a, b in itertools.combinations(image, 2))
            wedge += (-1) ** inversions
    sym = sum(
        sorted(sigma[i] for i in triple) == list(triple)
        for triple in itertools.combinations_with_replacement(range(len(sigma)), 3)
    )
    return wedge, sym


def test_cube_character_matches_fixed_monomials():
    for sigma in itertools.permutations(range(6)):
        s2 = [sigma[i] for i in sigma]
        s3 = [sigma[i] for i in s2]
        fixed = [sum(p[i] == i for i in range(6)) for p in (sigma, s2, s3)]
        wedge, sym = _wedge_and_sym_traces(sigma)
        assert cube_character(*fixed, EVEN) == wedge
        assert cube_character(*fixed, ODD) == sym


@pytest.mark.parametrize(
    "n,module,parity,expected",
    [(6, GROUP_ALGEBRA, ODD, 7), (15, GROUP_ALGEBRA, EVEN, 12), (3, AUG_KERNEL, ODD, 1), (1, GROUP_ALGEBRA, EVEN, 0)],
)
def test_dim_invariants_perm_cyclic_examples(n, module, parity, expected):
    assert perm.dim_invariants_perm(groups.make_cyclic(n), module, parity, FULL) == expected


def test_dim_invariants_perm_on_cyclic_class_data():
    # both routes for every order below 131, the order of sl2:7 and 4096
    for n in [*range(1, 131), 336, 4096]:
        arithmetic, table = classdata.cyclic_class_data(n), groups.make_cyclic(n)
        for case in itertools.product(perm.MODULES, perm.PARITIES, perm.SYMMETRIES):
            assert perm.dim_invariants_perm(arithmetic, *case) == (
                perm.dim_invariants_perm(table, *case)
            ), (n, case)


def test_dim_invariants_perm_on_sl2_class_data():
    for p in (2, 3, 5, 7):
        arithmetic, table = classdata.sl2_class_data(p), groups.make_sl2(p)
        for case in itertools.product(perm.MODULES, perm.PARITIES, perm.SYMMETRIES):
            assert perm.dim_invariants_perm(arithmetic, *case) == (
                perm.dim_invariants_perm(table, *case)
            ), (p, case)


def test_lens_closed_forms_up_to_30():
    from theta_dims import lens

    for n in range(1, 31):
        G = groups.make_cyclic(n)
        d = lens.lens_dims(n)
        assert perm.dim_invariants_perm(G, GROUP_ALGEBRA, ODD, FULL) == d.odd_group_algebra
        assert perm.dim_invariants_perm(G, GROUP_ALGEBRA, EVEN, FULL) == d.even_group_algebra
        assert perm.dim_invariants_perm(G, AUG_KERNEL, ODD, FULL) == d.odd_aug_kernel
        assert perm.dim_invariants_perm(G, AUG_KERNEL, EVEN, FULL) == d.even_aug_kernel


def brute_twisted_average(G, module, parity):
    shift = 1 if module == AUG_KERNEL else 0
    total = Fraction(0)
    for g in range(G.order):
        for h in range(G.order):
            sigma = CosetElement(True, g, h)
            s2 = compose(G, sigma, sigma)
            s3 = compose(G, sigma, s2)
            total += cube_character(
                fixed_points(G, sigma) - shift,
                fixed_points(G, s2) - shift,
                fixed_points(G, s3) - shift,
                parity,
            )
    return total / G.order**2


def test_twisted_coset_average_examples():
    Z1 = perm.twisted_coset_average(groups.make_cyclic(1))
    assert (Z1[GROUP_ALGEBRA, ODD], Z1[GROUP_ALGEBRA, EVEN]) == (1, 0)
    Z2 = groups.make_cyclic(2)
    twisted = perm.twisted_coset_average(Z2)
    assert (twisted[GROUP_ALGEBRA, ODD], twisted[GROUP_ALGEBRA, EVEN]) == (2, 0)
    assert brute_twisted_average(Z2, GROUP_ALGEBRA, ODD) == 2
    assert brute_twisted_average(Z2, GROUP_ALGEBRA, EVEN) == 0


def test_twisted_coset_average_matches_brute():
    for name, G in small_battery(8):
        twisted = perm.twisted_coset_average(G)
        for module in (GROUP_ALGEBRA, AUG_KERNEL):
            for parity in (EVEN, ODD):
                assert twisted[module, parity] == brute_twisted_average(G, module, parity)


def test_full_is_average_of_coset_halves():
    for name, G in small_battery(24):
        twisted = perm.twisted_coset_average(G)
        for module in (GROUP_ALGEBRA, AUG_KERNEL):
            for parity in (EVEN, ODD):
                full = perm.dim_invariants_perm(G, module, parity, FULL)
                pipi = perm.dim_invariants_perm(G, module, parity, PI_PI)
                assert Fraction(full) == (Fraction(pipi) + twisted[module, parity]) / 2


def test_augmentation_split():
    for name, G in groups.battery_groups():
        orbit_count = groups.conjugacy_classes(G).inversion_orbits
        assert perm.dim_invariants_perm(G, GROUP_ALGEBRA, EVEN, FULL) == perm.dim_invariants_perm(
            G, AUG_KERNEL, EVEN, FULL
        )
        assert (
            perm.dim_invariants_perm(G, GROUP_ALGEBRA, ODD, FULL)
            - perm.dim_invariants_perm(G, AUG_KERNEL, ODD, FULL)
            == orbit_count
        )


def _binary_octahedral():
    # 2O, the binary octahedral group, as the subgroup of sl2:7 closed from two generators
    SL = groups.make_sl2(7)
    return groups._subgroup(SL, [SL.labels.index("[0,1;6,3]"), SL.labels.index("[1,1;4,5]")])


# the nonabelian ones have classes of several sizes; 2O has two classes of
# order-4 elements, one with two square roots each (of order 8) and one with none
REFERENCE_GROUPS = dict(
    groups.battery_groups(),
    **{
        "sl2:5": groups.make_sl2(5),
        "Z2xQ8": groups.make_semidirect_product(groups.make_cyclic(2), groups.make_quaternion8()),
        "2O": _binary_octahedral(),
    },
)


def draw_relabeling(data, G):
    """G with its indices permuted (new = p[old]) by a drawn permutation and
    rebuilt through make_from_cayley; the identity permutation leaves G as built."""
    p = np.array(data.draw(st.permutations(range(G.order))))
    mul = np.empty((G.order, G.order), dtype=np.int64)
    mul[np.ix_(p, p)] = p[G.mul_table]
    return groups.make_from_cayley(mul)


@settings(derandomize=True, database=None, max_examples=3, deadline=None)
@given(data=st.data())
def test_reduced_route_equals_direct_sums(data):
    for G in REFERENCE_GROUPS.values():
        G = draw_relabeling(data, G)
        terms = [perm._coset_terms(G, twisted) for twisted in (False, True)]
        for module, parity in itertools.product((GROUP_ALGEBRA, AUG_KERNEL), (EVEN, ODD)):
            shift, sign = perm._shift_sign(module, parity)
            untwisted, twisted = (perm._cube_sum(t, shift, sign) for t in terms)
            pair_count = G.order**2
            assert perm.dim_invariants_perm(G, module, parity, PI_PI) == Fraction(
                untwisted, 6 * pair_count
            )
            assert perm.dim_invariants_perm(G, module, parity, FULL) == Fraction(
                untwisted + twisted, 12 * pair_count
            )


@st.composite
def unit_actions(draw):
    """(m, r, k) for Z_m x| Z_k acting by x -> r^h x: m <= 12, k <= 4, and r a
    unit mod m with r^k = 1 mod m."""
    m, k = draw(st.integers(1, 12)), draw(st.integers(1, 4))
    units = [r for r in range(m) if math.gcd(r, m) == 1 and pow(r, k, m) == 1 % m]
    return m, draw(st.sampled_from(units)), k


# ordered pairs of battery groups of order > 1 whose direct product has order <= 48
DIRECT_FACTORS = [
    (A, B) for (_, A), (_, B) in itertools.product(small_battery(), repeat=2)
    if A.order > 1 and B.order > 1 and A.order * B.order <= 48
]

SL2_GROUPS = {p: groups.make_sl2(p) for p in (3, 5, 7)}


def draw_sl2_subgroup(data):
    """The subgroup of SL2(F_p), p = 3, 5 or 7, generated by one or two drawn
    elements, or, if that has order over 48, the cyclic subgroup of the first
    one (element orders in SL2(F_7) are at most 14); nothing is filtered out."""
    S = SL2_GROUPS[data.draw(st.sampled_from(sorted(SL2_GROUPS)), label="p")]
    gens = data.draw(st.lists(st.integers(0, S.order - 1), min_size=1, max_size=2),
                     label="generators")
    G = groups._subgroup(S, gens)
    return G if G.order <= 48 else groups._subgroup(S, gens[:1])


@settings(derandomize=True, database=None, max_examples=30, deadline=None)
@given(data=st.data())
def test_methods_agree_on_drawn_semidirect_products(data):
    # Z_m x| Z_k by a unit action, a relabeled direct product A x B, or a
    # relabeled subgroup of SL2(F_p)
    kind = data.draw(st.sampled_from(("unit action", "direct", "sl2 subgroup")), label="kind")
    if kind == "direct":
        A, B = data.draw(st.sampled_from(DIRECT_FACTORS))
        G = draw_relabeling(data, groups.make_semidirect_product(A, B))
    elif kind == "sl2 subgroup":
        G = draw_relabeling(data, draw_sl2_subgroup(data))
    else:
        m, r, k = data.draw(unit_actions())
        G = groups.make_semidirect_product(
            groups.make_cyclic(m), groups.make_cyclic(k), groups._unit_action(m, r, k)
        )
    groups.validate_group(G)
    pair_count = G.order**2
    dims = {}
    terms = [perm._coset_terms(G, twisted) for twisted in (False, True)]
    direct = perm.twisted_coset_average(G)
    for module, parity in itertools.product((GROUP_ALGEBRA, AUG_KERNEL), (EVEN, ODD)):
        shift, sign = perm._shift_sign(module, parity)
        untwisted, twisted = (perm._cube_sum(t, shift, sign) for t in terms)
        pipi = perm.dim_invariants_perm(G, module, parity, PI_PI)
        dims[module, parity] = perm.dim_invariants_perm(G, module, parity, FULL)
        assert pipi == Fraction(untwisted, 6 * pair_count)
        assert dims[module, parity] == Fraction(untwisted + twisted, 12 * pair_count)
        # the identity verify conventions checks the direct route against
        assert direct[module, parity] == 2 * dims[module, parity] - pipi
        if module == GROUP_ALGEBRA:
            assert oracle.dim_invariants_orbit(G, parity, PI_PI) == pipi
            assert oracle.dim_invariants_orbit(G, parity, FULL) == dims[module, parity]
        assert oracle.dim_invariants_reynolds(G, module, parity, PI_PI) == pipi
        assert oracle.dim_invariants_reynolds(G, module, parity, FULL) == dims[module, parity]
    assert dims[GROUP_ALGEBRA, EVEN] == dims[AUG_KERNEL, EVEN]
    assert (
        dims[GROUP_ALGEBRA, ODD] - dims[AUG_KERNEL, ODD]
        == groups.conjugacy_classes(G).inversion_orbits
    )


def _four_dims(G):
    return [
        perm.dim_invariants_perm(G, module, parity, FULL)
        for module, parity in itertools.product((GROUP_ALGEBRA, AUG_KERNEL), (EVEN, ODD))
    ]


def test_q8_by_z3_is_binary_tetrahedral():
    # P'_24 = Q8 x| Z3, Z3 acting by conjugation with [1,1;0,1], of order 3 in
    # SL2(F_3), which normalizes Q8; the product is SL2(F_3) again
    SL, Q8 = groups.make_sl2(3), groups.make_quaternion8()
    elems = [SL.labels.index(label) for label in Q8.labels]
    g = SL.labels.index("[1,1;0,1]")
    conj = [elems.index(SL.mul(SL.mul(g, x), SL.inv(g))) for x in elems]
    G = groups.make_semidirect_product(
        Q8, groups.make_cyclic(3), [list(range(8)), conj, [conj[c] for c in conj]]
    )
    groups.validate_group(G)
    assert sorted(groups.conjugacy_classes(G).sizes) == sorted(groups.conjugacy_classes(SL).sizes)
    assert _four_dims(G) == _four_dims(SL)


def _coset_sums(G):
    terms = [perm._coset_terms(G, twisted) for twisted in (False, True)]
    return [
        perm._cube_sum(t, *perm._shift_sign(module, parity))
        for module, parity in itertools.product((GROUP_ALGEBRA, AUG_KERNEL), (EVEN, ODD))
        for t in terms
    ]


# S3, the Frobenius group of order 21 (Z7 x| Z3 by x -> 2x) and Z37
@pytest.mark.parametrize(
    "G",
    [
        groups.make_sl2(2),
        groups.make_semidirect_product(
            groups.make_cyclic(7), groups.make_cyclic(3), groups._unit_action(7, 2, 3)
        ),
        groups.make_cyclic(37),
    ],
    ids=["sl2:2", "F21", "cyclic:37"],
)
def test_row_chunks_of_four_rows(monkeypatch, G):
    # 6, 21 and 37 rows h per g in _coset_terms: every chunking ends on a partial chunk
    default = _coset_sums(G)
    cd = groups.conjugacy_classes(G)
    assert default == [
        total
        for module, parity in itertools.product((GROUP_ALGEBRA, AUG_KERNEL), (EVEN, ODD))
        for total in perm._class_sums(cd.sizes, cd.power2, cd.power3,
                                      *perm._shift_sign(module, parity))
    ]
    monkeypatch.setattr(groups, "_CHUNK_ENTRIES", 4 * G.order)
    assert [s.stop - s.start for s in groups._row_chunks(9, G.order)] == [4, 4, 1]
    assert _coset_sums(G) == default


# (module, parity, symmetry) in product order; Q8 is built as a subgroup of sl2:3
EIGHT_DIMS = {"Q8": [1, 1, 9, 9, 1, 1, 4, 4], "Z2xQ8": [11, 11, 27, 27, 11, 11, 17, 17]}


@pytest.mark.parametrize("name", sorted(EIGHT_DIMS))
def test_quaternion_dims(name):
    G = REFERENCE_GROUPS[name]
    assert [
        perm.dim_invariants_perm(G, module, parity, symmetry)
        for module, parity, symmetry in itertools.product(
            (GROUP_ALGEBRA, AUG_KERNEL), (EVEN, ODD), (FULL, PI_PI)
        )
    ] == EIGHT_DIMS[name]


def test_binary_octahedral_dims():
    G = REFERENCE_GROUPS["2O"]
    assert G.order == 48
    groups.validate_group(G)
    assert sorted(groups.conjugacy_classes(G).sizes) == [1, 1, 6, 6, 6, 8, 8, 12]
    assert _four_dims(G) == [11, 35, 11, 27]


def test_lens_closed_forms_at_2048():
    from theta_dims import lens

    d = lens.lens_dims(2048)
    expected = [d.even_group_algebra, d.odd_group_algebra, d.even_aug_kernel, d.odd_aug_kernel]
    assert _four_dims(groups.make_cyclic(2048)) == expected


def test_input_validation():
    G = groups.make_cyclic(3)
    with pytest.raises(ValueError):
        perm.dim_invariants_perm(G, "bogus", ODD, FULL)
    with pytest.raises(ValueError):
        perm.dim_invariants_perm(G, GROUP_ALGEBRA, ODD, "half")
