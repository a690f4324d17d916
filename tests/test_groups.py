import itertools
import json
import random
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from theta_dims import cayley, classdata, cli, groups, lens, limits, perm, verify
from theta_dims.errors import FixtureMismatch, NotAGroup, ParseError, TooLarge

# latin square with identity 0 and two-sided inverses that is not associative:
# (1*1)*2 = 2 but 1*(1*2) = 4
NONASSOC_LOOP = [
    [0, 1, 2, 3, 4],
    [1, 0, 3, 4, 2],
    [2, 4, 0, 1, 3],
    [3, 2, 4, 0, 1],
    [4, 3, 1, 2, 0],
]


def brute_sl2_order(p):
    return sum(
        1
        for a, b, c, d in itertools.product(range(p), repeat=4)
        if (a * d - b * c) % p == 1
    )


def brute_class_sizes(G):
    n = G.order
    left = set(range(n))
    sizes = []
    while left:
        g = min(left)
        cls = {G.mul(G.mul(h, g), G.inv(h)) for h in range(n)}
        sizes.append(len(cls))
        left -= cls
    return sorted(sizes)


def power(G, g, k):
    """g**k in G by repeated squaring, one element at a time; k >= 0."""
    if k < 0:
        raise ValueError(f"exponent must be nonnegative, got {k}")
    acc, base = G.identity, int(g)
    while k:
        if k & 1:
            acc = G.mul(acc, base)
        base = G.mul(base, base)
        k >>= 1
    return acc


def s3_cayley_table():
    perms = sorted(itertools.permutations(range(3)))
    index = {p: i for i, p in enumerate(perms)}
    return [
        [index[tuple(a[b[i]] for i in range(3))] for b in perms]
        for a in perms
    ]


def test_make_cyclic_basics():
    G1 = groups.make_cyclic(1)
    assert G1.order == 1 and G1.identity == 0
    G6 = groups.make_cyclic(6)
    assert G6.inv(2) == 4
    assert groups.conjugacy_classes(groups.make_cyclic(15)).num_classes == 15
    with pytest.raises(ValueError):
        groups.make_cyclic(0)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_make_sl2_order_matches_brute_enumeration(p):
    assert groups.make_sl2(p).order == brute_sl2_order(p)


def test_make_sl2_traps_a_wrong_element_count(monkeypatch):
    # a bug trap, not bad input, so it raises under python -O too and exits 1
    every_matrix = classdata.sl2_matrices
    monkeypatch.setattr(classdata, "sl2_matrices", lambda p: every_matrix(p)[:-1])
    with pytest.raises(FixtureMismatch, match=r"enumerated 23 matrices of SL2\(F_3\), not 24"):
        groups.make_sl2(3)


def test_make_sl2_rejects_bad_p():
    for p in (4, 17, 1):
        with pytest.raises(ValueError):
            groups.make_sl2(p)


@pytest.mark.parametrize("p", [7, 11, 13])
def test_make_sl2_larger_primes(p):
    G = groups.make_sl2(p)
    assert G.order == p * (p * p - 1)
    # for odd p the class count is p + 4
    assert groups.conjugacy_classes(G).num_classes == p + 4
    if p == 7:
        groups.validate_group(G)
    mats = classdata.sl2_matrices(p)
    rng = random.Random(p)
    for _ in range(200):
        x, y = rng.randrange(G.order), rng.randrange(G.order)
        (a, b, c, d), (e, f, g, h) = mats[x], mats[y]
        product = ((a * e + b * g) % p, (a * f + b * h) % p, (c * e + d * g) % p, (c * f + d * h) % p)
        assert mats[G.mul(x, y)] == product
        assert mats[G.inv(x)] == (d, -b % p, -c % p, a)
    assert mats[G.identity] == (1, 0, 0, 1)


@pytest.mark.parametrize("p", classdata._SMALL_PRIMES)
def test_sl2_matrices_match_brute_filter(p):
    # one determinant mask over all p^4 matrices, in numpy
    a, b, c, d = np.indices((p,) * 4)
    mask = np.argwhere((a * d - b * c) % p == 1)
    assert classdata.sl2_matrices(p) == list(map(tuple, mask.tolist()))


def test_quaternion8_is_a_subgroup_of_sl2f3():
    Q8, SL = groups.make_quaternion8(), groups.make_sl2(3)
    groups.validate_group(Q8)
    assert Q8.order == 8 and Q8.labels[Q8.identity] == "[1,0;0,1]"
    index = {label: i for i, label in enumerate(SL.labels)}
    for x, y in itertools.product(range(8), repeat=2):
        assert SL.label(SL.mul(index[Q8.label(x)], index[Q8.label(y)])) == Q8.label(Q8.mul(x, y))
        assert SL.label(SL.inv(index[Q8.label(x)])) == Q8.label(Q8.inv(x))


def test_constructed_groups_satisfy_axioms():
    for name, G in groups.battery_groups():
        groups.validate_group(G)
    groups.validate_group(groups.make_sl2(5))


def test_make_from_cayley_trivial_and_s3():
    assert groups.make_from_cayley([[0]]).order == 1
    S3 = groups.make_from_cayley(s3_cayley_table())
    assert S3.order == 6
    cd = groups.conjugacy_classes(S3)
    assert cd.num_classes == 3
    assert sorted(cd.sizes) == brute_class_sizes(S3) == [1, 2, 3]


def test_make_from_cayley_rejections():
    with pytest.raises(NotAGroup, match="associativity.*witness"):
        groups.make_from_cayley(NONASSOC_LOOP)
    with pytest.raises(NotAGroup, match="identity"):
        groups.make_from_cayley([[0, 0], [0, 0]])
    with pytest.raises(NotAGroup, match="square"):
        groups.make_from_cayley([[0, 1]])
    with pytest.raises(NotAGroup):
        groups.make_from_cayley([[0, 7], [1, 0]])
    # numpy reads a list that mixes ints and bools as an integer array
    with pytest.raises(NotAGroup, match="must be integers"):
        groups.make_from_cayley([[0, 1], [1, False]])


def test_identity_search_tests_every_candidate(monkeypatch):
    # 0 in every row of column 0 makes every element a candidate: rows that
    # are only left identities are refused with the message of a table with
    # none, and a two-sided identity past the first chunk of candidates is found
    n = 512
    rows = [list(range(n)) for _ in range(n)]
    with pytest.raises(NotAGroup, match="^no two-sided identity element$"):
        groups.make_from_cayley(rows)
    for i in range(n):
        rows[i][400] = i
    monkeypatch.setattr(groups, "validate_group", lambda G: None)
    assert groups.make_from_cayley(rows).identity == 400


def test_associativity_checks_every_generator():
    # Z2 x NONASSOC_LOOP with (h, l) at index 2*l + h: the first greedy
    # generator (1, 0) is associative, the second one (0, 1) is not
    rows = [
        [2 * NONASSOC_LOOP[l1][l2] + (h1 + h2) % 2 for l2 in range(5) for h2 in range(2)]
        for l1 in range(5)
        for h1 in range(2)
    ]
    with pytest.raises(NotAGroup, match=r"witness triple \(\d+, 2, \d+\)") as exc:
        groups.make_from_cayley(rows)
    x, a, y = map(int, re.search(r"\((\d+), (\d+), (\d+)\)", str(exc.value)).groups())
    assert rows[rows[x][a]][y] != rows[x][rows[a][y]]


@pytest.mark.parametrize("chunk_rows", [1, 2, 4, 15])
def test_associativity_witness_is_the_first_failure_across_chunks(monkeypatch, chunk_rows):
    # Z3 x NONASSOC_LOOP with (h, l) at index 3*l + h: the greedy generators
    # are 1, which spans Z3 = {0, 1, 2} and is associative, then 3, whose
    # first failure lies in row 3: in the fourth chunk of 1 row, at offset 1
    # in the second chunk of 2 rows, and inside the first chunk of 4 rows or
    # of the whole table
    n = 15
    rows = [
        [3 * NONASSOC_LOOP[l1][l2] + (h1 + h2) % 3 for l2 in range(5) for h2 in range(3)]
        for l1 in range(5)
        for h1 in range(3)
    ]
    failures = [
        (x, a, y)
        for a in (1, 3)
        for x in range(n)
        for y in range(n)
        if rows[rows[x][a]][y] != rows[x][rows[a][y]]
    ]
    x, a, y = failures[0]
    assert (x, a) == (3, 3)
    monkeypatch.setattr(groups, "_CHUNK_ENTRIES", chunk_rows * n)
    with pytest.raises(NotAGroup) as exc:
        groups.make_from_cayley(rows)
    assert str(exc.value) == f"associativity fails at witness triple ({x}, {a}, {y})"


def test_direct_product_small():
    V4 = groups.make_semidirect_product(groups.make_cyclic(2), groups.make_cyclic(2))
    assert V4.order == 4
    assert all(V4.mul(x, x) == V4.identity for x in range(4))
    G36 = groups.make_semidirect_product(groups.make_cyclic(6), groups.make_cyclic(6))
    assert G36.order == 36
    groups.validate_group(G36)
    with pytest.raises(TooLarge):
        big = groups.make_cyclic(2048)
        groups.make_semidirect_product(big, big)


# (m, r, k): Z_m x| Z_k with h acting by x -> r^h x; S3, D4, the Frobenius
# group of order 21 and the Frobenius group of order 20
SEMIDIRECT = {"S3": (3, -1, 2), "D4": (4, -1, 2), "F21": (7, 2, 3), "F20": (5, 2, 4)}


@pytest.mark.parametrize("name", sorted(SEMIDIRECT))
def test_semidirect_product_against_its_definition(name):
    m, r, k = SEMIDIRECT[name]
    G = groups.make_semidirect_product(
        groups.make_cyclic(m), groups.make_cyclic(k), groups._unit_action(m, r, k)
    )
    groups.validate_group(G)
    assert G.order == m * k and G.identity == 0
    # (a, b)(c, d) = (a + r^b c, b + d) on (a, b) at a*k + b
    for (a, b), (c, d) in itertools.product(itertools.product(range(m), range(k)), repeat=2):
        assert G.mul(a * k + b, c * k + d) == (a + pow(r, b, m) * c) % m * k + (b + d) % k
    nonabelian = not np.array_equal(G.mul_table, G.mul_table.T)
    assert nonabelian == (r % m != 1)


def test_semidirect_product_refuses_a_bad_action():
    Z3, Z4, Z5 = (groups.make_cyclic(n) for n in (3, 4, 5))
    cases = [
        (Z5, Z3, groups._unit_action(5, 2, 4), r"a \(3, 5\) array of indices"),
        (Z5, Z4, np.zeros((4, 5), dtype=bool), "array of indices"),
        (Z5, Z4, np.full((4, 5), 5), r"indices in 0\.\.4"),
        (Z5, Z4, [[0, 1, 2, 3, 4]] + [[0, 1, 2, 4, 3]] * 3, "not a homomorphism of N"),
        # x -> 2^h x with 2^3 != 1 mod 5: each row is an automorphism of Z5
        (Z5, Z3, groups._unit_action(5, 2, 3), "not a homomorphism from H"),
        # x -> 0 passes both homomorphism laws but is no automorphism
        (Z5, Z4, np.zeros((4, 5), dtype=int), "identity of H"),
    ]
    for N, H, action, message in cases:
        with pytest.raises(ValueError, match=message):
            groups.make_semidirect_product(N, H, action)


def test_direct_product_sl2f5_sl2f3():
    G, H = groups.make_sl2(5), groups.make_sl2(3)
    GH = groups.make_semidirect_product(G, H)
    n = GH.order
    assert n == 2880 and GH.mul_table.dtype == np.uint16
    idx = np.arange(n)
    assert (GH.mul_table[GH.identity] == idx).all()
    assert (GH.mul_table[idx, GH.inv_table] == GH.identity).all()
    # every product against the factorwise definition, on (g, h) at g*24 + h
    g, h = np.divmod(idx, 24)
    factorwise = G.mul_table[np.ix_(g, g)].astype(np.uint16) * 24 + H.mul_table[np.ix_(h, h)]
    assert np.array_equal(GH.mul_table, factorwise)


def test_pow():
    G6 = groups.make_cyclic(6)
    assert power(G6, 5, 3) == 3
    assert power(G6, G6.identity, 12345) == G6.identity
    G = groups.make_sl2(5)
    mats = classdata.sl2_matrices(5)
    alpha = mats.index((2, 0, 0, 3))
    minus_i = mats.index((4, 0, 0, 4))
    cd = groups.conjugacy_classes(G)
    assert cd.class_of[power(G, alpha, 2)] == cd.class_of[minus_i]


def test_conjugacy_classes_sl2f5():
    cd = groups.conjugacy_classes(groups.make_sl2(5))
    assert cd.num_classes == 9
    assert sorted(cd.sizes) == [1, 1, 12, 12, 12, 12, 20, 20, 30]
    assert sum(cd.sizes) == 120
    assert all(120 % s == 0 for s in cd.sizes)


# every battery group and sl2:5
CLASS_GROUPS = groups.battery_groups() + [("sl2:5", groups.make_sl2(5))]


def brute_classes(G):
    """class_of, reps and sizes by definition: each element is named by the
    least member of {h g h^-1}, and classes are ranked by that member."""
    n = G.order
    least = [min(G.mul(G.mul(h, g), G.inv(h)) for h in range(n)) for g in range(n)]
    reps = sorted(set(least))
    return [reps.index(x) for x in least], reps, [least.count(r) for r in reps]


@settings(derandomize=True, database=None, max_examples=10, deadline=None)
@given(perms=st.tuples(*(st.permutations(range(G.order)) for _, G in CLASS_GROUPS)))
@example(perms=tuple(tuple(range(G.order)) for _, G in CLASS_GROUPS))
def test_conjugacy_invariant_under_relabeling(perms):
    for (name, G), perm in zip(CLASS_GROUPS, perms):
        p = np.array(perm, dtype=np.int64)  # new index = p[old]
        mul = np.empty((G.order, G.order), dtype=np.int64)
        mul[np.ix_(p, p)] = p[G.mul_table]
        relabeled = groups.make_from_cayley(mul)
        cd = groups.conjugacy_classes(relabeled)
        class_of, reps, sizes = brute_classes(relabeled)
        assert cd.class_of.dtype == np.int32 and not cd.class_of.flags.writeable, name
        assert cd.class_of.tolist() == class_of, name
        assert cd.reps == tuple(reps) and cd.sizes == tuple(sizes), name
        assert all(type(x) is int for x in cd.reps + cd.sizes), name
        # the same partition of the old indices, up to the numbering of the classes
        old_classes = groups.conjugacy_classes(G).class_of
        pairs = set(zip(old_classes.tolist(), cd.class_of[p].tolist()))
        assert len(pairs) == len(set(old_classes.tolist())) == cd.num_classes, name
        # each greedy generator at least doubles the subgroup reached so far
        assert 2 ** len(groups.generating_set(relabeled)) <= G.order, name


def test_class_power_map_well_defined():
    for name, G in groups.battery_groups():
        cd = groups.conjugacy_classes(G)
        for k in (2, 3, 5):
            mapping = groups.class_power_map(G, cd, k)
            for g in range(G.order):
                assert cd.class_of[power(G, g, k)] == mapping[cd.class_of[g]]
        # the record's square and cube maps are the general-k map at k = 2, 3
        assert cd.power2 == groups.class_power_map(G, cd, 2), name
        assert cd.power3 == groups.class_power_map(G, cd, 3), name
        assert all(type(x) is int for x in cd.power2 + cd.power3 + cd.inverse), name


def test_class_power_map_rejects_small_k():
    G = groups.make_cyclic(4)
    with pytest.raises(ValueError):
        groups.class_power_map(G, groups.conjugacy_classes(G), 1)


def test_class_power_map_z5():
    G = groups.make_cyclic(5)
    cd = groups.conjugacy_classes(G)
    mapping = groups.class_power_map(G, cd, 2)
    assert mapping[cd.class_of[1]] == cd.class_of[2]


def test_inversion_on_classes():
    cd = groups.conjugacy_classes(groups.make_sl2(5))
    assert cd.inverse == tuple(range(9)) and cd.inversion_orbits == 9

    cd = groups.conjugacy_classes(groups.make_cyclic(5))
    assert cd.inverse == (0, 4, 3, 2, 1) and cd.inversion_orbits == 3

    cd = groups.conjugacy_classes(groups.make_cyclic(4))
    assert cd.inverse == (0, 3, 2, 1) and cd.inversion_orbits == 3


def test_inversion_orbit_count_cyclic():
    for n in range(1, 25):
        assert groups.conjugacy_classes(groups.make_cyclic(n)).inversion_orbits == n // 2 + 1


def test_table_records_compare_by_identity():
    # equal arrays in two records, and a plain tuple of the same fields, are
    # still other objects: a tuple's elementwise == would compare the arrays
    for make in (lambda: groups.make_cyclic(6),
                 lambda: groups.conjugacy_classes(groups.make_cyclic(6))):
        a, b = make(), make()
        assert a == a and not a != a
        assert not a == b and a != b
        assert not a == tuple(a) and a != tuple(a)
        assert not tuple(a) == a and tuple(a) != a
        assert hash(a) == object.__hash__(a) and {a: 1, b: 2}[a] == 1


@pytest.mark.parametrize("record", [
    groups.make_cyclic(3),
    classdata.cyclic_class_data(3),
    lens.lens_dims(6),
    lens.WeightVector(3, perm.ODD, ()),
], ids=lambda record: type(record).__name__)
def test_records_refuse_attribute_assignment(record):
    for name in (type(record)._fields[0], "other"):
        with pytest.raises(AttributeError):
            setattr(record, name, 0)


# every order below 131, the order of sl2:7 and a large power of two
CYCLIC_ORDERS = [*range(1, 131), 336, 4096]


def assert_same_class_data(arithmetic, table, order):
    """Every field and property of two ConjugacyData records agree."""
    for name in classdata.ConjugacyData._fields:
        a, t = getattr(arithmetic, name), getattr(table, name)
        if name == "class_of":
            a, t = list(a), t.tolist()
        assert a == t, (order, name)
    assert arithmetic.order == table.order == order
    assert arithmetic.inversion_orbits == table.inversion_orbits


def test_cyclic_class_data_equals_table_route():
    for n in CYCLIC_ORDERS:
        table = groups.conjugacy_classes(groups.make_cyclic(n))
        assert_same_class_data(classdata.cyclic_class_data(n), table, n)


@pytest.mark.parametrize("n", [0, -3, 16385])
def test_cyclic_class_data_refuses_what_make_cyclic_refuses(n):
    with pytest.raises((ValueError, TooLarge)) as table_route:
        groups.make_cyclic(n)
    with pytest.raises(type(table_route.value), match=f"^{re.escape(str(table_route.value))}$"):
        classdata.cyclic_class_data(n)


def test_sl2_class_data_equals_table_route():
    for p in classdata._SMALL_PRIMES:
        table = groups.conjugacy_classes(groups.make_sl2(p))
        assert_same_class_data(classdata.sl2_class_data(p), table, p * (p * p - 1))


@pytest.mark.parametrize("p", [0, 1, 4, 17])
def test_sl2_class_data_refuses_what_make_sl2_refuses(p):
    with pytest.raises(ValueError) as table_route:
        groups.make_sl2(p)
    with pytest.raises(type(table_route.value), match=f"^{re.escape(str(table_route.value))}$"):
        classdata.sl2_class_data(p)


def test_inversion_consistent_with_elements():
    for name, G in groups.battery_groups():
        cd = groups.conjugacy_classes(G)
        for g in range(G.order):
            assert cd.class_of[G.inv(g)] == cd.inverse[cd.class_of[g]], name


def test_fixture_clean():
    G = groups.make_sl2(5)
    fx = verify.load_sl2_fixture()
    assert len(fx.matrices) == 120
    report = verify.verify_sl2f5_fixture(G, fx)
    assert report.ok


def test_fixture_single_relabel():
    G = groups.make_sl2(5)
    fx = verify.load_sl2_fixture()
    labels = list(fx.class_labels)
    g1 = fx.names.index("g1")
    labels[g1] = "c4"
    bad = verify.Sl2Fixture(fx.prime, fx.names, fx.matrices, tuple(labels))
    report = verify.verify_sl2f5_fixture(G, bad)
    assert len(report.mismatches) == 1
    assert "g1" in report.mismatches[0]


def test_fixture_missing_element():
    G = groups.make_sl2(5)
    fx = verify.load_sl2_fixture()
    bad = verify.Sl2Fixture(fx.prime, fx.names[:-1], fx.matrices[:-1], fx.class_labels[:-1])
    with pytest.raises(FixtureMismatch, match="119"):
        verify.verify_sl2f5_fixture(G, bad)


def test_fixture_duplicate_matrix():
    G = groups.make_sl2(5)
    fx = verify.load_sl2_fixture()
    mats = list(fx.matrices)
    mats[1] = mats[0]
    bad = verify.Sl2Fixture(fx.prime, fx.names, tuple(mats), fx.class_labels)
    with pytest.raises(FixtureMismatch, match="bijection"):
        verify.verify_sl2f5_fixture(G, bad)


def test_fixture_bad_determinant(tmp_path):
    raw = json.loads(verify.default_fixture_path().read_text())
    raw["elements"][0]["matrix"] = [[1, 1], [1, 1]]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(raw))
    fx = verify.load_sl2_fixture(path)
    with pytest.raises(FixtureMismatch, match="determinant"):
        verify.verify_sl2f5_fixture(groups.make_sl2(5), fx)


# greedy generating sets; orbit uses them as its default generators
GENERATING_SETS = {
    **{f"Z{n}": [1] for n in range(2, 13)},
    "Z1": [],
    "Z2xZ2": [1, 2],
    "S3": [1, 2],
    "Q8": [0, 3],
    "D4": [1, 2],
    "SL2F3": [0, 1],
}


def test_generating_set():
    for name, G in groups.battery_groups():
        assert groups.generating_set(G) == GENERATING_SETS[name], name
    assert groups.generating_set(groups.make_sl2(5)) == [0, 1]
    assert groups.generating_set(groups.make_sl2(7)) == [0, 1]
    assert groups.generating_set(groups.make_cyclic(1)) == []


# groups above order 64, the old limit of exhaustive associativity checking
PROPERTY_TABLES = {
    "sl2:5": groups.make_sl2(5).mul_table,
    "Z6xZ12": groups.make_semidirect_product(groups.make_cyclic(6), groups.make_cyclic(12)).mul_table,
}


def draw_relabeled_table(data, name):
    """The named table under a drawn relabeling new = perm[old]."""
    mul = PROPERTY_TABLES[name].astype(np.int64)
    perm = np.array(data.draw(st.permutations(range(len(mul)))))
    out = np.empty_like(mul)
    out[np.ix_(perm, perm)] = perm[mul]
    return out


@settings(derandomize=True, database=None, max_examples=20, deadline=None)
@given(name=st.sampled_from(sorted(PROPERTY_TABLES)), data=st.data())
def test_make_from_cayley_accepts_relabeled_groups(name, data):
    mul = draw_relabeled_table(data, name)
    G = groups.make_from_cayley(mul.tolist())
    assert np.array_equal(G.mul_table, mul)


@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(name=st.sampled_from(sorted(PROPERTY_TABLES)), data=st.data())
def test_make_from_cayley_rejects_row_swaps(name, data):
    mul = draw_relabeled_table(data, name)
    n = len(mul)
    row = data.draw(st.integers(0, n - 1))
    i, j = data.draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
    # a row of a group table has distinct entries, so the swap breaks the Latin square
    mul[row, [i, j]] = mul[row, [j, i]]
    with pytest.raises(NotAGroup) as exc:
        groups.make_from_cayley(mul.tolist())
    witness = re.search(r"witness triple \((\d+), (\d+), (\d+)\)", str(exc.value))
    if witness:
        x, a, y = map(int, witness.groups())
        assert mul[mul[x, a], y] != mul[x, mul[a, y]]


# -- Cayley table files ----------------------------------------------------------

CAYLEY_GROUPS = dict(groups.battery_groups())
CAYLEY_MUTATIONS = "[],-+.0123456789 e"
CAYLEY_SEPARATORS = [(",", ":"), (", ", ": "), (" ,", " : "), (",\n", ":\t"), ("\r\n,", ":")]


def read_cayley_with_stdlib(text):
    """The reference reading: json.loads, every entry a JSON integer, then
    make_from_cayley."""
    raw = json.loads(text)
    order, mul = limits._json_int(raw["order"], "order"), raw["mul"]
    if not (isinstance(mul, list) and len(mul) == order and all(type(r) is list for r in mul)):
        raise ParseError("mul is not a list of order rows")
    if not all(type(x) is int for r in mul for x in r):
        raise ParseError("mul holds an entry that is not an integer")
    return groups.make_from_cayley(mul)


@st.composite
def cayley_texts(draw):
    """A battery group's table, maybe relabeled, written by json.dumps with
    drawn layout, key order and extra scalar key, then maybe one byte
    replaced by, or preceded by, a byte of CAYLEY_MUTATIONS, or deleted."""
    mul = CAYLEY_GROUPS[draw(st.sampled_from(sorted(CAYLEY_GROUPS)))].mul_table.astype(np.int64)
    if draw(st.booleans()):
        perm = np.array(draw(st.permutations(range(len(mul)))))  # new index = perm[old]
        mul[np.ix_(perm, perm)] = perm[mul.copy()]
    extra = st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(max_size=4)
    items = [("order", len(mul)), ("mul", mul.tolist()), ("note", draw(extra))]
    text = json.dumps(
        dict(draw(st.permutations(items))),
        indent=draw(st.sampled_from([None, 0, 2, "\t"])),
        separators=draw(st.sampled_from(CAYLEY_SEPARATORS)),
    )
    at = draw(st.integers(0, len(text) - 1))
    byte = draw(st.sampled_from(CAYLEY_MUTATIONS))
    return draw(st.sampled_from([
        text,
        text[:at] + byte + text[at + 1:],
        text[:at] + byte + text[at:],
        text[:at] + text[at + 1:],
    ]))


@settings(
    derandomize=True, database=None, max_examples=100, deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(text=cayley_texts())
@example(text='{"order": 1.9, "mul": [[0]]}')
@example(text='{"order": true, "mul": [[0]]}')
@example(text="[" * 100000)
@example(text='{"order":2,"mul":[[0,1],[1,false]]}')
@example(text='{"order":1,"mul":[[0.0]]}')
@example(text='{"order":1,"mul":[[+0]]}')
@example(text='{"order":2,"mul":[[0,1],[1,00]]}')
@example(text='{"order":2,"mul":[[0,1],[1]]}')
@example(text='{"order":2,"mul":[[0,1],[1 0]]}')
@example(text='{"order":1,"mul":[[-0]]}')
@example(text='{"order":1,"mul":[[ ]]}')
@example(text='{"order":2,"mul":[[0,1],[1,- 0]]}')
@example(text='{"order":2,"mul":[[0,[1]],[1,0]]}')
@example(text='{"order":2,"mul":[[0,1],[1,]]}')
@example(text='{"order":2,"mul":[[,1],[1,0]]}')
@example(text='{"order":2,"mul":[[,01],[1,0]]}')
@example(text='{"order":2,"mul":[[0,1],[1,256]]}')
@example(text='{"order":2,"mul":[[0,1][1,0]]}')
@example(text='{"order":2,"mul":[[0,1],[1,0,1]]}')
@example(text='{"order":3,"mul":[[0,1,2,1],[2,0],[2,0,1]]}')
@example(text='{"order":2,"mul":[[0,1],[1,99999999999999999999]]}')
@example(text='{"order":2,"mul":[[0,1],[1,0],5]]}')
@example(text='{"order":2,"mul":[[0,1],1,[0]]}')
@example(text='{"order":2,"mul":[[0,[1],1,0]]}')
@example(text='{"order":2,"mul":[[0,1],[1,-0]]}')
@example(text='{"order":2,"mul":[[0,1],-[1,0]]}')
def test_load_cayley_agrees_with_stdlib_reading(tmp_path, monkeypatch, text):
    path = tmp_path / "table.json"
    path.write_text(text)
    try:
        expected = read_cayley_with_stdlib(text)
    except (ValueError, TypeError, LookupError, OverflowError, RecursionError, ParseError, NotAGroup):
        expected = None
    for chars in (cayley._PIECE_CHARS, 1):  # the rows in one piece, then a piece per row
        monkeypatch.setattr(cayley, "_PIECE_CHARS", chars)
        try:
            got = cayley.load_cayley(path)
        except (ParseError, NotAGroup, TooLarge):
            got = None
        assert (got is None) == (expected is None)
        if got is not None:
            assert got.mul_table.dtype == expected.mul_table.dtype
            assert np.array_equal(got.mul_table, expected.mul_table)


@pytest.mark.parametrize("separators", CAYLEY_SEPARATORS)
def test_load_cayley_reads_the_same_rows_for_every_piece_size(tmp_path, monkeypatch, separators):
    mul = groups.make_cyclic(12).mul_table
    path = tmp_path / "z12.json"
    path.write_text(json.dumps({"order": 12, "mul": mul.tolist()}, separators=separators))
    for chars in range(1, path.stat().st_size + 1):
        monkeypatch.setattr(cayley, "_PIECE_CHARS", chars)
        assert np.array_equal(cayley.load_cayley(path).mul_table, mul)


Z5_ROWS = "[[0,1,2,3,4],[1,2,3,4,0],[2,3,4,0,1],[3,4,0,1,2],[4,0,1,2,3]]"
# the rows of Z5 with faults, and the refusal, which names the first of them
# in the text (None: the rows are read)
CAYLEY_FIRST_FAULTS = {
    "short-rows-2-and-4": (
        "[[0,1,2,3,4],[1,2,3,4],[2,3,4,0,1],[3,4,0,1],[4,0,1,2,3]]",
        "row 2 does not hold 5 entries",
    ),
    "entry-in-row-2-then-separator-after-row-3": (
        "[[0,1,2,3,4],[1,2,3,4,7],[2,3,4,0,1],x[3,4,0,1,2],[4,0,1,2,3]]",
        "found 7",
    ),
    "separator-after-row-2": (
        "[[0,1,2,3,4],[1,2,3,4,0][2,3,4,0,1],[3,4,0,1,2],[4,0,1,2,3]]",
        "unexpected text after row 2",
    ),
    # an entry longer than the width of 4 that is in range all the same
    "leading-zero-03": (
        "[[0,1,2,3,4],[1,2,03,4,0],[2,3,4,0,1],[3,4,0,1,2],[4,0,1,2,3]]",
        "an entry has a leading zero",
    ),
    "leading-zero-00": (
        "[[0,1,2,3,4],[1,2,3,4,0],[2,3,4,00,1],[3,4,0,1,2],[4,0,1,2,3]]",
        "an entry has a leading zero",
    ),
    "entry-123456": (
        "[[0,1,2,3,4],[1,2,3,4,123456],[2,3,4,0,1],[3,4,0,1,2],[4,0,1,2,3]]",
        "found 123456",
    ),
    "entry-minus-3": (
        "[[0,1,2,3,4],[1,2,-3,4,0],[2,3,4,0,1],[3,4,0,1,2],[4,0,1,2,3]]",
        "found -3",
    ),
    "loose-entry-between-rows-2-and-3": (
        "[[0,1,2,3,4],[1,2,3,4,0],5,[2,3,4,0,1],[3,4,0,1,2],[4,0,1,2,3]]",
        "unexpected text after row 2",
    ),
    "minus-0": ("[[0,1,2,3,4],[1,2,3,4,-0],[2,3,4,0,1],[3,4,0,1,2],[4,0,1,2,3]]", None),
}


@pytest.mark.parametrize("rows_per_piece", [1, 2])
@pytest.mark.parametrize("case", sorted(CAYLEY_FIRST_FAULTS))
def test_load_cayley_refuses_the_first_fault_in_the_text(tmp_path, monkeypatch, case, rows_per_piece):
    # a piece per row, so that each fault is in its own piece; or two rows a
    # piece (a piece ends at the first ']' from 10 characters on, one past a
    # whole row of Z5), so that the faults of rows 1 and 2 share a piece and
    # those of rows 2 and 4 do not
    monkeypatch.setattr(cayley, "_PIECE_CHARS", 1 if rows_per_piece == 1 else len("0,1,2,3,4") + 1)
    rows, detail = CAYLEY_FIRST_FAULTS[case]
    path = tmp_path / "z5.json"
    path.write_text(f'{{"order":5,"mul":{rows}}}')
    if detail is None:
        assert np.array_equal(cayley.load_cayley(path).mul_table, groups.make_cyclic(5).mul_table)
        return
    with pytest.raises(ParseError) as exc:
        cayley.load_cayley(path)
    rule = "rows must be 5 lists of 5 integers in 0..4"
    assert str(exc.value) == f"cannot read Cayley table {str(path)!r}: {rule}: {detail}"


def test_load_cayley_stops_at_the_first_failing_piece(tmp_path, monkeypatch):
    monkeypatch.setattr(cayley, "_PIECE_CHARS", 1)  # a piece per row
    read_whole_rows = cayley._read_whole_rows
    calls = []

    def counted_read_whole_rows(*args):
        calls.append(args[3])
        return read_whole_rows(*args)

    monkeypatch.setattr(cayley, "_read_whole_rows", counted_read_whole_rows)
    path = tmp_path / "z5.json"
    path.write_text(f'{{"order":5,"mul":{Z5_ROWS.replace("[1,2,3,4,0]", "[1,2,3,4,7]")}}}')
    with pytest.raises(ParseError, match="found 7$"):
        cayley.load_cayley(path)
    assert calls == [0, 1]  # rows 1 and 2; rows 3 to 5 are never read


def test_load_cayley_guard_precedes_parsing(tmp_path, monkeypatch):
    path = tmp_path / "z4.json"
    path.write_text(json.dumps({"order": 4, "mul": groups.make_cyclic(4).mul_table.tolist()}))
    monkeypatch.setattr(limits, "TABLE_ENTRY_LIMIT", 15)

    def no_parsing(*args, **kwargs):
        raise AssertionError("a row was parsed")

    monkeypatch.setattr(cayley, "_digit_runs", no_parsing)
    with pytest.raises(TooLarge, match="order 4 has 16 entries, over 15") as exc:
        cayley.load_cayley(path)
    assert repr(str(path)) in str(exc.value)


@pytest.mark.parametrize("n", [10, 100, 1000, 10000, 16384])
def test_digit_runs_read_each_width_exactly(n):
    # one row of order n, read directly: a table of 5-digit entries is too
    # large for these tests
    width = len(str(n - 1))
    row = list(range(n - 1, -1, -1))
    raw = ",".join(map(str, row)).encode()
    runs = cayley._digit_runs(b"[" + raw + b"]", width)
    assert runs.values.tolist() == row  # n - 1 = 16383 too, which uint16 would hold but not 99999
    assert len(runs.big) == 0 and not runs.leading_zero
    out = np.empty((1, n), dtype=groups._index_dtype(n))
    cayley._read_whole_rows(raw, n, out, 0)
    assert out[0].tolist() == row

    def refusal(last):
        with pytest.raises(ParseError) as exc:
            cayley._read_whole_rows(raw[:raw.rindex(b",") + 1] + last.encode(), n, out, 0)
        return str(exc.value).split(": ", 1)[1]

    # 65536 and 99999 wrap to 0 and 34463 in uint16; 10**width is one digit
    # over the width, and the rest are over every fixed width
    for entry in [n, 10**width, 65536, 99999, 10**19, 10**20 + 7, -(10**20), -3]:
        assert refusal(str(entry)) == f"found {entry}"
    assert refusal("-" + "0" * 30 + "12") == "found -12"
    assert refusal("9" * 100) == f"found {'9' * 20}... (100 digits)"
    for entry in ["0" + str(n - 1), "00", "-00", "0" * 40]:
        assert refusal(entry) == "an entry has a leading zero"
    cayley._read_whole_rows(raw[:raw.rindex(b",") + 1] + b"-0", n, out, 0)
    assert out[0].tolist() == row


def test_load_cayley_file_size_guard_precedes_reading(tmp_path, monkeypatch):
    # under a limit of 15 entries the largest table is 3 x 3: 9 entries of one
    # digit, 3 bytes each, 4 bytes a row and 64 KiB for the rest of the object
    path = tmp_path / "z4.json"
    text = json.dumps({"order": 4, "mul": groups.make_cyclic(4).mul_table.tolist()})
    path.write_text(" " * (9 * 3 + 4 * 3 + (1 << 16) + 1 - len(text)) + text)
    monkeypatch.setattr(limits, "TABLE_ENTRY_LIMIT", 15)

    def no_reading(*args, **kwargs):
        raise AssertionError("the file was read")

    # limits._read_text wraps the descriptor for reading once its size passes
    monkeypatch.setattr(limits, "open", no_reading, raising=False)
    message = "has 65576 bytes, over the 65575 that a table can need"
    with pytest.raises(TooLarge, match=message) as exc:
        cayley.load_cayley(path)
    assert repr(str(path)) in str(exc.value)


@pytest.mark.skipif(not Path("/proc/self/stat").is_file(), reason="needs /proc")
def test_read_text_refuses_a_file_longer_than_its_size():
    # a /proc file is regular but reports a size of 0 bytes
    message = "^cannot read element fixture '/proc/self/stat': it holds more than its size of 0"
    with pytest.raises(ParseError, match=message):
        verify.load_sl2_fixture("/proc/self/stat")


def test_load_cayley_builds_no_object_per_entry(tmp_path):
    n = 1024
    path = tmp_path / "z1024.json"
    path.write_text(json.dumps(
        {"order": n, "mul": groups.make_cyclic(n).mul_table.tolist()}, separators=(",", ":")
    ))
    tracemalloc.start()
    try:
        G = cli.parse_group_spec(f"cayley:{path}")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(G.mul_table, groups.make_cyclic(n).mul_table)
    # nested lists hold an 8-byte pointer per entry before any int object, and
    # reading through json.loads and np.asarray peaks near 40 bytes per entry
    assert peak / (n * n) < 32
