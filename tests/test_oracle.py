import itertools
import random
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_perm import REFERENCE_GROUPS, compose, draw_relabeling, unit_actions

from theta_dims import groups, lens, limits, oracle, perm
from theta_dims.errors import ExactnessViolation, ProjectorNotIdempotent, TooLarge
from theta_dims.perm import AUG_KERNEL, EVEN, FULL, GROUP_ALGEBRA, ODD, PI_PI


def test_monomial_kernel_against_loops():
    for n in range(8):
        for parity, combos in (
            (EVEN, itertools.combinations),
            (ODD, itertools.combinations_with_replacement),
        ):
            basis = oracle._monomials(n, parity)
            assert basis.dtype == np.int64 and basis.shape[1:] == (3,)
            assert sorted(map(tuple, basis.tolist())) == list(combos(range(n), 3))
            assert np.array_equal(oracle._rank(basis, parity), np.arange(len(basis)))
    triples = np.array(list(itertools.product(range(4), repeat=3)))
    for parity in (EVEN, ODD):
        keys, signs = oracle._sort_sign(triples, parity)
        for t, key, sign in zip(triples.tolist(), keys.tolist(), signs.tolist()):
            inversions = sum(t[i] > t[j] for i, j in ((0, 1), (0, 2), (1, 2)))
            want = 1 if parity == ODD else (-1) ** inversions * (len(set(t)) == 3)
            assert (key, sign) == (sorted(t), want), (t, parity)


def monomial_orbit_count(G, parity, symmetry):
    """Reference for dim_invariants_orbit on the whole monomial basis: the
    components of its sign double cover (node i + s*m is monomial i with sign
    (-1)^s), with a move for L_g and R_g per generator g, and inversion."""
    e = G.identity
    perms = [perm.permutation_of(G, perm.CosetElement(False, s, t))
             for g in groups.generating_set(G) for s, t in ((g, e), (e, g))]
    if symmetry == FULL:
        perms.append(np.asarray(G.inv_table))
    basis = oracle._monomials(G.order, parity)
    m = len(basis)
    assert np.array_equal(oracle._rank(basis, parity), np.arange(m))  # node ids
    moves = []
    for p in perms:
        images, sign = oracle._sort_sign(p[basis], parity)
        target = oracle._rank(images, parity)
        if parity == EVEN:
            flip = (sign < 0) * m
            target = np.concatenate([target + flip, target + (m - flip)])
        moves.append(target)
    label = groups._orbit_labels(moves, 2 * m if parity == EVEN else m)
    roots = label == np.arange(len(label))
    if parity != EVEN:
        return int(np.count_nonzero(roots))
    killed = np.count_nonzero(roots[:m] & (label[:m] == label[m:]))
    return int(np.count_nonzero(roots) - killed) // 2


def test_orbit_cyclic_examples():
    assert oracle.dim_invariants_orbit(groups.make_cyclic(6), ODD, FULL) == 7
    assert oracle.dim_invariants_orbit(groups.make_cyclic(3), EVEN, FULL) == 0
    assert oracle.dim_invariants_orbit(groups.make_cyclic(7), ODD, FULL) == 8


# the first example draws the identity relabeling, so the battery as built
@settings(derandomize=True, database=None, max_examples=3, deadline=None)
@given(data=st.data())
def test_orbit_matches_perm_on_battery(data):
    for name, G in groups.battery_groups():
        relabeled = draw_relabeling(data, G)
        for parity in (EVEN, ODD):
            for symmetry in (FULL, PI_PI):
                got = oracle.dim_invariants_orbit(relabeled, parity, symmetry)
                assert got == perm.dim_invariants_perm(G, GROUP_ALGEBRA, parity, symmetry), (
                    name, parity, symmetry
                )
                assert got == monomial_orbit_count(relabeled, parity, symmetry), (
                    name, parity, symmetry
                )


@settings(derandomize=True, database=None, max_examples=20, deadline=None)
@given(mrk=unit_actions())
def test_orbit_matches_the_monomial_graph_on_drawn_semidirect_products(mrk):
    m, r, k = mrk
    G = groups.make_semidirect_product(
        groups.make_cyclic(m), groups.make_cyclic(k), groups._unit_action(m, r, k)
    )
    for parity in (EVEN, ODD):
        for symmetry in (FULL, PI_PI):
            assert oracle.dim_invariants_orbit(G, parity, symmetry) == (
                monomial_orbit_count(G, parity, symmetry)
            ), (mrk, parity, symmetry)


@pytest.mark.parametrize("name", ["sl2:7", "2O", "Z2xQ8"])
def test_orbit_matches_perm_past_the_battery(name):
    G = groups.make_sl2(7) if name == "sl2:7" else REFERENCE_GROUPS[name]
    for parity in (EVEN, ODD):
        for symmetry in (FULL, PI_PI):
            assert oracle.dim_invariants_orbit(G, parity, symmetry) == (
                perm.dim_invariants_perm(G, GROUP_ALGEBRA, parity, symmetry)
            ), (name, parity, symmetry)


def test_orbit_node_guard_boundary():
    # n^2 nodes for the symmetric cube, 2n^2 for the wedge; sl2:13 (n = 2184)
    # is admitted in both parities
    assert limits.ORBIT_NODE_LIMIT == 10_000_000
    for parity, largest, refused in [(ODD, 3162, 10004569), (EVEN, 2236, 10008338)]:
        oracle.check_order_guard("orbit", largest, GROUP_ALGEBRA, parity)
        with pytest.raises(
            TooLarge, match=f"^{refused} nodes exceed the orbit guard 10000000$"
        ):
            oracle.check_order_guard("orbit", largest + 1, GROUP_ALGEBRA, parity)


def test_reynolds_examples():
    assert oracle.dim_invariants_reynolds(groups.make_cyclic(3), AUG_KERNEL, ODD) == 1
    assert oracle.dim_invariants_reynolds(groups.make_cyclic(6), AUG_KERNEL, ODD) == 3
    assert oracle.dim_invariants_reynolds(groups.make_cyclic(5), AUG_KERNEL, EVEN) == 0


def test_reynolds_size_guard():
    # the cap is on the matrix dimension: order 24 is the largest group algebra
    # admitted, and each cube is refused from its first order past the cap
    with pytest.raises(TooLarge, match="^2925 monomials exceed the reynolds guard 2600$"):
        oracle.dim_invariants_reynolds(groups.make_cyclic(25), GROUP_ALGEBRA, ODD)
    with pytest.raises(TooLarge, match="^2925 monomials exceed the reynolds guard 2600$"):
        oracle.dim_invariants_reynolds(groups.make_cyclic(26), AUG_KERNEL, ODD)
    for module, parity, largest in [
        (GROUP_ALGEBRA, ODD, 24), (AUG_KERNEL, ODD, 25),
        (GROUP_ALGEBRA, EVEN, 26), (AUG_KERNEL, EVEN, 27),
    ]:
        oracle.check_order_guard("reynolds", largest, module, parity)
        with pytest.raises(TooLarge):
            oracle.check_order_guard("reynolds", largest + 1, module, parity)


def test_reynolds_matches_perm_past_the_order_12_cap():
    # cyclic:16 aug-kernel odd is where unreduced elimination rows grew
    G = groups.make_cyclic(16)
    started = time.perf_counter()
    for module in (GROUP_ALGEBRA, AUG_KERNEL):
        assert oracle.dim_invariants_reynolds(G, module, ODD) == (
            perm.dim_invariants_perm(G, module, ODD, FULL)
        ), module
    assert time.perf_counter() - started < 1.5


def test_reynolds_matches_perm_small_battery():
    for name, G in groups.battery_groups():
        if G.order > 8:
            continue
        for module in (GROUP_ALGEBRA, AUG_KERNEL):
            for parity in (EVEN, ODD):
                assert oracle.dim_invariants_reynolds(G, module, parity) == (
                    perm.dim_invariants_perm(G, module, parity, FULL)
                ), (name, module, parity)


def _symmetry_elements(G):
    n = G.order
    for twisted in (False, True):
        for g in range(n):
            for h in range(n):
                yield perm.CosetElement(twisted, g, h)


def build_module_actions(G, module, parity):
    """Explicit integer matrices of every symmetry element on the cubic power,
    one per element of the doubled-and-swapped group in the order of
    _symmetry_elements, with the matrix dimension."""
    basis = oracle._cube_basis(G, module, parity)
    matrices = [
        oracle._action_matrix(G, [sigma], module, parity, basis)
        for sigma in _symmetry_elements(G)
    ]
    return matrices, len(basis)


def test_factored_sum_equals_sum_of_all_actions():
    for name, G in groups.battery_groups():
        if G.order > 8:
            continue
        for module in (GROUP_ALGEBRA, AUG_KERNEL):
            for parity in (EVEN, ODD):
                mats, dim = build_module_actions(G, module, parity)
                factored = oracle._reynolds_sum(G, module, parity)
                assert factored.shape == (dim, dim), (name, module, parity)
                assert np.array_equal(factored, sum(mats)), (name, module, parity)


def test_build_module_actions_shapes():
    mats, dim = build_module_actions(groups.make_cyclic(2), GROUP_ALGEBRA, ODD)
    assert len(mats) == 8 and dim == 4
    assert all(m.shape == (4, 4) and m.dtype == np.int64 for m in mats)
    mats, dim = build_module_actions(groups.make_cyclic(4), AUG_KERNEL, EVEN)
    assert len(mats) == 32 and dim == 1
    with pytest.raises(TooLarge):
        build_module_actions(groups.make_cyclic(25), GROUP_ALGEBRA, ODD)


def test_identity_element_acts_as_identity_matrix():
    G = groups.make_cyclic(3)
    mats, dim = build_module_actions(G, AUG_KERNEL, ODD)
    # untwisted (0, 0) is the identity for a cyclic group
    assert np.array_equal(mats[0], np.eye(dim, dtype=np.int64))


def test_action_matrices_multiply_like_the_group():
    S3 = groups.make_sl2(2)
    for G, module, parity in [
        (groups.make_cyclic(3), GROUP_ALGEBRA, EVEN),
        (S3, GROUP_ALGEBRA, ODD),
        (S3, AUG_KERNEL, EVEN),
    ]:
        mats, dim = build_module_actions(G, module, parity)
        elements = list(_symmetry_elements(G))
        lookup = dict(zip(elements, mats))
        rng = random.Random(6)
        for _ in range(20):
            s, t = rng.choice(elements), rng.choice(elements)
            assert np.array_equal(lookup[s] @ lookup[t], lookup[compose(G, s, t)]), (
                G.order, module, parity, s, t
            )


def brute_rank_over_q(rows):
    m = [[Fraction(v) for v in row] for row in rows]
    rank = 0
    cols = len(m[0]) if m else 0
    for col in range(cols):
        pivot = next((r for r in range(rank, len(m)) if m[r][col] != 0), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        inv = 1 / m[rank][col]
        m[rank] = [v * inv for v in m[rank]]
        for r in range(len(m)):
            if r != rank and m[r][col] != 0:
                f = m[r][col]
                m[r] = [a - f * b for a, b in zip(m[r], m[rank])]
        rank += 1
    return rank


def test_integer_rank_against_gaussian_oracle():
    rng = random.Random(11)
    cases = []
    for _ in range(60):
        rows, cols = rng.randint(1, 7), rng.randint(1, 7)
        m = [[rng.randint(-4, 4) for _ in range(cols)] for _ in range(rows)]
        if rng.random() < 0.5:
            m.append(list(rng.choice(m)))
        cases.append(m)
    # wide rows with larger entries, where the contents and lead gcds exceed 1
    for _ in range(6):
        rows = [[rng.randint(-50, 50) for _ in range(12)] for _ in range(rng.randint(4, 10))]
        rows.append([2 * a - 3 * b for a, b in zip(rows[0], rows[1])])
        rows.append([6 * v for v in rows[2]])
        cases.append(rows)
    cases += [
        [[0, 0, 0], [0, 0, 0]],
        [[1, 2, 3], [1, 2, 3], [2, 4, 6], [0, 1, 1]],
        [[3, -1, 0, 2, 5]],
        [[2], [0], [-6], [4]],
    ]
    for rows in cases:
        sparse = [[(j, v) for j, v in enumerate(row) if v] for row in rows]
        assert lens._rank_of_rows(sparse) == brute_rank_over_q(rows), rows


@settings(derandomize=True, database=None, max_examples=20, deadline=None)
@given(d=st.integers(1, 64), seed=st.integers(0, 2**32 - 1), full=st.booleans())
def test_exact_matmul_just_below_the_float64_bound(d, seed, full):
    # max|a| * max|b| as large as d * max|a| * max|b| < 2^53 allows; `full`
    # puts every entry at its maximum, so the partial sums reach the bound
    top_a = 1 << ((53 - d.bit_length()) // 2)
    top_b = ((1 << 53) - 1) // (d * top_a)
    assert d * top_a * top_b < 1 << 53 <= d * top_a * (top_b + 1)
    rng = np.random.default_rng(seed)
    rows = rng.integers(1, 5)
    if full:
        a = np.full((rows, d), top_a, dtype=np.int64)
        b = np.full((d, 3), -top_b, dtype=np.int64)
    else:
        a = rng.integers(-top_a, top_a, (rows, d), endpoint=True)
        b = rng.integers(-top_b, top_b, (d, 3), endpoint=True)
        a[0, 0], b[-1, -1] = top_a, top_b
    want = [[sum(x * y for x, y in zip(row, col)) for col in zip(*b.tolist())]
            for row in a.tolist()]
    product = oracle._exact_matmul(a, b)
    assert product.dtype == np.int64 and product.tolist() == want


def test_exact_matmul_refuses_at_and_over_the_bound():
    for top_b in (1 << 25, (1 << 25) + 1):  # 8 * 2^25 * top_b is 2^53, then over
        a = np.full((2, 8), 1 << 25, dtype=np.int64)
        b = np.full((8, 2), top_b, dtype=np.int64)
        with pytest.raises(ExactnessViolation):
            oracle._exact_matmul(a, b)


def test_exactness_traps_raise(monkeypatch):
    # a bound that holds on every valid input; it raises rather than asserts,
    # so that it holds under python -O too
    monkeypatch.setattr(oracle, "_reynolds_sum", lambda *args: np.full((2, 2), 1 << 62))
    with pytest.raises(ExactnessViolation):
        oracle.dim_invariants_reynolds(groups.make_cyclic(3), GROUP_ALGEBRA, ODD)


def brute_rank_mod_p(rows, p):
    """Rank over F_p by plain Gauss-Jordan elimination on Python ints."""
    m = [[v % p for v in row] for row in rows]
    rank = 0
    for col in range(len(m[0]) if m else 0):
        pivot = next((r for r in range(rank, len(m)) if m[r][col]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        inv = pow(m[rank][col], -1, p)
        m[rank] = [v * inv % p for v in m[rank]]
        for r in range(len(m)):
            if r != rank and m[r][col]:
                f = m[r][col]
                m[r] = [(a - f * b) % p for a, b in zip(m[r], m[rank])]
        rank += 1
    return rank


def test_rank_mod_p_against_gaussian_oracle():
    p = oracle._SKETCH_PRIME
    rng = random.Random(12)
    for _ in range(40):
        rows, cols, inner = rng.randint(1, 9), rng.randint(1, 9), rng.randint(0, 9)
        # a product through `inner` columns, so that ranks below min(rows, cols)
        # occur; entries up to p - 1 exercise the reduction mod p
        top = rng.choice([2, p - 1])
        left = [[rng.randint(0, top) for _ in range(inner)] for _ in range(rows)]
        right = [[rng.randint(0, top) for _ in range(cols)] for _ in range(inner)]
        m = [[sum(a * b for a, b in zip(row, col)) % p for col in zip(*right)] if inner
             else [0] * cols for row in left]
        m.append([(x - 2 * y) % p for x, y in zip(m[0], m[-1])])
        assert oracle._rank_mod_p(np.array(m, dtype=np.int64)) == brute_rank_mod_p(m, p), m


def test_sketch_rank_branches(monkeypatch):
    # acc = |Gamma| P for the projector P of trace 1: cyclic:3, aug-kernel odd
    G = groups.make_cyclic(3)
    assert oracle.dim_invariants_reynolds(G, AUG_KERNEL, ODD) == 1
    calls = []

    def short(m):
        calls.append(m.shape)
        return 0

    monkeypatch.setattr(oracle, "_rank_mod_p", short)
    with pytest.raises(ExactnessViolation, match="after 2 seeds"):
        oracle.dim_invariants_reynolds(G, AUG_KERNEL, ODD)
    assert calls == [(4, 3), (4, 3)]  # d x (t + 2), once per seed
    monkeypatch.setattr(oracle, "_rank_mod_p", lambda m: 2)
    with pytest.raises(ProjectorNotIdempotent, match="sketch rank 2 exceeds"):
        oracle.dim_invariants_reynolds(G, AUG_KERNEL, ODD)


def test_reynolds_matches_perm_on_sl2f3():
    # aug-kernel odd, d = C(25, 3) = 2300: the longest cube the guard admits
    G = groups.make_sl2(3)
    assert oracle.dim_invariants_reynolds(G, AUG_KERNEL, ODD) == (
        perm.dim_invariants_perm(G, AUG_KERNEL, ODD, FULL)
    )
