import itertools
import math
import random
import re
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_perm import (
    REFERENCE_GROUPS,
    CosetElement,
    compose,
    draw_relabeling,
    permutation_of,
    unit_actions,
)

from theta_dims import chartab, cli, groups, lens, limits, oracle, perm
from theta_dims.errors import ExactnessViolation, ProjectorNotIdempotent, TooLarge
from theta_dims.perm import AUG_KERNEL, EVEN, FULL, GROUP_ALGEBRA, ODD, PI_PI


def _rank(s, parity):
    """Combinadic rank of sorted index triples among the monomials of `parity`:
    the position of each in `oracle._monomials`."""
    # int64 up front: the rank arithmetic overflows narrow index dtypes
    x, y, z = np.moveaxis(s.astype(np.int64), -1, 0)
    if parity != EVEN:
        y, z = y + 1, z + 2
    return z * (z - 1) * (z - 2) // 6 + y * (y - 1) // 2 + x


def test_monomial_kernel_against_loops():
    for n in range(8):
        for parity, combos in (
            (EVEN, itertools.combinations),
            (ODD, itertools.combinations_with_replacement),
        ):
            basis = oracle._monomials(n, parity)
            assert basis.dtype == np.int64 and basis.shape[1:] == (3,)
            assert sorted(map(tuple, basis.tolist())) == list(combos(range(n), 3))
            assert np.array_equal(_rank(basis, parity), np.arange(len(basis)))
    for degree in (2, 3):
        tuples = np.array(list(itertools.product(range(4), repeat=degree)))
        for parity in (EVEN, ODD):
            keys, signs = oracle._sort_sign(tuples, parity)
            for t, key, sign in zip(tuples.tolist(), keys.tolist(), signs.tolist()):
                inversions = sum(t[i] > t[j] for i, j in itertools.combinations(range(degree), 2))
                want = 1 if parity == ODD else (-1) ** inversions * (len(set(t)) == degree)
                assert (key, sign) == (sorted(t), want), (t, parity)


def monomial_orbit_count(G, parity, symmetry):
    """Reference for dim_invariants_orbit on the whole monomial basis: the
    components of its sign double cover (node i + s*m is monomial i with sign
    (-1)^s), with a move for L_g and R_g per generator g, and inversion."""
    e = G.identity
    perms = [permutation_of(G, CosetElement(False, s, t))
             for g in groups.generating_set(G) for s, t in ((g, e), (e, g))]
    if symmetry == FULL:
        perms.append(np.asarray(G.inv_table))
    basis = oracle._monomials(G.order, parity)
    m = len(basis)
    assert np.array_equal(_rank(basis, parity), np.arange(m))  # node ids
    moves = []
    for p in perms:
        images, sign = oracle._sort_sign(p[basis], parity)
        target = _rank(images, parity)
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
        oracle.check_order_guard("orbit", largest, parity)
        with pytest.raises(
            TooLarge, match=f"^{refused} nodes exceed the orbit guard 10000000$"
        ):
            oracle.check_order_guard("orbit", largest + 1, parity)


def test_reynolds_examples():
    assert oracle.dim_invariants_reynolds(groups.make_cyclic(3), AUG_KERNEL, ODD) == 1
    assert oracle.dim_invariants_reynolds(groups.make_cyclic(6), AUG_KERNEL, ODD) == 3
    assert oracle.dim_invariants_reynolds(groups.make_cyclic(5), AUG_KERNEL, EVEN) == 0


def test_reynolds_size_guard(monkeypatch):
    # the cap is on the orbit sums of the cube, at most (n^2 + 5n + 2)/6 of
    # them whatever the module and parity: order 122 is the largest admitted,
    # and order 123 is refused before its basis is listed
    monkeypatch.setattr(oracle, "_orbit_sums", lambda *args: pytest.fail("listed the basis"))
    with pytest.raises(TooLarge, match="^2624 orbit sums exceed the reynolds guard 2600$"):
        oracle.dim_invariants_reynolds(groups.make_cyclic(123), GROUP_ALGEBRA, ODD)
    for parity in (EVEN, ODD):
        oracle.check_order_guard("reynolds", 122, parity)
        with pytest.raises(TooLarge):
            oracle.check_order_guard("reynolds", 123, parity)


def _order_three_count(G):
    x = np.arange(G.order)
    return int(np.count_nonzero(G.mul_table[G.mul_table[x, x], x] == G.identity)) - 1


def test_orbit_sums_are_the_burnside_count():
    # (C(n+2, 3) + N3 n/3)/n in the odd cube and (C(n, 3) + N3 n/3)/n in the
    # even one: only the identity and the order-3 elements fix a monomial,
    # n/3 of them each; the guard's (n^2 + 5n + 2)/6 bounds both
    for name, G in [*groups.battery_groups(), ("2O", REFERENCE_GROUPS["2O"])]:
        n, n3 = G.order, _order_three_count(G)
        for parity, monomials in ((ODD, math.comb(n + 2, 3)), (EVEN, math.comb(n, 3))):
            reps, _, _ = oracle._orbit_sums(G, 3, parity)
            assert len(reps) * n == monomials + n3 * n // 3, (name, parity)
            assert len(reps) <= (n * n + 5 * n + 2) // 6, (name, parity)


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
                yield CosetElement(twisted, g, h)


# -- the full-space lift: the reference for the staged sum ----------------------


def cube_basis(G, module, parity):
    """Monomial basis of the cubic power of the module, in rank order."""
    return oracle._monomials(G.order if module == GROUP_ALGEBRA else G.order - 1, parity)


def action_matrix(G, perms, module, parity, basis):
    """Dense integer matrix of the sum of the basis permutations in perms, a
    (k, n) array with one permutation per row, acting on the cubic monomial
    basis; row and column i belong to the monomial of rank i.

    For the group algebra the module basis is e_x and a monomial has one image
    term. For the augmentation kernel slot x is f_x' = e_x' - e_1 with
    x' = x + (x >= identity); f_x' goes to f_p[x'] - f_p[1] with f_1 = 0, so a
    monomial has 2^3 image terms, less those that choose the identity. The
    image terms of every permutation are added into the matrix by one scatter.
    """
    p = np.asarray(perms, dtype=np.int64)
    m = len(basis)
    if module == GROUP_ALGEBRA:
        terms = p[:, basis][:, None]  # permutations, (k, 1, m, 3)
        values = np.ones(terms.shape[:-1], dtype=np.int64)
    else:
        e = G.identity
        slot = np.arange(G.order - 1)
        moved = p[:, slot + (slot >= e)]
        options = np.stack([moved, np.broadcast_to(p[:, e, None], moved.shape)], axis=1)
        choice = np.array(list(itertools.product((0, 1), repeat=3)))
        chosen = options[:, choice[:, None, :], basis]  # permutations, (k, 8, m, 3)
        coeff = 1 - 2 * (choice.sum(axis=1, keepdims=True) & 1)
        values = np.where((chosen != e).all(axis=-1), coeff, 0)
        terms = chosen - (chosen > e)
    images, sign = oracle._sort_sign(terms, parity)
    values = values * sign
    keep = values != 0
    columns = np.broadcast_to(np.arange(m), values.shape)
    matrix = np.zeros((m, m), dtype=np.int64)
    np.add.at(matrix, (_rank(images[keep], parity), columns[keep]), values[keep])
    return matrix


def full_space_sum(G, module, parity, symmetry=FULL):
    """Sum of the action matrices of all symmetry elements on the whole cube of
    the module: untwisted (g, h), x -> g x h^-1, is L_g after R_h, and twisted
    (g, h) is T after it, so the sum is (sum_g L_g)(sum_h R_h) for pi-pi and
    (I + T) times that for full, with L_g: x -> g x, R_h: x -> x h^-1,
    T: x -> x^-1 and I the identity. Each sum is lifted from the table's own
    arrays: I and T are arange(n) and the inversion table, row g of the
    multiplication table is L_g, and row h of its transpose, x -> x h, is
    R_{h^-1}, which gives the same sum over h."""
    basis = cube_basis(G, module, parity)

    def lift(perms):
        return action_matrix(G, perms, module, parity, basis)

    product = lift(G.mul_table) @ lift(G.mul_table.T)
    if symmetry == PI_PI:
        return product
    return lift([np.arange(G.order), G.inv_table]) @ product


def full_space_dimension(G, module, parity, symmetry):
    """The invariant dimension as the trace of the projector on the whole
    cube of the module, the kernel's computed on V0 itself."""
    acc = full_space_sum(G, module, parity, symmetry)
    scale = G.order**2 * (2 if symmetry == FULL else 1)
    assert np.array_equal(acc @ acc, scale * acc)
    return int(np.trace(acc)) // scale


def test_staged_dimension_equals_the_full_space_lift():
    for name, G in groups.battery_groups():
        if G.order > 8:
            continue
        for key in itertools.product((GROUP_ALGEBRA, AUG_KERNEL), (EVEN, ODD), (FULL, PI_PI)):
            assert oracle.dim_invariants_reynolds(G, *key) == (
                full_space_dimension(G, *key)
            ), (name, key)


def build_module_actions(G, module, parity):
    """Explicit integer matrices of every symmetry element on the cubic power,
    one per element of the doubled-and-swapped group in the order of
    _symmetry_elements, with the matrix dimension."""
    basis = cube_basis(G, module, parity)
    matrices = [
        action_matrix(G, [permutation_of(G, sigma)], module, parity, basis)
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
                factored = full_space_sum(G, module, parity)
                assert factored.shape == (dim, dim), (name, module, parity)
                assert np.array_equal(factored, sum(mats)), (name, module, parity)


def test_build_module_actions_shapes():
    mats, dim = build_module_actions(groups.make_cyclic(2), GROUP_ALGEBRA, ODD)
    assert len(mats) == 8 and dim == 4
    assert all(m.shape == (4, 4) and m.dtype == np.int64 for m in mats)
    mats, dim = build_module_actions(groups.make_cyclic(4), AUG_KERNEL, EVEN)
    assert len(mats) == 32 and dim == 1


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
    monkeypatch.setattr(oracle, "_staged_sum", lambda *args: (np.full((2, 2), 1 << 62), 6))
    with pytest.raises(ExactnessViolation):
        oracle.dim_invariants_reynolds(groups.make_cyclic(3), GROUP_ALGEBRA, ODD)


def test_idempotence_trap_raises(monkeypatch, capsys):
    # within the int64 and float64 bounds, but acc = S + I for the true sum S
    # of the cube of cyclic:3 squares to scale S + 2S + I, not scale (S + I)
    G = groups.make_cyclic(3)
    true_sum, scale = oracle._staged_sum(G, 3, ODD, FULL)
    broken = true_sum + np.eye(len(true_sum), dtype=np.int64)
    monkeypatch.setattr(oracle, "_staged_sum", lambda *args: (broken, scale))
    message = "averaged action is not a projector (degree=3, parity=odd, symmetry=full)"
    with pytest.raises(ProjectorNotIdempotent, match=re.escape(message)):
        oracle.dim_invariants_reynolds(G, AUG_KERNEL, ODD)
    code = cli.main(["dims", "--group", "cyclic:3", "--module", AUG_KERNEL,
                     "--parity", ODD, "--method", "reynolds"])
    out = capsys.readouterr()
    assert (code, out.out, out.err) == (1, "", f"error: {message}\n")


def test_reynolds_matches_perm_on_sl2f3():
    # aug-kernel odd: the whole cube of V0 has C(25, 3) = 2300 monomials, and
    # the cube of V 111 orbit sums
    G = groups.make_sl2(3)
    assert oracle.dim_invariants_reynolds(G, AUG_KERNEL, ODD) == (
        perm.dim_invariants_perm(G, AUG_KERNEL, ODD, FULL)
    )


def test_twisted_part_from_both_symmetries():
    # dim under full is the mean of the two coset averages, and dim under
    # pi-pi the untwisted one, so 2 full - pi-pi is the twisted average:
    # against the direct coset sum on 2O, and against the character table
    # on sl2:5 in one column (59, 50, 21 and 21 in all four)
    G = REFERENCE_GROUPS["2O"]
    twisted = perm.twisted_coset_average(G)
    for module, parity in itertools.product((GROUP_ALGEBRA, AUG_KERNEL), (EVEN, ODD)):
        full, pipi = (oracle.dim_invariants_reynolds(G, module, parity, symmetry)
                      for symmetry in (FULL, PI_PI))
        assert 2 * full - pipi == twisted[module, parity], (module, parity)
    G, table = groups.make_sl2(5), chartab.builtin_sl2f5_table()
    full, pipi = (oracle.dim_invariants_reynolds(G, GROUP_ALGEBRA, EVEN, symmetry)
                  for symmetry in (FULL, PI_PI))
    assert 2 * full - pipi == chartab.tau_part(table, GROUP_ALGEBRA, EVEN, chartab.INVERSION) == 21
