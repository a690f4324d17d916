import itertools
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_perm import draw_relabeling

from theta_dims import groups, oracle, perm
from theta_dims.errors import TooLarge
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
                assert oracle.dim_invariants_orbit(relabeled, parity, symmetry) == (
                    perm.dim_invariants_perm(G, GROUP_ALGEBRA, parity, symmetry)
                ), (name, parity, symmetry)


def test_reynolds_examples():
    assert oracle.dim_invariants_reynolds(groups.make_cyclic(3), AUG_KERNEL, ODD) == 1
    assert oracle.dim_invariants_reynolds(groups.make_cyclic(6), AUG_KERNEL, ODD) == 3
    assert oracle.dim_invariants_reynolds(groups.make_cyclic(5), AUG_KERNEL, EVEN) == 0


def test_reynolds_size_guard():
    with pytest.raises(TooLarge):
        oracle.dim_invariants_reynolds(groups.make_cyclic(13), GROUP_ALGEBRA, ODD)


def test_reynolds_matches_perm_small_battery():
    for name, G in groups.battery_groups():
        if G.order > 8:
            continue
        for module in (GROUP_ALGEBRA, AUG_KERNEL):
            for parity in (EVEN, ODD):
                assert oracle.dim_invariants_reynolds(G, module, parity) == (
                    perm.dim_invariants_perm(G, module, parity, FULL)
                ), (name, module, parity)


def test_factored_sum_equals_sum_of_all_actions():
    for name, G in groups.battery_groups():
        if G.order > 8:
            continue
        for module in (GROUP_ALGEBRA, AUG_KERNEL):
            for parity in (EVEN, ODD):
                mats, dim = oracle.build_module_actions(G, module, parity)
                factored = oracle._reynolds_sum(G, module, parity)
                assert factored.shape == (dim, dim), (name, module, parity)
                assert np.array_equal(factored, sum(mats)), (name, module, parity)


def test_build_module_actions_shapes():
    mats, dim = oracle.build_module_actions(groups.make_cyclic(2), GROUP_ALGEBRA, ODD)
    assert len(mats) == 8 and dim == 4
    assert all(m.shape == (4, 4) and m.dtype == np.int64 for m in mats)
    mats, dim = oracle.build_module_actions(groups.make_cyclic(4), AUG_KERNEL, EVEN)
    assert len(mats) == 32 and dim == 1
    with pytest.raises(TooLarge):
        oracle.build_module_actions(groups.make_cyclic(13), GROUP_ALGEBRA, ODD)


def test_identity_element_acts_as_identity_matrix():
    G = groups.make_cyclic(3)
    mats, dim = oracle.build_module_actions(G, AUG_KERNEL, ODD)
    # untwisted (0, 0) is the identity for a cyclic group
    assert np.array_equal(mats[0], np.eye(dim, dtype=np.int64))


def test_action_matrices_multiply_like_the_group():
    S3 = groups.make_sl2(2)
    for G, module, parity in [
        (groups.make_cyclic(3), GROUP_ALGEBRA, EVEN),
        (S3, GROUP_ALGEBRA, ODD),
        (S3, AUG_KERNEL, EVEN),
    ]:
        mats, dim = oracle.build_module_actions(G, module, parity)
        elements = [
            perm.CosetElement(twisted, g, h)
            for twisted in (False, True)
            for g in range(G.order)
            for h in range(G.order)
        ]
        lookup = dict(zip(elements, mats))
        rng = random.Random(6)
        for _ in range(20):
            s, t = rng.choice(elements), rng.choice(elements)
            assert np.array_equal(lookup[s] @ lookup[t], lookup[perm.compose(G, s, t)]), (
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
    cases += [
        [[0, 0, 0], [0, 0, 0]],
        [[1, 2, 3], [1, 2, 3], [2, 4, 6], [0, 1, 1]],
        [[3, -1, 0, 2, 5]],
        [[2], [0], [-6], [4]],
    ]
    for rows in cases:
        sparse = [[(j, v) for j, v in enumerate(row) if v] for row in rows]
        assert oracle._rank_of_rows(sparse) == brute_rank_over_q(rows), rows
