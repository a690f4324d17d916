import itertools
import random

import pytest

from theta_dims import lens
from theta_dims.lens import lens_dims, p3_closed, p3_dp, weight_map, weight_rank


def brute_p3(m):
    if m < 0:
        return 0
    return sum(
        1
        for x in range(m + 1)
        for y in range(x, m + 1)
        if m - x - y >= y
    )


def test_p3_examples():
    assert p3_dp(0) == 1
    assert p3_dp(5) == 5
    assert p3_dp(7) == 8
    assert p3_dp(-2) == 0
    assert p3_closed(6) == 7
    assert p3_closed(12) == 19
    assert p3_closed(0) == 1
    with pytest.raises(ValueError):
        p3_closed(-1)


def test_p3_against_brute_enumeration():
    for m in range(60):
        assert p3_dp(m) == brute_p3(m)


def test_p3_dp_equals_closed_form():
    assert all(p3_dp(m) == p3_closed(m) for m in range(5001))


def test_lens_dims_rows():
    assert lens_dims(10) == lens.LensDims(10, 14, 4, 8, 4)
    assert lens_dims(1) == lens.LensDims(1, 1, 0, 0, 0)
    assert lens_dims(15) == lens.LensDims(15, 27, 12, 19, 12)
    with pytest.raises(ValueError):
        lens_dims(0)


def test_weight_map_examples():
    assert weight_map(6, 0, 1, 2, "even").coeffs == ()
    w = weight_map(6, 0, 1, 3, "even")
    assert dict(w.coeffs) == {(1, 2, 3): 1, (3, 4, 5): -1}
    w = weight_map(3, 0, 0, 0, "odd")
    assert dict(w.coeffs) == {(0, 0, 0): 2}


def test_weight_map_well_definedness_random():
    rng = random.Random(20240811)
    for _ in range(3000):
        n = rng.randint(1, 50)
        a, b, c, k = (rng.randrange(n) for _ in range(4))
        parity = rng.choice(("even", "odd"))
        base = weight_map(n, a, b, c, parity)
        # translation by the doubled group
        assert weight_map(n, a + k, b + k, c + k, parity).coeffs == base.coeffs
        # invariance under the basis involution
        assert weight_map(n, -a, -b, -c, parity).coeffs == base.coeffs
        # symmetric / alternating in the arguments
        for pa, pb, pc in itertools.permutations((a, b, c)):
            swapped = weight_map(n, pa, pb, pc, parity)
            if parity == "odd":
                assert swapped.coeffs == base.coeffs
            else:
                parity_sign = _perm_sign((a, b, c), (pa, pb, pc))
                expected = tuple((key, parity_sign * v) for key, v in base.coeffs)
                assert swapped.coeffs == expected


def _perm_sign(src, dst):
    # sign of some permutation carrying src to dst (repeats collapse to +1
    # only when the swap fixes the tuple, which is all we need here)
    if src == dst:
        return 1
    order = []
    used = [False, False, False]
    for v in dst:
        for i, w in enumerate(src):
            if not used[i] and v == w:
                used[i] = True
                order.append(i)
                break
    inversions = sum(
        1 for i in range(3) for j in range(i + 1, 3) if order[i] > order[j]
    )
    return -1 if inversions % 2 else 1


def test_weight_rank_matches_partition_counts():
    for n in range(1, 21):
        assert weight_rank(n, "odd") == p3_dp(n), n
        assert weight_rank(n, "even") == p3_dp(n - 6), n


def test_lens_dims_internal_identities():
    for n in range(1, 41):
        d = lens_dims(n)
        assert d.even_group_algebra == d.even_aug_kernel
        assert d.odd_group_algebra - d.odd_aug_kernel == n // 2 + 1


def test_weight_map_validation():
    with pytest.raises(ValueError):
        weight_map(0, 0, 0, 0, "odd")
    with pytest.raises(ValueError):
        weight_map(5, 0, 0, 0, "sideways")
