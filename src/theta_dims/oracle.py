"""Independent brute-force verifiers for the invariant dimensions.

Two routes that share nothing with the character computations:

* orbit counting on the monomial basis of the cubic powers of the group
  algebra, as the components of the sign double cover of the monomial basis
  (a wedge orbit dies when some stabilizer element acts by -1);
* the exact group-average projector on explicit action matrices, whose
  rank is the invariant dimension.

Both build on one vectorized monomial kernel: `_monomials` enumerates the
basis, `_sort_sign` sorts index triples and gives their wedge sign, and
`_rank` gives their combinadic rank, which is the basis position.
"""

from __future__ import annotations

import itertools
import math

from ._lazy import np
from .errors import ProjectorNotIdempotent, TooLarge
from .groups import GroupTable, _orbit_labels, generating_set
from .perm import (
    EVEN,
    FULL,
    GROUP_ALGEBRA,
    MODULES,
    PARITIES,
    SYMMETRIES,
    CosetElement,
    _check_choice,
    permutation_of,
)

REYNOLDS_ORDER_LIMIT = 12
# the orbit method peaks at about 150 bytes per monomial for the wedge and 115 for
# the symmetric cube (max RSS at sl2:7); this admits sl2:7 (6.4M)
ORBIT_MONOMIAL_LIMIT = 1 << 23
_INT64_LIMIT = (1 << 63) - 1


def check_order_guard(method: str, n: int, parity: str) -> None:
    """Raise TooLarge when method, "orbit" or "reynolds", refuses a group of
    order n: orbit from the number of monomials of the cube, reynolds from n."""
    if method == "reynolds":
        if n > REYNOLDS_ORDER_LIMIT:
            raise TooLarge(f"group order {n} exceeds the guard {REYNOLDS_ORDER_LIMIT}")
        return
    count = math.comb(n, 3) if parity == EVEN else math.comb(n + 2, 3)
    if count > ORBIT_MONOMIAL_LIMIT:
        raise TooLarge(f"{count} monomials exceed the orbit guard {ORBIT_MONOMIAL_LIMIT}")


def _monomials(n: int, parity: str) -> np.ndarray:
    """Basis of the alternating ("even") or symmetric ("odd") cube on n points:
    sorted index triples as an (m, 3) int64 array, listed in rank order (row i
    has `_rank` i)."""
    k = n if parity == EVEN else n + 2
    z, y = np.tril_indices(k, -1)  # pairs y < z, ordered by z, then y
    x = np.arange(int(y.sum())) - np.repeat(np.cumsum(y) - y, y)
    triples = np.stack([x, np.repeat(y, y), np.repeat(z, y)], axis=1)
    # the strict triple (x, y + 1, z + 2) on n + 2 points is the multiset x <= y <= z
    return triples if parity == EVEN else triples - np.arange(3)


def _sort_sign(triples: np.ndarray, parity: str) -> tuple[np.ndarray, np.ndarray]:
    """Index triples (along the last axis) sorted, with the sign each carries as
    a monomial: for the wedge the sign of the sort, or 0 where an index repeats;
    1 for the symmetric cube."""
    s = np.sort(triples, axis=-1)
    if parity != EVEN:
        return s, np.broadcast_to(np.int64(1), s.shape[:-1])
    a, b, c = np.moveaxis(triples, -1, 0)
    sign = 1 - 2 * (((a > b).astype(np.int64) + (a > c) + (b > c)) & 1)
    sign *= (s[..., 0] != s[..., 1]) & (s[..., 1] != s[..., 2])
    return s, sign


def _rank(s: np.ndarray, parity: str) -> np.ndarray:
    """Combinadic rank of sorted index triples among the monomials of `parity`."""
    # int64 up front: the rank arithmetic overflows narrow index dtypes
    x, y, z = np.moveaxis(s.astype(np.int64), -1, 0)
    if parity != EVEN:
        y, z = y + 1, z + 2
    return z * (z - 1) * (z - 2) // 6 + y * (y - 1) // 2 + x


def _rank_of_rows(rows) -> int:
    """Exact rank of sparse integer rows, each an iterable of (column, value)
    pairs, by fraction-free echelon reduction."""
    pivots: dict = {}
    rank = 0
    for row in rows:
        row = dict(row)
        while row:
            lead = min(row)
            if lead not in pivots:
                pivots[lead] = row
                rank += 1
                break
            piv = pivots[lead]
            a, b = piv[lead], row[lead]
            row = {
                k: v
                for k in set(row) | set(piv)
                if (v := row.get(k, 0) * a - piv.get(k, 0) * b) != 0
            }
    return rank


def _symmetry_permutations(G: GroupTable, symmetry: str) -> list[np.ndarray]:
    perms = []
    for s in generating_set(G):
        perms.append(permutation_of(G, CosetElement(False, s, G.identity)))
        perms.append(permutation_of(G, CosetElement(False, G.identity, s)))
    if symmetry == FULL:
        perms.append(np.asarray(G.inv_table))
    return perms


def dim_invariants_orbit(G: GroupTable, parity: str, symmetry: str = FULL) -> int:
    """Invariant dimension of the cubic power of the group algebra by orbit
    counting over monomials, using only the symmetries made from the greedy
    generating set of G (`generating_set`).

    Counts the components of the sign double cover of the monomial basis: node
    i + s*m is monomial i with sign (-1)^s (the symmetric cube has one sheet).
    A wedge orbit whose two sheets meet dies, since some stabilizer element acts
    on it by -1; every other orbit covers two components.
    """
    _check_choice(parity, PARITIES, "parity")
    _check_choice(symmetry, SYMMETRIES, "symmetry")
    n = G.order
    wedge = parity == EVEN
    check_order_guard("orbit", n, parity)
    basis = _monomials(n, parity)
    m = len(basis)
    # the combinadic rank is the node id; it must be a bijection onto range(m)
    assert np.array_equal(_rank(basis, parity), np.arange(m))

    # each symmetry generator as a bijection of the nodes; node ids fit int32,
    # as there are at most 2 * ORBIT_MONOMIAL_LIMIT of them
    moves = []
    for p in _symmetry_permutations(G, symmetry):
        images, sign = _sort_sign(p[basis], parity)
        target = _rank(images, parity)
        if wedge:
            flip = (sign < 0) * m
            target = np.concatenate([target + flip, target + (m - flip)])
        moves.append(target.astype(np.int32))

    label = _orbit_labels(moves, m * (2 if wedge else 1))
    roots = label == np.arange(len(label))
    if not wedge:
        return int(np.count_nonzero(roots))
    killed = np.count_nonzero(roots[:m] & (label[:m] == label[m:]))
    return int(np.count_nonzero(roots) - killed) // 2


# -- explicit matrices and the averaged projector --------------------------------


def _symmetry_elements(G: GroupTable):
    n = G.order
    for twisted in (False, True):
        for g in range(n):
            for h in range(n):
                yield CosetElement(twisted, g, h)


def _cube_basis(G: GroupTable, module: str, parity: str) -> np.ndarray:
    """Monomial basis of the cubic power of the module, in rank order."""
    _check_choice(module, MODULES, "module")
    _check_choice(parity, PARITIES, "parity")
    check_order_guard("reynolds", G.order, parity)
    return _monomials(G.order if module == GROUP_ALGEBRA else G.order - 1, parity)


def _action_matrix(G: GroupTable, sigma: CosetElement, module: str, parity: str, basis):
    """Dense integer matrix of sigma acting on the cubic monomial basis; row and
    column i belong to the monomial of rank i.

    For the group algebra the module basis is e_x and a monomial has one image
    term. For the augmentation kernel slot x is f_x' = e_x' - e_1 with
    x' = x + (x >= identity); f_x' goes to f_p[x'] - f_p[1] with f_1 = 0, so a
    monomial has 2^3 image terms, less those that choose the identity.
    """
    p = np.asarray(permutation_of(G, sigma), dtype=np.int64)
    if module == GROUP_ALGEBRA:
        terms, values = p[basis][None], np.ones((1, len(basis)), dtype=np.int64)
    else:
        e = G.identity
        slot = np.arange(G.order - 1)
        options = np.stack([p[slot + (slot >= e)], np.full_like(slot, p[e])])
        choice = np.array(list(itertools.product((0, 1), repeat=3)))
        chosen = options[choice[:, None, :], basis]  # elements, (8, m, 3)
        coeff = 1 - 2 * (choice.sum(axis=1, keepdims=True) & 1)
        values = np.where((chosen != e).all(axis=2), coeff, 0)
        terms = chosen - (chosen > e)
    images, sign = _sort_sign(terms, parity)
    values = values * sign
    keep = values != 0
    columns = np.broadcast_to(np.arange(len(basis)), values.shape)
    matrix = np.zeros((len(basis), len(basis)), dtype=np.int64)
    np.add.at(matrix, (_rank(images[keep], parity), columns[keep]), values[keep])
    return matrix


def build_module_actions(G: GroupTable, module: str, parity: str) -> tuple[list[np.ndarray], int]:
    """Explicit integer matrices of every symmetry element on the cubic power.

    Returns one matrix per element of the doubled-and-swapped group, in the
    order untwisted pairs then twisted pairs (each lexicographic in (g, h)),
    together with the matrix dimension.
    """
    basis = _cube_basis(G, module, parity)
    matrices = [
        _action_matrix(G, sigma, module, parity, basis)
        for sigma in _symmetry_elements(G)
    ]
    return matrices, len(basis)


def _max_abs(a: np.ndarray) -> int:
    return int(np.abs(a).max(initial=0))


def _exact_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # an int64 product is exact only while every partial sum provably fits
    assert a.shape[1] * _max_abs(a) * _max_abs(b) < _INT64_LIMIT
    return a @ b


def _reynolds_sum(G: GroupTable, module: str, parity: str) -> np.ndarray:
    """Sum of the action matrices of all 2n^2 symmetry elements: untwisted (g, h)
    is (g, e) after (e, h) and twisted (g, h) is tau*(e, e) after it, so the
    sum is (I + T)(sum_g L_g)(sum_h R_h) with L_g = (g, e), R_h = (e, h),
    T = tau*(e, e)."""
    basis = _cube_basis(G, module, parity)
    e = G.identity

    def lift(twisted: bool, g: int, h: int) -> np.ndarray:
        return _action_matrix(G, CosetElement(twisted, g, h), module, parity, basis)

    left = sum(lift(False, g, e) for g in range(G.order))
    right = sum(lift(False, e, h) for h in range(G.order))
    twist = np.eye(len(basis), dtype=np.int64) + lift(True, e, e)
    return _exact_matmul(_exact_matmul(twist, left), right)


def dim_invariants_reynolds(G: GroupTable, module: str, parity: str) -> int:
    """Invariant dimension as the exact rank of the group-average projector.

    The rank is taken on the integer sum of the action matrices over the
    doubled-and-swapped group, which is the projector scaled by the size of
    that group. The sum is formed as (I + T)(sum_g L_g)(sum_h R_h) from
    2n + 1 lifted elements: L_g = (g, e), R_h = (e, h), T = tau*(e, e).
    """
    acc = _reynolds_sum(G, module, parity)
    group_size = 2 * G.order**2
    assert group_size * _max_abs(acc) < _INT64_LIMIT
    if not np.array_equal(_exact_matmul(acc, acc), group_size * acc):
        raise ProjectorNotIdempotent(
            f"averaged action is not a projector (module={module}, parity={parity})"
        )
    rank = _rank_of_rows(
        ((j, v) for j, v in enumerate(row) if v) for row in acc.tolist()
    )
    trace = int(np.trace(acc))
    if trace != rank * group_size:
        raise ProjectorNotIdempotent(
            f"projector trace {trace}/{group_size} != rank {rank}"
        )
    return rank
