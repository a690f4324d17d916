"""Independent brute-force verifiers for the invariant dimensions.

Two routes that share nothing with the character computations:

* orbit counting on the monomial basis of the cubic powers of the group
  algebra, with a sign-tracking union-find (a wedge orbit dies when some
  stabilizer element acts by -1);
* the exact group-average projector on explicit action matrices, whose
  rank is the invariant dimension.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .errors import GeneratorsDontGenerate, ProjectorNotIdempotent, TooLarge
from .groups import GroupTable, _closure, generating_set
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
# the orbit method holds about 330 bytes per monomial; this admits sl2:7 (6.4M)
ORBIT_MONOMIAL_LIMIT = 1 << 23
_INT64_LIMIT = int(np.iinfo(np.int64).max)


def wedge_canonical(triple) -> tuple[int, tuple[int, int, int]] | None:
    """Sort a wedge monomial; return (sign, sorted triple), or None if it dies."""
    x, y, z = triple
    if x == y or y == z or x == z:
        return None
    sign = 1
    if x > y:
        x, y, sign = y, x, -sign
    if y > z:
        y, z, sign = z, y, -sign
    if x > y:
        x, y, sign = y, x, -sign
    return sign, (x, y, z)


def sym_canonical(triple) -> tuple[int, int, int]:
    """Sort a symmetric monomial."""
    return tuple(sorted(triple))


def _monomials(n: int, parity: str) -> list[tuple[int, int, int]]:
    """Basis of the alternating ("even") or symmetric ("odd") cube on n points:
    sorted index triples in lexicographic order."""
    if parity == EVEN:
        return list(itertools.combinations(range(n), 3))
    return list(itertools.combinations_with_replacement(range(n), 3))


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


def _verify_generators(G: GroupTable, generators) -> list[int]:
    gens = [int(g) for g in generators]
    reached = _closure(G, gens)
    if len(reached) != G.order:
        raise GeneratorsDontGenerate(
            f"generators reach {len(reached)} of {G.order} elements"
        )
    return gens


class _SignedUnionFind:
    """Union-find whose nodes carry a sign relative to their root.

    Uniting two nodes whose implied relative sign conflicts with an edge
    marks the whole orbit as sign-killed.
    """

    def __init__(self, n: int):
        self.parent = list(range(n))
        self.sign = bytearray(n)  # parity bit of the sign to the parent
        self.size = [1] * n
        self.killed = bytearray(n)  # meaningful at roots

    def find(self, x: int) -> tuple[int, int]:
        parent, sign = self.parent, self.sign
        root, s = x, 0
        while parent[root] != root:
            s ^= sign[root]
            root = parent[root]
        cur, cs = x, s  # path compression, re-rooting the signs
        while parent[cur] != root:
            nxt, old = parent[cur], sign[cur]
            parent[cur] = root
            sign[cur] = cs
            cur, cs = nxt, cs ^ old
        return root, s

    def union(self, x: int, y: int, edge_sign: int) -> None:
        rx, sx = self.find(x)
        ry, sy = self.find(y)
        if rx == ry:
            if sx ^ sy != edge_sign:
                self.killed[rx] = 1
            return
        if self.size[rx] < self.size[ry]:
            rx, ry = ry, rx
            sx, sy = sy, sx
        self.parent[ry] = rx
        self.sign[ry] = sx ^ sy ^ edge_sign
        self.size[rx] += self.size[ry]
        self.killed[rx] |= self.killed[ry]

    def orbit_counts(self) -> tuple[int, int]:
        """(number of orbits, number of sign-killed orbits)."""
        total = killed = 0
        for x in range(len(self.parent)):
            if self.parent[x] == x:
                total += 1
                killed += self.killed[x]
        return total, killed


def _symmetry_permutations(G: GroupTable, gens: list[int], symmetry: str) -> list[np.ndarray]:
    perms = []
    for s in gens:
        perms.append(permutation_of(G, CosetElement(False, s, G.identity)))
        perms.append(permutation_of(G, CosetElement(False, G.identity, s)))
    if symmetry == FULL:
        perms.append(np.asarray(G.inv_table))
    return perms


def dim_invariants_orbit(
    G: GroupTable,
    parity: str,
    symmetry: str = FULL,
    generators=None,
) -> int:
    """Invariant dimension of the cubic power of the group algebra by orbit
    counting over monomials, using only symmetry generators."""
    _check_choice(parity, PARITIES, "parity")
    _check_choice(symmetry, SYMMETRIES, "symmetry")
    n = G.order
    wedge = parity == EVEN
    count = math.comb(n, 3) if wedge else math.comb(n + 2, 3)
    if count > ORBIT_MONOMIAL_LIMIT:
        raise TooLarge(f"{count} monomials exceed the orbit guard {ORBIT_MONOMIAL_LIMIT}")
    if generators is None:
        generators = generating_set(G)
    gens = _verify_generators(G, generators)
    basis = _monomials(n, parity)
    if not basis:
        return 0
    arr = np.array(basis, dtype=np.int64)
    if not wedge:
        # shift a multiset x<=y<=z to a strict triple over n+2 points
        arr = arr + np.arange(3, dtype=np.int64)
        m = n + 2
    else:
        m = n

    def rank_of(rows: np.ndarray) -> np.ndarray:
        x, y, z = rows[:, 0], rows[:, 1], rows[:, 2]
        return z * (z - 1) * (z - 2) // 6 + y * (y - 1) // 2 + x

    base_rank = rank_of(arr)
    # the combinadic rank is the union-find node id; it must be a bijection
    assert np.array_equal(np.sort(base_rank), np.arange(len(basis)))

    uf = _SignedUnionFind(len(basis))
    raw = np.array(basis, dtype=np.int64)
    sources = base_rank.tolist()
    for p in _symmetry_permutations(G, gens, symmetry):
        # int64 up front: the rank arithmetic overflows narrow index dtypes
        images = p[raw].astype(np.int64)
        signs = np.zeros(len(basis), dtype=np.int64)
        if wedge:
            a, b, c = images[:, 0], images[:, 1], images[:, 2]
            signs = ((a > b).astype(np.int64) + (a > c) + (b > c)) & 1
        images = np.sort(images, axis=1)
        if not wedge:
            images = images + np.arange(3, dtype=np.int64)
        targets = rank_of(images)
        for i, j, s in zip(sources, targets.tolist(), signs.tolist()):
            uf.union(i, j, s)

    total, killed = uf.orbit_counts()
    return total - killed if wedge else total


# -- explicit matrices and the averaged projector --------------------------------


def _module_columns(G: GroupTable, sigma: CosetElement, module: str):
    """Images of the module basis under sigma, as sparse columns.

    For the group algebra the basis is e_x and each image is one basis
    vector. For the augmentation kernel the basis is f_x = e_x - e_1
    (x != identity), so an image is a difference of at most two of them.
    """
    p = permutation_of(G, sigma)
    e = G.identity
    if module == GROUP_ALGEBRA:
        return [[(int(p[x]), 1)] for x in range(G.order)]
    slots = [x for x in range(G.order) if x != e]
    index = {x: i for i, x in enumerate(slots)}
    base = int(p[e])
    cols = []
    for x in slots:
        img = int(p[x])
        col = []
        if img != e:
            col.append((index[img], 1))
        if base != e:
            col.append((index[base], -1))
        cols.append(col)
    return cols


def _symmetry_elements(G: GroupTable):
    n = G.order
    for twisted in (False, True):
        for g in range(n):
            for h in range(n):
                yield CosetElement(twisted, g, h)


def _cube_basis(G: GroupTable, module: str, parity: str):
    """Monomial basis of the cubic power of the module, with its index map."""
    _check_choice(module, MODULES, "module")
    _check_choice(parity, PARITIES, "parity")
    if G.order > REYNOLDS_ORDER_LIMIT:
        raise TooLarge(f"group order {G.order} exceeds the guard {REYNOLDS_ORDER_LIMIT}")
    basis = _monomials(G.order if module == GROUP_ALGEBRA else G.order - 1, parity)
    return basis, {m: i for i, m in enumerate(basis)}


def _action_matrix(G: GroupTable, sigma: CosetElement, module: str, parity: str, basis, index):
    """Dense integer matrix of sigma acting on the cubic monomial basis."""
    cols = _module_columns(G, sigma, module)
    wedge = parity == EVEN
    entries = []  # (row, column, value); repeated positions add up
    for j, mono in enumerate(basis):
        for (i1, a1), (i2, a2), (i3, a3) in itertools.product(*(cols[x] for x in mono)):
            coeff = a1 * a2 * a3
            if wedge:
                canon = wedge_canonical((i1, i2, i3))
                if canon is None:
                    continue
                s, key = canon
                coeff *= s
            else:
                key = sym_canonical((i1, i2, i3))
            entries.append((index[key], j, coeff))
    m = np.zeros((len(basis), len(basis)), dtype=np.int64)
    e = np.array(entries, dtype=np.int64).reshape(-1, 3)
    np.add.at(m, (e[:, 0], e[:, 1]), e[:, 2])
    return m


def build_module_actions(G: GroupTable, module: str, parity: str) -> tuple[list[np.ndarray], int]:
    """Explicit integer matrices of every symmetry element on the cubic power.

    Returns one matrix per element of the doubled-and-swapped group, in the
    order untwisted pairs then twisted pairs (each lexicographic in (g, h)),
    together with the matrix dimension.
    """
    basis, index = _cube_basis(G, module, parity)
    matrices = [
        _action_matrix(G, sigma, module, parity, basis, index)
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
    basis, index = _cube_basis(G, module, parity)
    e = G.identity

    def lift(twisted: bool, g: int, h: int) -> np.ndarray:
        return _action_matrix(G, CosetElement(twisted, g, h), module, parity, basis, index)

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
