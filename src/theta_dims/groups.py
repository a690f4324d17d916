"""Finite groups as dense index tables, with conjugacy structure.

Elements are dense integer indices 0..n-1 and the product is a flat n x n
lookup table. Subgroup closures and conjugacy classes are orbits, found by
one min-label kernel: classes are the orbits of conjugation by a generating
set. A subgroup is the table restricted to a closure, numbered in the order
of the whole group; Q8 is the subgroup of SL2(F_3) generated by i and j.
N x| H (N x H with no action) puts (a, b) at a*|H| + b, by index arithmetic.
SL2(F_p) is the set of 2x2 matrices of determinant 1, in lexicographic order.
Class indices are ordered by smallest member, so every derived quantity is
deterministic across runs and platforms.
The class data record (classdata.ConjugacyData), and the class data of a
cyclic group and of SL2(F_p) by arithmetic with no table, live in classdata,
which also lists SL2(F_p)'s matrices for make_sl2; a query that reads only
class data does not execute this module.
A Cayley table file is read by cayley.load_cayley.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterator
from typing import NamedTuple

from . import classdata, limits
from ._lazy import np
from .classdata import _is, _is_not
from .errors import FixtureMismatch, NotAGroup

# table entries that a pass over rows of a table gathers at a time
_CHUNK_ENTRIES = 1 << 16


def _index_dtype(n: int) -> type:
    if n <= 0xFF:
        return np.uint8
    if n <= 0xFFFF:
        return np.uint16
    return np.uint32


def _row_chunks(count: int, width: int) -> Iterator[slice]:
    """Slices covering rows 0..count-1 of width entries each, in order, each
    of at most _CHUNK_ENTRIES entries but at least one row."""
    step = max(1, _CHUNK_ENTRIES // width)
    return (slice(lo, min(lo + step, count)) for lo in range(0, count, step))


def _freeze(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


class GroupTable(NamedTuple):
    """A finite group on indices 0..order-1 with full lookup tables.

    Compared and hashed by identity: a tuple's elementwise == would compare
    the arrays."""

    mul_table: np.ndarray  # shape (n, n)
    inv_table: np.ndarray  # shape (n,)
    identity: int
    labels: tuple[str, ...] | None = None

    __eq__, __ne__, __hash__ = _is, _is_not, object.__hash__

    @property
    def order(self) -> int:
        return self.mul_table.shape[0]

    def mul(self, x: int, y: int) -> int:
        return int(self.mul_table[x, y])

    def inv(self, x: int) -> int:
        return int(self.inv_table[x])

    def label(self, x: int) -> str:
        if self.labels is None:
            return str(int(x))
        return self.labels[int(x)]


def _require_valid_index_table(rows) -> np.ndarray:
    arr = np.asarray(rows)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] == 0:
        raise NotAGroup(f"table must be square and nonempty, got shape {arr.shape}")
    n = arr.shape[0]
    # a list that mixes ints and bools reads as an integer array
    if not np.issubdtype(arr.dtype, np.integer) or (
        not isinstance(rows, np.ndarray) and any(type(x) is not int for row in rows for x in row)
    ):
        raise NotAGroup("table entries must be integers")
    if arr.min() < 0 or arr.max() >= n:
        raise NotAGroup(f"table entries must lie in 0..{n - 1}")
    return arr.astype(_index_dtype(n))


def _check_associativity(G: GroupTable) -> None:
    """Light's test: the a with (x*a)*y == x*(a*y) for all x, y are closed
    under products, so passing generators prove the whole table associative.
    The generators passed so far span a subgroup that at least doubles with
    each one, so checking each before the next closure stops by log2(n) of them."""
    mul = G.mul_table
    for a in _greedy_generators(G):
        for rows in _row_chunks(G.order, G.order):
            # take, not fancy indexing: the same arrays, and the check about
            # a third faster on a 2184-element table
            left = mul.take(mul[rows, a], axis=0)  # left[i, y] = (x*a)*y for x = rows.start + i
            right = mul[rows].take(mul[a], axis=1)  # right[i, y] = x*(a*y)
            if not np.array_equal(left, right):
                i, y = (int(v) for v in np.argwhere(left != right)[0])
                x = rows.start + i
                raise NotAGroup(f"associativity fails at witness triple ({x}, {a}, {y})")


def validate_group(G: GroupTable) -> None:
    """Check identity, inverse and associativity laws; raise NotAGroup on failure.

    Every check is exact, for every order.
    """
    mul, inv, e = G.mul_table, G.inv_table, G.identity
    n = G.order
    idx = np.arange(n)
    if not (np.array_equal(mul[e], idx) and np.array_equal(mul[:, e], idx)):
        raise NotAGroup(f"element {e} is not a two-sided identity")
    bad = (mul[idx, inv] != e) | (mul[inv, idx] != e)
    if bad.any():
        raise NotAGroup(f"element {int(np.argmax(bad))} has no two-sided inverse")
    _check_associativity(G)


def make_cyclic(n: int) -> GroupTable:
    """The cyclic group of order n, written additively: mul(i, j) = (i+j) mod n."""
    classdata._check_cyclic_order(n)
    idx = np.arange(n, dtype=_index_dtype(2 * n))  # wide enough for i + j
    mul = np.add.outer(idx, idx)
    np.remainder(mul, n, out=mul)
    dt = _index_dtype(n)
    inv = (-np.arange(n)) % n
    return GroupTable(_freeze(mul.astype(dt, copy=False)), _freeze(inv.astype(dt)), 0)


def make_sl2(p: int) -> GroupTable:
    """2x2 determinant-1 matrices over F_p, enumerated lexicographically."""
    classdata._check_sl2_prime(p)
    mats = classdata.sl2_matrices(p)
    n = len(mats)
    if n != p * (p * p - 1):
        raise FixtureMismatch(f"enumerated {n} matrices of SL2(F_{p}), not {p * (p * p - 1)}")
    columns = tuple(np.array(mats, dtype=np.int64).T)
    dt = _index_dtype(n)

    def code(a, b, c, d):
        return ((a * p + b) * p + c) * p + d

    index = np.zeros(p**4, dtype=dt)  # matrix code -> element index
    index[code(*columns)] = np.arange(n)
    mul = np.empty((n, n), dtype=dt)
    for i, m in enumerate(mats):
        mul[i] = index[code(*classdata._sl2_times(m, columns, p))]
    inv = index[code(*classdata._sl2_inverse(columns, p))]
    e = int(index[code(1, 0, 0, 1)])
    labels = tuple(map(classdata._sl2_label, mats))
    return GroupTable(_freeze(mul), _freeze(inv), e, labels)


def make_from_cayley(rows) -> GroupTable:
    """Build and fully validate a group from an untrusted multiplication table,
    given as nested lists of ints or an array; load_cayley reads one from a file."""
    mul = _require_valid_index_table(rows)
    idx = np.arange(mul.shape[0])
    # an identity e has e*0 = 0, so only those rows are candidates (one in a
    # group); each is checked on its own row and column, a chunk of them at a
    # time, and the first that passes is the identity
    candidates = np.flatnonzero(mul[:, 0] == 0)
    for chunk in _row_chunks(len(candidates), len(idx)):
        e = candidates[chunk]
        is_identity = (mul[e] == idx).all(axis=1) & (mul[:, e] == idx[:, None]).all(axis=0)
        if is_identity.any():
            identity = int(e[np.argmax(is_identity)])
            break
    else:
        raise NotAGroup("no two-sided identity element")
    # first right inverse of each row; validate_group rejects a row without one
    inv = np.argmax(mul == identity, axis=1).astype(mul.dtype)
    G = GroupTable(_freeze(mul), _freeze(inv), identity)
    validate_group(G)
    return G


def _check_action(N: GroupTable, H: GroupTable, phi: np.ndarray) -> np.ndarray:
    """phi in N's index dtype if its rows satisfy phi_b(xy) = phi_b(x) phi_b(y),
    phi_bd = phi_b phi_d and phi_e = id, which makes each phi_b invertible."""
    nN, nH = N.order, H.order
    if phi.shape != (nH, nN) or phi.dtype.kind not in "iu" or not 0 <= phi.min() <= phi.max() < nN:
        raise ValueError(f"action must be a ({nH}, {nN}) array of indices in 0..{nN - 1}")
    phi = phi.astype(_index_dtype(nN))
    if not np.array_equal(phi[H.identity], np.arange(nN)):
        raise ValueError("the identity of H must act as the identity of N")
    if not np.array_equal(phi[:, N.mul_table], N.mul_table[phi[:, :, None], phi[:, None, :]]):
        raise ValueError("an action row is not a homomorphism of N")
    if not np.array_equal(phi[H.mul_table], phi[np.arange(nH)[:, None, None], phi]):
        raise ValueError("the action is not a homomorphism from H")
    return phi


def make_semidirect_product(N: GroupTable, H: GroupTable, action=None) -> GroupTable:
    """N x| H on pairs (a, b) encoded as a*|H| + b: (a, b)(c, d) = (a phi_b(c), b d)
    and (a, b)^-1 = (phi_{b^-1}(a^-1), b^-1), where row b of action, an (|H|, |N|)
    index array, is the automorphism phi_b of N. No action is the direct product.
    Raises ValueError unless b -> phi_b is a homomorphism H -> Aut(N)."""
    nN, nH = N.order, H.order
    n = nN * nH
    limits.check_table_size(n)
    dt = _index_dtype(n)
    if action is None:
        action = np.broadcast_to(np.arange(nN), (nH, nN))
    action = _check_action(N, H, np.asarray(action))
    left = N.mul_table[:, action]  # left[a, b, c] = a phi_b(c)
    first_inv = action[H.inv_table[None, :], N.inv_table[:, None]]  # phi_{b^-1}(a^-1)
    mul = np.empty((n, n), dtype=dt)
    # entry [a, b, c, d] of this view is the product of (a, b) and (c, d)
    np.add(
        np.multiply(left, nH, dtype=dt)[..., None],
        H.mul_table.astype(dt)[None, :, None, :],
        out=mul.reshape(nN, nH, nN, nH),
    )
    inv = (first_inv.astype(dt) * nH + H.inv_table.astype(dt)).reshape(n)
    labels = None
    if N.labels is not None and H.labels is not None:
        labels = tuple(f"({a},{b})" for a, b in itertools.product(N.labels, H.labels))
    return GroupTable(_freeze(mul), _freeze(inv), N.identity * nH + H.identity, labels)


def conjugacy_classes(G: GroupTable) -> classdata.ConjugacyData:
    """Conjugacy classes as the orbits of conjugation by a generating set and
    its inverses, indexed by smallest representative, with the classes of the
    square, cube and inverse of each representative."""
    mul, inv = G.mul_table, G.inv_table
    moves = []
    for s in generating_set(G):
        moves.append(mul[mul[s], inv[s]])  # x -> s x s^-1
        moves.append(mul[mul[inv[s]], s])  # x -> s^-1 x s
    label = _orbit_labels(moves, G.order)
    roots = label == np.arange(G.order)
    class_of = (np.cumsum(roots, dtype=np.int32) - 1)[label]
    reps = np.flatnonzero(roots)
    square = mul[reps, reps]
    power2, power3, inverse = class_of[np.stack([square, mul[square, reps], inv[reps]])]
    columns = (reps, np.bincount(class_of), power2, power3, inverse)
    return classdata.ConjugacyData(_freeze(class_of), *(tuple(a.tolist()) for a in columns))


def class_power_map(G: GroupTable, cd: classdata.ConjugacyData, k: int) -> tuple[int, ...]:
    """For each class [r], the class of r**k, from k - 1 products of every
    representative at once. Well-defined for any k >= 2; conjugacy_classes
    gives k = 2 and 3 as power2 and power3."""
    if k < 2:
        raise ValueError(f"power map needs k >= 2, got {k}")
    power = np.array(cd.reps)
    for _ in range(k - 1):
        power = G.mul_table[power, cd.reps]
    return tuple(np.asarray(cd.class_of)[power].tolist())


def _orbit_labels(moves: list[np.ndarray], size: int) -> np.ndarray:
    """Each point's least orbit member under the bijections in moves.

    Forward-only min-label propagation, pulling label[f[i]] into point i: at
    the fixed point the label is constant along every cycle of every move (each
    is a bijection), hence on every orbit, and it is the orbit's least point.
    Labels travel one step per round against a cycle; pass inverses for long ones.
    """
    label = np.arange(size, dtype=np.int32)
    while True:
        before = label
        for f in moves:
            label = np.minimum(label, label[f])
        while not np.array_equal(hop := label[label], label):
            label = hop
        if np.array_equal(label, before):
            return label


def _closure(G: GroupTable, gens: list[int]) -> np.ndarray:
    """Mask of the subgroup generated by gens: the orbit of the identity under
    right multiplication by each generator and its inverse."""
    mul, inv = G.mul_table, G.inv_table
    moves = [mul[:, t] for s in gens for t in (s, inv[s])]
    label = _orbit_labels(moves, G.order)
    return label == label[G.identity]


def _subgroup(G: GroupTable, gens: list[int]) -> GroupTable:
    """The subgroup generated by gens, its elements numbered in G's order."""
    keep = _closure(G, gens)
    elems = np.flatnonzero(keep)
    number = np.cumsum(keep) - 1  # index in G -> index in the subgroup, on kept elements
    dt = _index_dtype(len(elems))
    mul = number[G.mul_table[np.ix_(elems, elems)]].astype(dt)
    inv = number[G.inv_table[elems]].astype(dt)
    labels = None if G.labels is None else tuple(G.labels[i] for i in elems.tolist())
    return GroupTable(_freeze(mul), _freeze(inv), int(number[G.identity]), labels)


def _greedy_generators(G: GroupTable) -> Iterator[int]:
    """Generators chosen greedily by ascending element index, each yielded
    before the closure that includes it is built."""
    gens: list[int] = []
    closure = np.arange(G.order) == G.identity
    reached = 1
    for g in range(G.order):
        if reached == G.order:
            return
        if not closure[g]:
            gens.append(g)
            yield g
            closure = _closure(G, gens)
            reached = int(np.count_nonzero(closure))


def generating_set(G: GroupTable) -> list[int]:
    """A small generating set, chosen greedily by ascending element index."""
    return list(_greedy_generators(G))


# -- standard test battery -----------------------------------------------------


def make_quaternion8() -> GroupTable:
    """The quaternion group Q8 as the subgroup of SL2(F_3) generated by
    i = [0,1;2,0] and j = [1,1;1,2], for which i^2 = j^2 = -I and ji = -ij."""
    return _quaternion8_in(make_sl2(3))


def _quaternion8_in(G: GroupTable) -> GroupTable:
    """make_quaternion8's Q8 inside G = make_sl2(3)."""
    i, j = (G.labels.index(classdata._sl2_label(m)) for m in ((0, 1, 2, 0), (1, 1, 1, 2)))
    return _subgroup(G, [i, j])


def _unit_action(m: int, r: int, k: int) -> list[list[int]]:
    """Z_k acting on Z_m by x -> r^h x mod m, a homomorphism when r^k = 1 mod m."""
    return [[pow(r, h, m) * x % m for x in range(m)] for h in range(k)]


def battery_groups() -> list[tuple[str, GroupTable]]:
    """The standard cross-validation battery of small groups."""
    groups: list[tuple[str, GroupTable]] = []
    for n in range(1, 13):
        groups.append((f"Z{n}", make_cyclic(n)))
    Z2 = make_cyclic(2)
    groups.append(("Z2xZ2", make_semidirect_product(Z2, Z2)))
    groups.append(("S3", make_semidirect_product(make_cyclic(3), Z2, _unit_action(3, -1, 2))))
    SL2F3 = make_sl2(3)
    groups.append(("Q8", _quaternion8_in(SL2F3)))
    groups.append(("D4", make_semidirect_product(make_cyclic(4), Z2, _unit_action(4, -1, 2))))
    groups.append(("SL2F3", SL2F3))
    return groups
