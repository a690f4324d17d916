"""Finite groups as dense index tables, with conjugacy structure.

Elements are dense integer indices 0..n-1 and the product is a flat n x n
lookup table. Subgroup closures and conjugacy classes are orbits, found by
one min-label kernel: classes are the orbits of conjugation by a generating
set. Class indices are ordered by smallest member, so every derived quantity
is deterministic across runs and platforms.
"""

from __future__ import annotations

import itertools
import json
from collections import Counter, defaultdict
from collections.abc import Iterator
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import FixtureMismatch, NotAGroup, ParseError, TooLarge

# cap on n*n for the tables built here; 1 << 28 entries is 512 MiB at uint16
TABLE_ENTRY_LIMIT = 1 << 28

# table entries that a pass over rows of a table gathers at a time
_CHUNK_ENTRIES = 1 << 16

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13)


def _index_dtype(n: int) -> type:
    if n <= 0xFF:
        return np.uint8
    if n <= 0xFFFF:
        return np.uint16
    return np.uint32


def _check_table_size(n: int) -> None:
    if n * n > TABLE_ENTRY_LIMIT:
        raise TooLarge(f"a table of order {n} has {n * n} entries, over {TABLE_ENTRY_LIMIT}")


def _row_chunks(count: int, width: int) -> Iterator[slice]:
    """Slices covering rows 0..count-1 of width entries each, in order, each
    of at most _CHUNK_ENTRIES entries but at least one row."""
    step = max(1, _CHUNK_ENTRIES // width)
    return (slice(lo, min(lo + step, count)) for lo in range(0, count, step))


def _freeze(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@dataclass(frozen=True, eq=False)
class GroupTable:
    """A finite group on indices 0..order-1 with full lookup tables."""

    mul_table: np.ndarray  # shape (n, n)
    inv_table: np.ndarray  # shape (n,)
    identity: int
    labels: tuple[str, ...] | None = None

    @property
    def order(self) -> int:
        return self.mul_table.shape[0]

    def mul(self, x: int, y: int) -> int:
        return int(self.mul_table[x, y])

    def inv(self, x: int) -> int:
        return int(self.inv_table[x])

    def pow(self, g: int, k: int) -> int:
        """g**k by repeated squaring; k >= 0."""
        if k < 0:
            raise ValueError(f"exponent must be nonnegative, got {k}")
        acc = self.identity
        base = int(g)
        while k:
            if k & 1:
                acc = int(self.mul_table[acc, base])
            base = int(self.mul_table[base, base])
            k >>= 1
        return acc

    def label(self, x: int) -> str:
        if self.labels is None:
            return str(int(x))
        return self.labels[int(x)]


@dataclass(frozen=True, eq=False)
class ConjugacyData:
    """Partition of a group into conjugacy classes, ordered by class minimum."""

    class_of: np.ndarray  # element index -> class index
    reps: tuple[int, ...]  # smallest member of each class
    sizes: tuple[int, ...]

    @property
    def num_classes(self) -> int:
        return len(self.reps)


def _require_valid_index_table(rows) -> np.ndarray:
    arr = np.asarray(rows)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] == 0:
        raise NotAGroup(f"table must be square and nonempty, got shape {arr.shape}")
    n = arr.shape[0]
    if not np.issubdtype(arr.dtype, np.integer):
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
            left = mul[mul[rows, a]]  # left[i, y] = (x*a)*y for x = rows.start + i
            right = mul[rows, mul[a]]  # right[i, y] = x*(a*y)
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
    if n < 1:
        raise ValueError(f"cyclic group order must be positive, got {n}")
    _check_table_size(n)
    idx = np.arange(n, dtype=_index_dtype(2 * n))  # wide enough for i + j
    mul = np.add.outer(idx, idx)
    np.remainder(mul, n, out=mul)
    dt = _index_dtype(n)
    inv = (-np.arange(n)) % n
    return GroupTable(_freeze(mul.astype(dt, copy=False)), _freeze(inv.astype(dt)), 0)


def sl2_matrices(p: int) -> list[tuple[int, int, int, int]]:
    """All (a, b, c, d) with ad - bc = 1 mod p, in lexicographic order."""
    out = []
    for a, b, c in itertools.product(range(p), repeat=3):
        if a == 0:
            if b == 0:
                continue
            # -bc = 1 fixes c; d is free
            if (-b * c) % p == 1:
                out.extend((a, b, c, d) for d in range(p))
        else:
            d = (1 + b * c) * pow(a, -1, p) % p
            out.append((a, b, c, d))
    # itertools order above is lex on (a, b, c); within a block d ascends or is
    # determined, so the full list is lex on (a, b, c, d) already
    return out


def make_sl2(p: int) -> GroupTable:
    """2x2 determinant-1 matrices over F_p, enumerated lexicographically."""
    if p not in _SMALL_PRIMES:
        raise ValueError(f"p must be a prime <= 13, got {p}")
    mats = sl2_matrices(p)
    n = len(mats)
    assert n == p * (p * p - 1)
    a, b, c, d = np.array(mats, dtype=np.int64).T
    dt = _index_dtype(n)

    def code(a, b, c, d):
        return ((a * p + b) * p + c) * p + d

    index = np.zeros(p**4, dtype=dt)  # matrix code -> element index
    index[code(a, b, c, d)] = np.arange(n)
    mul = np.empty((n, n), dtype=dt)
    for i, (ai, bi, ci, di) in enumerate(mats):
        product = (ai * a + bi * c, ai * b + bi * d, ci * a + di * c, ci * b + di * d)
        mul[i] = index[code(*(x % p for x in product))]
    inv = index[code(d, -b % p, -c % p, a)]
    e = int(index[code(1, 0, 0, 1)])
    labels = tuple(f"[{ai},{bi};{ci},{di}]" for ai, bi, ci, di in mats)
    return GroupTable(_freeze(mul), _freeze(inv), e, labels)


def make_from_cayley(rows, labels: tuple[str, ...] | None = None) -> GroupTable:
    """Build and fully validate a group from an untrusted multiplication table."""
    mul = _require_valid_index_table(rows)
    idx = np.arange(mul.shape[0])
    is_identity = (mul == idx).all(axis=1) & (mul == idx[:, None]).all(axis=0)
    if not is_identity.any():
        raise NotAGroup("no two-sided identity element")
    identity = int(np.argmax(is_identity))
    # first right inverse of each row; validate_group rejects a row without one
    inv = np.argmax(mul == identity, axis=1).astype(mul.dtype)
    G = GroupTable(_freeze(mul), _freeze(inv), identity, labels)
    validate_group(G)
    return G


def make_direct_product(G: GroupTable, H: GroupTable) -> GroupTable:
    """Componentwise product on pairs encoded as i*|H| + j."""
    nG, nH = G.order, H.order
    n = nG * nH
    _check_table_size(n)
    dt = _index_dtype(n)
    q = np.arange(n) // nH
    r = np.arange(n) % nH
    mul = np.empty((n, n), dtype=dt)
    # entry [a, b, c, d] of this view is the product of (a, b) and (c, d)
    np.add(
        (G.mul_table.astype(dt) * nH)[:, None, :, None],
        H.mul_table.astype(dt)[None, :, None, :],
        out=mul.reshape(nG, nH, nG, nH),
    )
    inv = (G.inv_table.astype(np.int64)[q] * nH + H.inv_table.astype(np.int64)[r]).astype(dt)
    e = G.identity * nH + H.identity
    labels = None
    if G.labels is not None and H.labels is not None:
        labels = tuple(f"({G.labels[a]},{H.labels[b]})" for a, b in zip(q.tolist(), r.tolist()))
    return GroupTable(_freeze(mul), _freeze(inv), e, labels)


def make_permutation_group(generators: list[tuple[int, ...]]) -> GroupTable:
    """Close a set of permutations under composition and build the Cayley table.

    Elements are ordered lexicographically as permutation tuples. Raises
    TooLarge as soon as the closure passes the largest order a table admits.
    """
    if not generators:
        raise ValueError("need at least one generator")
    m = len(generators[0])
    ident = tuple(range(m))
    seen = {ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for p in frontier:
            for g in generators:
                q = tuple(g[p[i]] for i in range(m))
                if q not in seen:
                    seen.add(q)
                    _check_table_size(len(seen))
                    nxt.append(q)
        frontier = nxt
    elems = sorted(seen)
    index = {p: i for i, p in enumerate(elems)}
    rows = [
        [index[tuple(a[b[i]] for i in range(m))] for b in elems]
        for a in elems
    ]
    labels = tuple("".join(map(str, p)) if m <= 10 else str(p) for p in elems)
    return make_from_cayley(rows, labels)


def conjugacy_classes(G: GroupTable) -> ConjugacyData:
    """Conjugacy classes as the orbits of conjugation by a generating set and
    its inverses, indexed by smallest representative."""
    mul, inv = G.mul_table, G.inv_table
    moves = []
    for s in generating_set(G):
        moves.append(mul[mul[s], inv[s]])  # x -> s x s^-1
        moves.append(mul[mul[inv[s]], s])  # x -> s^-1 x s
    label = _orbit_labels(moves, G.order)
    roots = label == np.arange(G.order)
    class_of = (np.cumsum(roots, dtype=np.int32) - 1)[label]
    reps = np.flatnonzero(roots).tolist()
    sizes = np.bincount(class_of).tolist()
    return ConjugacyData(_freeze(class_of), tuple(reps), tuple(sizes))


def class_power_map(G: GroupTable, cd: ConjugacyData, k: int) -> tuple[int, ...]:
    """For each class [r], the class of r**k. Well-defined for any k >= 2."""
    if k < 2:
        raise ValueError(f"power map needs k >= 2, got {k}")
    return tuple(int(cd.class_of[G.pow(r, k)]) for r in cd.reps)


def inversion_on_classes(G: GroupTable, cd: ConjugacyData) -> tuple[tuple[int, ...], int]:
    """The involution [x] -> [x^-1] on classes, and its orbit count."""
    perm = tuple(int(cd.class_of[G.inv(r)]) for r in cd.reps)
    orbit_count = sum(1 for c, t in enumerate(perm) if t >= c)
    return perm, orbit_count


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


# -- reference data for SL2(F5) ------------------------------------------------


@dataclass(frozen=True)
class Sl2Fixture:
    """Reference list of all elements of SL2(F_p) with expected class labels."""

    prime: int
    names: tuple[str, ...]
    matrices: tuple[tuple[int, int, int, int], ...]
    class_labels: tuple[str, ...]


@dataclass(frozen=True)
class FixtureReport:
    """Outcome of checking a fixture against the constructed group."""

    mismatches: tuple[str, ...] = field(default=())
    label_class: dict[str, int] = field(default_factory=dict)  # by majority vote

    @property
    def ok(self) -> bool:
        return not self.mismatches


def default_fixture_path() -> Path:
    return Path(__file__).parent / "data" / "sl2f5_elements.json"


def load_sl2_fixture(path: str | Path | None = None) -> Sl2Fixture:
    """Load an element fixture file ({prime, elements:[{name, matrix, class}]})."""
    path = Path(path or default_fixture_path())
    try:
        raw = json.loads(path.read_text())
        p = int(raw["prime"])
        names, mats, labels = [], [], []
        for rec in raw["elements"]:
            (a, b), (c, d) = rec["matrix"]
            names.append(str(rec["name"]))
            mats.append((int(a), int(b), int(c), int(d)))
            labels.append(str(rec["class"]))
    except (OSError, KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"cannot read element fixture {str(path)!r}: {exc!r}") from exc
    return Sl2Fixture(p, tuple(names), tuple(mats), tuple(labels))


def verify_sl2f5_fixture(G: GroupTable, fx: Sl2Fixture) -> FixtureReport:
    """Check the fixture against G = make_sl2(fx.prime).

    Structural failures (wrong cardinality, bad determinants, no bijection
    with the enumerated elements) raise FixtureMismatch. Per-element class
    disagreements are collected in the returned report.
    """
    p = fx.prime
    # |SL2(F_p)| = p (p^2 - 1), checked before any matrix is enumerated
    if G.order != p * (p * p - 1):
        raise FixtureMismatch(f"group order {G.order} != {p * (p * p - 1)}")
    expected = sl2_matrices(p)
    if len(fx.matrices) != len(expected):
        raise FixtureMismatch(
            f"fixture lists {len(fx.matrices)} elements, expected {len(expected)}"
        )
    for name, (a, b, c, d) in zip(fx.names, fx.matrices):
        if (a * d - b * c) % p != 1:
            raise FixtureMismatch(f"{name} has determinant != 1 mod {p}")
    index = {m: i for i, m in enumerate(expected)}
    if set(fx.matrices) != set(index):
        missing = sorted(set(index) - set(fx.matrices))[:3]
        raise FixtureMismatch(f"fixture is not a bijection; e.g. missing {missing}")

    cd = conjugacy_classes(G)
    # pick the label <-> computed-class correspondence by majority vote, then
    # flag the elements that disagree with it
    votes: dict[str, Counter] = defaultdict(Counter)
    for mat, label in zip(fx.matrices, fx.class_labels):
        votes[label][int(cd.class_of[index[mat]])] += 1
    if len(votes) != cd.num_classes:
        raise FixtureMismatch(
            f"fixture names {len(votes)} classes, group has {cd.num_classes}"
        )
    label_class = {label: c.most_common(1)[0][0] for label, c in votes.items()}
    if len(set(label_class.values())) != cd.num_classes:
        raise FixtureMismatch("fixture labels do not separate the computed classes")
    class_label = {v: k for k, v in label_class.items()}
    mismatches = []
    for name, mat, label in zip(fx.names, fx.matrices, fx.class_labels):
        cidx = int(cd.class_of[index[mat]])
        if cidx != label_class[label]:
            mismatches.append(f"{name}: labeled {label}, computed class is {class_label[cidx]}")
    return FixtureReport(tuple(mismatches), label_class)


def fixture_class_order(G: GroupTable, fx: Sl2Fixture) -> dict[str, int]:
    """Map each fixture class label to the computed class index it names."""
    report = verify_sl2f5_fixture(G, fx)
    if not report.ok:
        raise FixtureMismatch("; ".join(report.mismatches))
    return report.label_class


# -- standard test battery -----------------------------------------------------


def make_quaternion8() -> GroupTable:
    """The quaternion group {±1, ±i, ±j, ±k} of order 8."""
    # element = (axis, sign) with axes 1,i,j,k; index = axis*2 + (sign<0)
    prod = {
        (1, 1): (0, -1), (2, 2): (0, -1), (3, 3): (0, -1),
        (1, 2): (3, 1), (2, 1): (3, -1),
        (2, 3): (1, 1), (3, 2): (1, -1),
        (3, 1): (2, 1), (1, 3): (2, -1),
    }

    def axis_mul(x, y):
        if x == 0:
            return y, 1
        if y == 0:
            return x, 1
        return prod[(x, y)]

    names = ["1", "-1", "i", "-i", "j", "-j", "k", "-k"]
    rows = []
    for i in range(8):
        ax, sx = i // 2, -1 if i % 2 else 1
        row = []
        for j in range(8):
            ay, sy = j // 2, -1 if j % 2 else 1
            az, sz = axis_mul(ax, ay)
            s = sx * sy * sz
            row.append(az * 2 + (1 if s < 0 else 0))
        rows.append(row)
    return make_from_cayley(rows, tuple(names))


def battery_groups() -> list[tuple[str, GroupTable]]:
    """The standard cross-validation battery of small groups."""
    groups: list[tuple[str, GroupTable]] = []
    for n in range(1, 13):
        groups.append((f"Z{n}", make_cyclic(n)))
    groups.append(("Z2xZ2", make_direct_product(make_cyclic(2), make_cyclic(2))))
    groups.append(("S3", make_permutation_group([(1, 0, 2), (1, 2, 0)])))
    groups.append(("Q8", make_quaternion8()))
    groups.append(("D4", make_permutation_group([(1, 2, 3, 0), (3, 2, 1, 0)])))
    groups.append(("SL2F3", make_sl2(3)))
    return groups
