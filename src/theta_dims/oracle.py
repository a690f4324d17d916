"""Independent brute-force verifiers for the invariant dimensions.

Two routes that share nothing with the character computations:

* orbit counting for the cubic powers of the group algebra, on the quotient
  by right multiplication: right multiplication acts freely and commutes with
  left multiplication and with permuting the three tensor positions, so the
  monomial orbits are the components of a graph on the n^2 triples (e, a, b),
  counted on its sign double cover (a wedge orbit dies when some stabilizer
  element acts by -1);
* the exact group-average projector, whose rank is the invariant dimension,
  taken in stages: right multiplication R lies in the symmetry group Gamma,
  so the projector onto W^Gamma maps the R-invariant part W^R into itself,
  and there it is the average over left multiplication and the inversion
  alone. W^R has a basis of R-orbit sums of monomials, about n^2/6 of them
  for the cube (`_orbit_sums`); the average is a scatter and a signed row
  gather on that basis (`_staged_sum`).

The augmentation kernel V0 is reached through the group algebra V. As
Gamma-modules V = V0 + Q (the span of the sum of all elements), and
V0^Gamma = 0 since G x G is transitive on the basis, under either symmetry.
So S^3 V = S^3 V0 + S^2 V0 + V0 + Q and S^2 V = S^2 V0 + V0 + Q, while
Λ^3 V = Λ^3 V0 + Λ^2 V0 and Λ^2 V = Λ^2 V0 + V0. Hence
dim S^3 V0^Gamma = dim S^3 V^Gamma - dim S^2 V^Gamma and
dim Λ^3 V0^Gamma = dim Λ^3 V^Gamma - dim Λ^2 V^Gamma: the kernel's cube
has the invariants of the group algebra's cube less those of its square.

`lens` shares the monomial kernel: `_monomials` enumerates the cube basis
and `_sort_sign` sorts index tuples and gives their wedge sign.

The projector is exact integer arithmetic throughout. `_exact_matmul`
multiplies int64 matrices through float64 BLAS, which is exact while
`d * max|a| * max|b| < 2^53`: every partial sum is then an integer that
float64 represents exactly, in any summation order. A missed bound raises
`ExactnessViolation` instead of rounding. Once the scaled average is checked
exactly to square to its scale times itself, the projector's rank is its
trace, so no elimination runs on the d x d matrix. `reynolds` refuses a group
whose cube may have more than `limits.REYNOLDS_DIM_LIMIT` orbit sums, which
admits every group of order <= 122.
"""

from __future__ import annotations

import itertools

from . import limits
from ._lazy import np
from .errors import ExactnessViolation, ProjectorNotIdempotent, TooLarge
from .groups import GroupTable, _orbit_labels, generating_set
from .perm import EVEN, FULL, GROUP_ALGEBRA, MODULES, PARITIES, SYMMETRIES, _check_choice

_INT64_LIMIT = (1 << 63) - 1
# float64 holds every integer of magnitude below 2^53 exactly
_FLOAT64_EXACT_LIMIT = 1 << 53


def _check_exact(bound: int, limit: int, what: str) -> None:
    if bound >= limit:
        raise ExactnessViolation(f"{what}: bound {bound} is not below {limit}")


def check_order_guard(method: str, n: int, parity: str) -> None:
    """Raise TooLarge when method, "orbit" or "reynolds", refuses a group of
    order n: orbit from its node count, n^2 or 2n^2 for the wedge's two sheets,
    reynolds from the dimension of its matrices, the orbit sums of
    `_orbit_sums`. By Burnside's lemma the odd cube has (C(n+2, 3) + N3 n/3)/n
    of them and the even one (C(n, 3) + N3 n/3)/n, N3 the number of elements
    of order 3, and the squares about n/2; with N3 < n, every one is at most
    C(n+2, 3)/n + n/3 = (n^2 + 5n + 2)/6, whatever the module and parity."""
    if method == "orbit":
        count, limit, what = n * n * (2 if parity == EVEN else 1), limits.ORBIT_NODE_LIMIT, "nodes"
    else:
        count, limit, what = (n * n + 5 * n + 2) // 6, limits.REYNOLDS_DIM_LIMIT, "orbit sums"
    if count > limit:
        raise TooLarge(f"{count} {what} exceed the {method} guard {limit}")


def _monomials(n: int, parity: str) -> np.ndarray:
    """Basis of the alternating ("even") or symmetric ("odd") cube on n points:
    sorted index triples (x, y, z) as an (m, 3) int64 array, listed in
    colexicographic order: by z, then y, then x."""
    k = n if parity == EVEN else n + 2
    z, y = np.tril_indices(k, -1)  # pairs y < z, ordered by z, then y
    x = np.arange(int(y.sum())) - np.repeat(np.cumsum(y) - y, y)
    triples = np.stack([x, np.repeat(y, y), np.repeat(z, y)], axis=1)
    # the strict triple (x, y + 1, z + 2) on n + 2 points is the multiset x <= y <= z
    return triples if parity == EVEN else triples - np.arange(3)


def _sort_sign(tuples: np.ndarray, parity: str) -> tuple[np.ndarray, np.ndarray]:
    """Index tuples (along the last axis) sorted, with the sign each carries as
    a monomial: for the wedge the sign of the sort, or 0 where an index repeats;
    1 for the symmetric power."""
    s = np.sort(tuples, axis=-1)
    if parity != EVEN:
        return s, np.broadcast_to(np.int64(1), s.shape[:-1])
    inversions = sum(
        (tuples[..., i] > tuples[..., j]).astype(np.int64)
        for i, j in itertools.combinations(range(tuples.shape[-1]), 2)
    )
    sign = 1 - 2 * (inversions & 1)
    sign *= (s[..., 1:] != s[..., :-1]).all(axis=-1)
    return s, sign


def dim_invariants_orbit(G: GroupTable, parity: str, symmetry: str = FULL) -> int:
    """Invariant dimension of the cubic power of the group algebra by orbit
    counting on the quotient by right multiplication, using only the
    symmetries made from the greedy generating set of G (`generating_set`).

    Monomial orbits are the orbits on ordered triples (x, y, z) of the
    symmetries and of S3 permuting the positions, which on the wedge acts with
    its sign. Right multiplication R acts freely and commutes with S3 and with
    left multiplication L, so each triple is R-equivalent to exactly one
    (e, a, b): node a*n + b, plus n^2 on the wedge's negated sheet. Moves:

    * swap (a, b) -> (b, a), sign -1;
    * rotation (a, b) -> (b a^-1, a^-1), the shift (e, a, b) -> (a, b, e)
      then R by a^-1, sign +1; with the swap it gives all of S3;
    * conjugation by each generator g, (a, b) -> (g a g^-1, g b g^-1): L_g
      then R by g^-1, sign +1;
    * inversion (a, b) -> (a^-1, b^-1) for the full symmetry, sign +1.

    Inversion i does not commute with R, so its move maps the representative
    alone. That is enough: i(t r) = L_{r^-1}(i t), so the image of any other
    member t r of the node is in the L-orbit of the representative's image,
    which the conjugation moves join to it. So the components are the symmetry
    orbits on monomials. A wedge orbit whose two sheets meet dies, since some
    stabilizer element acts on it by -1 (a repeated index dies through the
    swap); every other orbit covers two components.
    """
    _check_choice(parity, PARITIES, "parity")
    _check_choice(symmetry, SYMMETRIES, "symmetry")
    n = G.order
    check_order_guard("orbit", n, parity)
    wedge, m = parity == EVEN, n * n
    mul, inv = G.mul_table, G.inv_table
    a = np.arange(n, dtype=np.int32)[:, None]
    b = a.T

    def move(x, y, sign: int = 1) -> np.ndarray:
        # (a, b) -> (x, y) on each sheet; ids fit int32, as limits.ORBIT_NODE_LIMIT does
        target = (np.asarray(x, dtype=np.int32) * n + y).ravel()
        if not wedge:
            return target
        return np.concatenate([target + m, target] if sign < 0 else [target, target + m])

    moves = [move(b, a, -1), move(mul[b, inv[a]], inv[a])]
    for g in generating_set(G):
        c = mul[mul[g], inv[g]]
        moves.append(move(c[a], c[b]))
    if symmetry == FULL:
        moves.append(move(inv[a], inv[b]))

    label = _orbit_labels(moves, len(moves[0]))
    roots = label == np.arange(len(label))
    if not wedge:
        return int(np.count_nonzero(roots))
    killed = np.count_nonzero(roots[:m] & (label[:m] == label[m:]))
    return int(np.count_nonzero(roots) - killed) // 2


# -- the staged group average on the R-invariant part ------------------------------


def _digits(n: int, length: int) -> np.ndarray:
    """The place values of base-n codes of index tuples of the given length,
    most significant first: tuples @ _digits(n, length) is their code."""
    return n ** np.arange(length - 1, -1, -1, dtype=np.int64)


def _orbit_sums(G: GroupTable, degree: int, parity: str):
    """The basis of W^R of R-orbit sums of monomials, W the alternating
    ("even") or symmetric ("odd") power of the group algebra of the given
    degree k and R right multiplication, read off the ordered monomials
    (e, a_1, ..., a_{k-1}) that start with the identity e.

    Returns (reps, orbit, sign). reps is a (d, k - 1) array: the tuple a of
    one such monomial per orbit sum. orbit and sign are indexed by the base-n
    code of any tuple a: the orbit sum the monomial (e, a) lies in, and the
    coefficient of that orbit sum on it. sign is 0 where the monomial
    vanishes or its orbit sum does: a wedge orbit that an element of its
    stabilizer negates.

    The turn (x_1, ..., x_k) -> (x_2, ..., x_k, x_1), followed by R by x_2^-1,
    maps a monomial that starts with e to another in its R-orbit, with the
    sign of a k-cycle on the wedge; the k turns reach every member of the
    orbit that contains e, so no table of all monomials is built. An orbit sum
    has coefficient 1 on its sorted member of least code, and it is 0 when
    two turns reach that member with opposite signs.
    """
    n, e = G.order, G.identity
    mul, inv = G.mul_table, G.inv_table
    codes = np.arange(n ** (degree - 1))
    rest = codes[:, None] // _digits(n, degree - 1) % n
    turned = [np.full(len(codes), e, dtype=np.int64), *rest.T]
    turns = []
    for _ in range(degree):
        turns.append(np.stack(turned, axis=-1))
        shift = inv[turned[1]]
        turned = [mul[x, shift] for x in turned[1:] + turned[:1]]
    s, signs = _sort_sign(np.stack(turns), parity)
    if parity == EVEN and degree % 2 == 0:
        signs = signs * (-1) ** np.arange(degree)[:, None]
    keys = s.astype(np.int64) @ _digits(n, degree)
    least = keys.min(axis=0)
    sign = signs[keys.argmin(axis=0), codes]
    sign[((keys == least) & (signs != sign)).any(axis=0)] = 0
    live = sign != 0
    _, first, index = np.unique(least[live], return_index=True, return_inverse=True)
    orbit = np.zeros(len(codes), dtype=np.int64)
    orbit[live] = index
    return rest[live][first], orbit, sign


def _staged_sum(G: GroupTable, degree: int, parity: str, symmetry: str) -> tuple[np.ndarray, int]:
    """(acc, scale): the group average over the symmetries on W^R, as in
    `_orbit_sums`, scaled by `scale` to the integer matrix acc on its basis.

    On W^R the sum over h of R_h is n times the identity, so the sum over the
    n^2 pairs (g, h), x -> g x h^-1, is n M with M the sum over g of L_g,
    x -> g x: acc = M and scale = n. The full symmetry adds T, x -> x^-1,
    after each: acc = M + T M and scale = 2n.

    L_g commutes with R, so it maps the orbit sum of (e, a) to the signed one
    of (g, g a) = R_g (e, g a g^-1): M is a scatter of n signed entries per
    column. T maps W^R to the L-invariant part, and the columns of M lie in
    the part invariant under both, on which T is read coordinate-wise: the
    coordinate of T v at the orbit sum of (e, a) is the signed coordinate of
    v at that of (e, a^-1). So T M is a signed gather of the rows of M.
    """
    n = G.order
    mul, inv = G.mul_table, G.inv_table
    reps, orbit, sign = _orbit_sums(G, degree, parity)
    digits = _digits(n, degree - 1)
    rep_sign = sign[reps @ digits]
    g = np.arange(n)[:, None, None]
    conjugated = mul[mul[g, reps], inv[g]].astype(np.int64) @ digits  # (g, orbit sum)
    acc = np.zeros((len(reps),) * 2, dtype=np.int64)
    np.add.at(acc, (orbit[conjugated], np.arange(len(reps))), sign[conjugated] * rep_sign)
    if symmetry != FULL:
        return acc, n
    mirrored = inv[reps].astype(np.int64) @ digits
    gathered = acc[orbit[mirrored]]
    gathered *= (sign[mirrored] * rep_sign)[:, None]
    acc += gathered
    return acc, 2 * n


def _max_abs(a: np.ndarray) -> int:
    return max(int(a.max(initial=0)), -int(a.min(initial=0)))


def _exact_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The int64 product a @ b, computed in float64 so that it runs in BLAS.

    Every product of entries and every partial sum is bounded in magnitude by
    d * max|a| * max|b|; below 2^53 each is an integer that float64 holds
    exactly, whatever order or fused multiply-add the BLAS uses."""
    top = _max_abs(a)
    bound = a.shape[1] * top * (top if b is a else _max_abs(b))
    _check_exact(bound, _FLOAT64_EXACT_LIMIT, "float64 product")
    product = a.astype(np.float64)  # a's copy is freed by the rebinding, before the cast
    product = product @ (product if b is a else b.astype(np.float64))
    return product.astype(np.int64)


def _staged_dimension(G: GroupTable, degree: int, parity: str, symmetry: str) -> int:
    """dim W^Gamma for the power W of the group algebra of `_orbit_sums`, as
    the trace of the exactly checked projector acc / scale of `_staged_sum`.

    Gamma contains R, so its projector P maps W^R into W^Gamma, which lies in
    W^R: restricted to W^R, P is an idempotent of rank dim W^Gamma, and over
    Q the rank of an idempotent is its trace. A failed check acc^2 == scale
    acc raises ProjectorNotIdempotent; a product outside the int64 or float64
    bounds raises ExactnessViolation."""
    acc, scale = _staged_sum(G, degree, parity, symmetry)
    _check_exact(scale * _max_abs(acc), _INT64_LIMIT, "int64 scaled projector")
    if not np.array_equal(_exact_matmul(acc, acc), scale * acc):
        raise ProjectorNotIdempotent(
            f"averaged action is not a projector "
            f"(degree={degree}, parity={parity}, symmetry={symmetry})"
        )
    return int(np.trace(acc)) // scale


def dim_invariants_reynolds(G: GroupTable, module: str, parity: str, symmetry: str = FULL) -> int:
    """Invariant dimension of the cubic power of the module as the trace of
    the group-average projector on the R-invariant part (`_staged_dimension`).

    The augmentation kernel's is the cube's less the square's, both of the
    group algebra, by the identity in the module docstring."""
    _check_choice(module, MODULES, "module")
    _check_choice(parity, PARITIES, "parity")
    _check_choice(symmetry, SYMMETRIES, "symmetry")
    check_order_guard("reynolds", G.order, parity)
    dim = _staged_dimension(G, 3, parity, symmetry)
    if module == GROUP_ALGEBRA:
        return dim
    return dim - _staged_dimension(G, 2, parity, symmetry)
