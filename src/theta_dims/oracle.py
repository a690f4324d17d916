"""Independent brute-force verifiers for the invariant dimensions.

Two routes that share nothing with the character computations:

* orbit counting for the cubic powers of the group algebra, on the quotient
  by right multiplication: right multiplication acts freely and commutes with
  left multiplication and with permuting the three tensor positions, so the
  monomial orbits are the components of a graph on the n^2 triples (e, a, b),
  counted on its sign double cover (a wedge orbit dies when some stabilizer
  element acts by -1);
* the exact group-average projector on explicit action matrices, whose
  rank is the invariant dimension.

The projector builds on one vectorized monomial kernel, which `lens` shares:
`_monomials` enumerates the basis, `_sort_sign` sorts index triples and gives
their wedge sign, and `_rank` gives their combinadic rank, which is the basis
position.

The projector is exact integer arithmetic throughout. `_action_matrix` lifts a
sum of basis permutations to one int64 matrix through a single scatter;
`_reynolds_sum` passes it arrays of the group table itself: the identity with
the inversion table, the rows of the multiplication table and its columns.
`_exact_matmul` multiplies int64 matrices through float64 BLAS, which is exact
while `d * max|a| * max|b| < 2^53`: every partial sum is then an integer that
float64 represents exactly, in any summation order. A missed bound raises
`ExactnessViolation` instead of rounding. The summed action is |Gamma| times
the projector, Gamma the symmetry group; once it is checked exactly to square
to |Gamma| times itself, the projector's rank is its trace, so no elimination
runs on the d x d matrix.
`reynolds` refuses a cube basis of more than `limits.REYNOLDS_DIM_LIMIT` monomials,
which admits every group of order <= 24.
"""

from __future__ import annotations

import itertools
import math

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


def check_order_guard(method: str, n: int, module: str, parity: str) -> None:
    """Raise TooLarge when method, "orbit" or "reynolds", refuses a group of
    order n: orbit from its node count, n^2 or 2n^2 for the wedge's two sheets,
    reynolds from the dimension of its matrices, the monomial count of the
    cube of the module."""
    if method == "orbit":
        count, limit, what = n * n * (2 if parity == EVEN else 1), limits.ORBIT_NODE_LIMIT, "nodes"
    else:
        k = n if module == GROUP_ALGEBRA else n - 1
        count = math.comb(k, 3) if parity == EVEN else math.comb(k + 2, 3)
        limit, what = limits.REYNOLDS_DIM_LIMIT, "monomials"
    if count > limit:
        raise TooLarge(f"{count} {what} exceed the {method} guard {limit}")


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
    check_order_guard("orbit", n, GROUP_ALGEBRA, parity)
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


# -- explicit matrices and the averaged projector --------------------------------


def _cube_basis(G: GroupTable, module: str, parity: str) -> np.ndarray:
    """Monomial basis of the cubic power of the module, in rank order."""
    _check_choice(module, MODULES, "module")
    _check_choice(parity, PARITIES, "parity")
    check_order_guard("reynolds", G.order, module, parity)
    return _monomials(G.order if module == GROUP_ALGEBRA else G.order - 1, parity)


def _action_matrix(G: GroupTable, perms, module: str, parity: str, basis):
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
    images, sign = _sort_sign(terms, parity)
    values = values * sign
    keep = values != 0
    columns = np.broadcast_to(np.arange(m), values.shape)
    matrix = np.zeros((m, m), dtype=np.int64)
    np.add.at(matrix, (_rank(images[keep], parity), columns[keep]), values[keep])
    return matrix


def _max_abs(a: np.ndarray) -> int:
    return int(np.abs(a).max(initial=0))


def _exact_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The int64 product a @ b, computed in float64 so that it runs in BLAS.

    Every product of entries and every partial sum is bounded in magnitude by
    d * max|a| * max|b|; below 2^53 each is an integer that float64 holds
    exactly, whatever order or fused multiply-add the BLAS uses."""
    _check_exact(a.shape[1] * _max_abs(a) * _max_abs(b), _FLOAT64_EXACT_LIMIT, "float64 product")
    product = a.astype(np.float64)  # a's copy is freed by the rebinding, before the cast
    product = product @ (product if b is a else b.astype(np.float64))
    return product.astype(np.int64)


def _reynolds_sum(G: GroupTable, module: str, parity: str) -> np.ndarray:
    """Sum of the action matrices of all 2n^2 symmetry elements: untwisted (g, h),
    x -> g x h^-1, is L_g after R_h, and twisted (g, h) is T after it, so the
    sum is (I + T)(sum_g L_g)(sum_h R_h) with L_g: x -> g x, R_h: x -> x h^-1,
    T: x -> x^-1 and I the identity. Each sum is lifted from the table's own
    arrays: I and T are arange(n) and the inversion table, row g of the
    multiplication table is L_g, and row h of its transpose, x -> x h, is
    R_{h^-1}, which gives the same sum over h."""
    basis = _cube_basis(G, module, parity)
    mul = G.mul_table

    def lift(perms) -> np.ndarray:
        return _action_matrix(G, perms, module, parity, basis)

    # each sum is lifted when it is used: I + T and sum_g L_g are freed before sum_h R_h
    product = lift([np.arange(G.order), G.inv_table])
    product = _exact_matmul(product, lift(mul))
    return _exact_matmul(product, lift(mul.T))


def dim_invariants_reynolds(G: GroupTable, module: str, parity: str) -> int:
    """Invariant dimension as the rank of the group-average projector.

    The integer sum `acc` of the action matrices over the doubled-and-swapped
    group Gamma is the projector scaled by |Gamma|. It is formed as
    (I + T)(sum_g L_g)(sum_h R_h) from three lifted sums: L_g = (g, e),
    R_h = (e, h), T = tau*(e, e). After the exact check acc^2 == |Gamma| acc,
    acc / |Gamma| is an idempotent over Q, and the rank of an idempotent is its
    trace: the dimension is trace(acc) / |Gamma|. A failed check raises
    ProjectorNotIdempotent; a product outside the int64 or float64 bounds
    raises ExactnessViolation.
    """
    acc = _reynolds_sum(G, module, parity)
    group_size = 2 * G.order**2
    _check_exact(group_size * _max_abs(acc), _INT64_LIMIT, "int64 scaled projector")
    if not np.array_equal(_exact_matmul(acc, acc), group_size * acc):
        raise ProjectorNotIdempotent(
            f"averaged action is not a projector (module={module}, parity={parity})"
        )
    return int(np.trace(acc)) // group_size
