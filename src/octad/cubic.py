"""Cubic norm structures and their Jordan algebra calculus.

A structure is stored by its base point, the adjoints of basis vectors,
the bilinearized adjoints of basis pairs, and the coefficients of the
norm on basis multisets:

  N(sum x_i e_i) = sum x_i^3 N(e_i) + sum_{i != j} x_i^2 x_j N(e_i; e_j)
                 + sum_{i<j<l} x_i x_j x_l N(e_i, e_j, e_l).

Traces are always derived, never stored: T(y) = N(1; y), S(x) = T(x#),
T(x, y) = T(x)T(y) - T(x x y), U_x y = T(x, y) x - x# x y.  Directional
norm coefficients come from the dual-number trick.
"""

from __future__ import annotations

import json
import random

from .extensions import DualExt, lift_vec
from .identities import (
    CostGuardError,
    DEFAULT_SEED,
    IdentitySpec,
    Verdict,
    multiset_count,
    sampled_identity_check,
    strict_identity_check,
)
from .linalg import (
    ModuleElement,
    add_term,
    add_vec,
    basis,
    mat_mul,
    scale_vec,
    signed_sparse,
    sub_vec,
    vec_eq,
    vec_is_zero,
)
from .scalars import QQ, ZZ, PrimeField

NOT_INVERTIBLE = "NotInvertible"

_GENERIC_STRICT_GUARD = 3000  # multisets; above this the generic path samples


class CubicData:
    def __init__(self, ring, dim, basepoint, sharp_basis, cross_pairs, n_single, n_dir, n_triple, name="cubic"):
        self.ring = ring
        self.dim = dim
        self.basepoint = list(basepoint)
        self.sharp_basis = [list(v) for v in sharp_basis]
        self.cross_pairs = {k: list(v) for k, v in cross_pairs.items()}
        self.n_single = list(n_single)
        self.n_dir = dict(n_dir)
        self.n_triple = dict(n_triple)
        self.name = name
        self._sharp_sparse = [signed_sparse(ring, v) for v in self.sharp_basis]
        # only the pairs whose cross product e_i x e_j is nonzero
        self._cross_sparse = {}
        for key, v in self.cross_pairs.items():
            entries = signed_sparse(ring, v)
            if entries:
                self._cross_sparse[key] = entries
        self.tvec = [self.norm_dir_payload(self.basepoint, basis(ring, dim, i)) for i in range(dim)]
        self._consistency()

    def _consistency(self):
        R = self.ring
        if not R.eq(self.norm_payload(self.basepoint), R.one):
            raise ValueError(f"{self.name}: N(1) != 1")
        if not vec_eq(R, self.sharp_vec(self.basepoint), self.basepoint):
            raise ValueError(f"{self.name}: 1# != 1")
        for i in range(self.dim):
            for j in range(self.dim):
                if i == j:
                    ei = basis(R, self.dim, i)
                    lhs = self.norm_dir_payload(ei, ei)
                else:
                    lhs = self.n_dir.get((i, j), R.zero)
                rhs = self.trace_bilin_basis(self.sharp_basis[i], j)
                if not R.eq(lhs, rhs):
                    raise ValueError(
                        f"{self.name}: stored N(e_{i}; e_{j}) disagrees with T(e_{i}#, e_{j})"
                    )

    # -- scalar-valued maps -----------------------------------------------------
    def norm_payload(self, x, L=None):
        R = L if L is not None else self.ring
        lift = R.from_base
        acc = R.zero
        nz = [i for i in range(self.dim) if not R.is_zero(x[i])]
        for i in nz:
            xi = x[i]
            sq = R.mul(xi, xi)
            acc = R.add(acc, R.mul(R.mul(sq, xi), lift(self.n_single[i])))
            for j in nz:
                if j == i:
                    continue
                c = self.n_dir.get((i, j))
                if c is not None:
                    acc = R.add(acc, R.mul(R.mul(sq, x[j]), lift(c)))
        for a in range(len(nz)):
            for b in range(a + 1, len(nz)):
                for c_ in range(b + 1, len(nz)):
                    i, j, l = nz[a], nz[b], nz[c_]
                    t = self.n_triple.get((i, j, l))
                    if t is not None:
                        acc = R.add(acc, R.mul(R.mul(R.mul(x[i], x[j]), x[l]), lift(t)))
        return acc

    def norm_dir_payload(self, x, y, L=None):
        """N(x; y): the eps-part of N(x + eps y), exact in every characteristic."""
        R = L if L is not None else self.ring
        D = DualExt(R)
        return self.norm_payload(list(zip(x, y)), D)[1]

    def trace_lin(self, x, L=None):
        R = L if L is not None else self.ring
        lift = R.from_base
        acc = R.zero
        for i in range(self.dim):
            if not R.is_zero(x[i]):
                acc = R.add(acc, R.mul(x[i], lift(self.tvec[i])))
        return acc

    def trace_bilin_basis(self, x, j):
        """T(x, e_j) over the plain ring (used for consistency checks)."""
        R = self.ring
        ej = basis(R, self.dim, j)
        return self.trace_bilin(x, ej)

    def trace_bilin(self, x, y, L=None):
        R = L if L is not None else self.ring
        tx = self.trace_lin(x, L)
        ty = self.trace_lin(y, L)
        return R.sub(R.mul(tx, ty), self.trace_lin(self.cross_vec(x, y, L), L))

    def squad(self, x, L=None):
        return self.trace_lin(self.sharp_vec(x, L), L)

    # -- vector-valued maps ---------------------------------------------------------
    def sharp_vec(self, x, L=None):
        R = L if L is not None else self.ring
        out = [R.zero] * self.dim
        nz = [i for i in range(self.dim) if not R.is_zero(x[i])]
        for i in nz:
            c = R.mul(x[i], x[i])
            for k, t, sign in self._sharp_sparse[i]:
                out[k] = add_term(R, out[k], c, t, sign)
        for a in range(len(nz)):
            for b in range(a + 1, len(nz)):
                i, j = nz[a], nz[b]
                entries = self._cross_sparse.get((i, j))
                if entries:
                    c = R.mul(x[i], x[j])
                    for k, t, sign in entries:
                        out[k] = add_term(R, out[k], c, t, sign)
        return out

    def cross_vec(self, x, y, L=None):
        R = L if L is not None else self.ring
        out = [R.zero] * self.dim
        zx = [R.is_zero(c) for c in x]
        zy = [R.is_zero(c) for c in y]
        for i in range(self.dim):
            if not (zx[i] or zy[i]):
                c = R.mul(x[i], y[i])
                c = R.add(c, c)
                for k, t, sign in self._sharp_sparse[i]:
                    out[k] = add_term(R, out[k], c, t, sign)
        for (i, j), entries in self._cross_sparse.items():
            # x_i y_j + x_j y_i vanishes when both products have a zero factor
            if (zx[i] or zy[j]) and (zx[j] or zy[i]):
                continue
            c = R.add(R.mul(x[i], y[j]), R.mul(x[j], y[i]))
            if R.is_zero(c):
                continue
            for k, t, sign in entries:
                out[k] = add_term(R, out[k], c, t, sign)
        return out

    def u_op_vec(self, x, y, L=None):
        R = L if L is not None else self.ring
        t = self.trace_bilin(x, y, L)
        cx = self.cross_vec(self.sharp_vec(x, L), y, L)
        return sub_vec(R, scale_vec(R, t, x), cx)

    def triple_vec(self, x, y, z, L=None):
        """{x y z} = U_{x,z} y = T(x,y) z + T(z,y) x - (x x z) x y."""
        R = L if L is not None else self.ring
        txy = self.trace_bilin(x, y, L)
        tzy = self.trace_bilin(z, y, L)
        out = [R.add(R.mul(txy, c), R.mul(tzy, d)) for c, d in zip(z, x)]
        cr = self.cross_vec(self.cross_vec(x, z, L), y, L)
        return sub_vec(R, out, cr)

    # -- element API -------------------------------------------------------------
    def element(self, coords):
        coords = list(coords)
        if len(coords) != self.dim:
            raise ValueError(f"expected {self.dim} coordinates, got {len(coords)}")
        return CubicElement(self, [self.ring.coerce(c) for c in coords])

    def basis_element(self, i):
        return CubicElement(self, basis(self.ring, self.dim, i))

    def one(self):
        return CubicElement(self, list(self.basepoint))

    def zero(self):
        return CubicElement(self, [self.ring.zero] * self.dim)

    def norm(self, x):
        return self.ring.scalar(self.norm_payload(x.coords))

    def sharp(self, x):
        return CubicElement(self, self.sharp_vec(x.coords))

    def cross(self, x, y):
        return CubicElement(self, self.cross_vec(x.coords, y.coords))

    def trace(self, x):
        return self.ring.scalar(self.trace_lin(x.coords))

    def trace_pair(self, x, y):
        return self.ring.scalar(self.trace_bilin(x.coords, y.coords))

    def strace(self, x):
        return self.ring.scalar(self.squad(x.coords))

    def u_op(self, x, y):
        return CubicElement(self, self.u_op_vec(x.coords, y.coords))

    def triple(self, x, y, z):
        return CubicElement(self, self.triple_vec(x.coords, y.coords, z.coords))

    def power(self, x, n):
        """x^0 = 1, x^1 = x, x^n = U_x x^{n-2} (quadratic Jordan powers)."""
        if n == 0:
            return self.one()
        if n == 1:
            return x
        return self.u_op(x, self.power(x, n - 2))

    def try_inverse(self, x):
        R = self.ring
        n = self.norm_payload(x.coords)
        ninv = R.inv(n)
        if ninv is None:
            return NOT_INVERTIBLE
        return CubicElement(self, [R.mul(ninv, c) for c in self.sharp_vec(x.coords)])

    def rank(self, x):
        if not self.ring.is_field:
            raise ValueError("rank needs a field base ring")
        R = self.ring
        if vec_is_zero(R, x.coords):
            return 0
        if vec_is_zero(R, self.sharp_vec(x.coords)):
            return 1
        if R.is_zero(self.norm_payload(x.coords)):
            return 2
        return 3

    # -- idempotents --------------------------------------------------------------
    def is_idempotent(self, e):
        sq = self.u_op_vec(e.coords, self.basepoint)
        return vec_eq(self.ring, sq, e.coords)

    def idem_class(self, e):
        R = self.ring
        if not R.is_connected:
            raise ValueError("classification requires a connected base ring")
        if not self.is_idempotent(e):
            return "NotIdempotent"
        if vec_is_zero(R, e.coords):
            return "Zero"
        t = self.trace_lin(e.coords)
        s = self.squad(e.coords)
        n = self.norm_payload(e.coords)
        if R.eq(n, R.one):
            return "Unit"
        if R.eq(t, R.one) and R.is_zero(s):
            return "Elementary"
        if R.eq(t, R.from_int(2)) and R.eq(s, R.one):
            return "CoElementary"
        raise AssertionError("impossible idempotent class over a connected ring")

    def idempotent_split(self, e):
        """The scalar quadruple tracking the local rank of an idempotent.

        Returns (rank0, rank1, rank2, rank3) with rank3 = N(e),
        rank2 = S(e) - 3N(e), rank1 = T(e) - 2S(e) + 3N(e) and rank0 the
        complement; verified to be a complete orthogonal system.
        """
        R = self.ring
        if not self.is_idempotent(e):
            raise ValueError("input is not an idempotent")
        t = self.trace_lin(e.coords)
        s = self.squad(e.coords)
        n = self.norm_payload(e.coords)
        three_n = R.mul(R.from_int(3), n)
        r3 = n
        r2 = R.sub(s, three_n)
        r1 = R.add(R.sub(t, R.add(s, s)), three_n)
        r0 = R.sub(R.one, R.add(R.add(r1, r2), r3))
        quad = (r0, r1, r2, r3)
        for i, a in enumerate(quad):
            if not R.eq(R.mul(a, a), a):
                raise AssertionError(f"split component {i} is not idempotent")
            for b in quad[i + 1 :]:
                if not R.is_zero(R.mul(a, b)):
                    raise AssertionError("split components are not orthogonal")
        if not R.eq(R.sum(quad), R.one):
            raise AssertionError("split components do not sum to 1")
        return tuple(R.scalar(a) for a in quad)

    def peirce(self, e):
        """Projection matrices (E2, E1, E0) = (U_e, complement, U_{1-e})."""
        R = self.ring
        if not self.is_idempotent(e):
            raise ValueError("input is not an idempotent")
        n = self.dim
        f = sub_vec(R, self.basepoint, e.coords)
        cols2 = [self.u_op_vec(e.coords, basis(R, n, j)) for j in range(n)]
        cols0 = [self.u_op_vec(f, basis(R, n, j)) for j in range(n)]
        E2 = [[cols2[j][i] for j in range(n)] for i in range(n)]
        E0 = [[cols0[j][i] for j in range(n)] for i in range(n)]
        E1 = [
            [
                R.sub(R.sub(R.one if i == j else R.zero, E2[i][j]), E0[i][j])
                for j in range(n)
            ]
            for i in range(n)
        ]
        # verify idempotence, orthogonality and completeness
        def check(A, B, expect_eq):
            prod = mat_mul(R, A, B)
            target = A if expect_eq else None
            for i in range(n):
                for j in range(n):
                    want = target[i][j] if target is not None else R.zero
                    if not R.eq(prod[i][j], want):
                        raise AssertionError("Peirce projections are inconsistent")

        check(E2, E2, True)
        check(E0, E0, True)
        check(E1, E1, True)
        check(E2, E0, False)
        check(E0, E2, False)
        check(E2, E1, False)
        check(E1, E2, False)
        check(E0, E1, False)
        check(E1, E0, False)
        return E2, E1, E0

    def random_element(self, rng):
        return CubicElement(self, [self.ring.rand(rng) for _ in range(self.dim)])

    # -- serialization ---------------------------------------------------------------
    def to_json(self):
        R = self.ring
        return json.dumps(
            {
                "dim": self.dim,
                "basepoint": [R.render(c) for c in self.basepoint],
                "sharp_basis": [[R.render(c) for c in v] for v in self.sharp_basis],
                "cross_pairs": {
                    f"{i},{j}": [R.render(c) for c in v]
                    for (i, j), v in sorted(self.cross_pairs.items())
                },
                "norm_single": [R.render(c) for c in self.n_single],
                "norm_dir": {f"{i},{j}": R.render(c) for (i, j), c in sorted(self.n_dir.items())},
                "norm_triple": {
                    f"{i},{j},{l}": R.render(c) for (i, j, l), c in sorted(self.n_triple.items())
                },
            },
            sort_keys=True,
        )

    @staticmethod
    def from_json(ring, text, name="cubic"):
        blob = json.loads(text)
        parse = ring.parse
        dim = blob["dim"]

        def vec(items):
            return [parse(c) for c in items]

        def key2(k):
            i, j = k.split(",")
            return (int(i), int(j))

        def key3(k):
            i, j, l = k.split(",")
            return (int(i), int(j), int(l))

        return CubicData(
            ring,
            dim,
            vec(blob["basepoint"]),
            [vec(v) for v in blob["sharp_basis"]],
            {key2(k): vec(v) for k, v in blob["cross_pairs"].items()},
            vec(blob["norm_single"]),
            {key2(k): parse(c) for k, c in blob["norm_dir"].items()},
            {key3(k): parse(c) for k, c in blob["norm_triple"].items()},
            name=name,
        )

    def __repr__(self):
        return f"{self.name}(dim={self.dim}, ring={self.ring})"


class CubicElement(ModuleElement):
    __slots__ = ()

    def sharp(self):
        return self.algebra.sharp(self)

    def norm(self):
        return self.algebra.norm(self)

    def trace(self):
        return self.algebra.trace(self)


# -- generic construction from sharp/norm callables ----------------------------------


def build_cubic(ring, dim, basepoint, sharp_fn, norm_fn, name="cubic"):
    """Extract stored data from ring-generic sharp and norm callables.

    sharp_fn(L, vec) and norm_fn(L, vec) must evaluate over any ring-like
    L; the directional coefficients come from dual numbers, the trilinear
    ones from inclusion-exclusion.
    """

    def e(i):
        return basis(ring, dim, i)

    sharp_basis = [sharp_fn(ring, e(i)) for i in range(dim)]
    cross_pairs = {}
    for i in range(dim):
        for j in range(i + 1, dim):
            s = sharp_fn(ring, add_vec(ring, e(i), e(j)))
            cross_pairs[(i, j)] = sub_vec(ring, sub_vec(ring, s, sharp_basis[i]), sharp_basis[j])

    n_single = [norm_fn(ring, e(i)) for i in range(dim)]
    D = DualExt(ring)
    n_dir = {}
    for i in range(dim):
        for j in range(dim):
            if i == j:
                continue
            c = norm_fn(D, list(zip(e(i), e(j))))[1]
            if not ring.is_zero(c):
                n_dir[(i, j)] = c
    pair_cache = {}

    def npair(i, j):
        if (i, j) not in pair_cache:
            pair_cache[(i, j)] = norm_fn(ring, add_vec(ring, e(i), e(j)))
        return pair_cache[(i, j)]

    n_triple = {}
    for i in range(dim):
        for j in range(i + 1, dim):
            for l in range(j + 1, dim):
                v = norm_fn(ring, add_vec(ring, add_vec(ring, e(i), e(j)), e(l)))
                v = ring.sub(v, npair(i, j))
                v = ring.sub(v, npair(j, l))
                v = ring.sub(v, npair(i, l))
                v = ring.add(v, n_single[i])
                v = ring.add(v, n_single[j])
                v = ring.add(v, n_single[l])
                if not ring.is_zero(v):
                    n_triple[(i, j, l)] = v

    return CubicData(
        ring, dim, basepoint, sharp_basis, cross_pairs, n_single, n_dir, n_triple, name=name
    )


# -- constructors ------------------------------------------------------------------


def k_cubic(ring):
    """Rank 1: sharp is squaring, the norm is the cube."""

    def sharp_fn(L, v):
        return [L.mul(v[0], v[0])]

    def norm_fn(L, v):
        return L.mul(L.mul(v[0], v[0]), v[0])

    return build_cubic(ring, 1, [ring.one], sharp_fn, norm_fn, name="k_cubic")


def split_cubic_etale(ring):
    """k^3 with componentwise complementary-product adjoint and product norm."""

    def sharp_fn(L, v):
        return [L.mul(v[1], v[2]), L.mul(v[2], v[0]), L.mul(v[0], v[1])]

    def norm_fn(L, v):
        return L.mul(L.mul(v[0], v[1]), v[2])

    return build_cubic(ring, 3, [ring.one] * 3, sharp_fn, norm_fn, name="split_cubic_etale")


def kk_cubic(ring):
    """Rank 2 with norm x1 x2^2 and adjoint (x2^2, x1 x2)."""

    def sharp_fn(L, v):
        return [L.mul(v[1], v[1]), L.mul(v[0], v[1])]

    def norm_fn(L, v):
        return L.mul(v[0], L.mul(v[1], v[1]))

    return build_cubic(ring, 2, [ring.one] * 2, sharp_fn, norm_fn, name="kk_cubic")


def hat_pointed(q, e):
    """Rank 1 + dim(q): N((r, u)) = r q(u), (a, u)# = (q(u), a conj(u)).

    (M, q, e) must be a pointed quadratic module: q(e) = 1.  Conjugation
    is u -> Dq(e, u) e - u.
    """
    ring = q.ring
    e = [ring.coerce(c) for c in e]
    if not ring.eq(q.eval_payload(e), ring.one):
        raise ValueError("base point must have q(e) = 1")
    m = q.dim

    def conj(L, u):
        le = lift_vec(L, e)
        t = q.bilin_payload(u, le, L)
        return [L.sub(L.mul(t, c), a) for c, a in zip(le, u)]

    def sharp_fn(L, v):
        r, u = v[0], v[1:]
        qu = q.eval_payload(u, L)
        cu = conj(L, u)
        return [qu] + [L.mul(r, c) for c in cu]

    def norm_fn(L, v):
        return L.mul(v[0], q.eval_payload(v[1:], L))

    basepoint = [ring.one] + list(e)
    return build_cubic(ring, 1 + m, basepoint, sharp_fn, norm_fn, name="hat_pointed")


def hat_of_conic(C):
    """The hat construction over a conic algebra's norm and unit."""
    return hat_pointed(C.norm, C.unit)


class PointedQuadraticJordan:
    """Degree-2 Jordan structure of a pointed quadratic module (M, q, e).

    U_x y = q(x, conj(y)) x - q(x) conj(y); x is invertible iff q(x) is a
    unit, with inverse q(x)^{-1} conj(x).
    """

    def __init__(self, q, e):
        self.ring = q.ring
        self.q = q
        self.dim = q.dim
        self.e = [q.ring.coerce(c) for c in e]
        if not q.ring.eq(q.eval_payload(self.e), q.ring.one):
            raise ValueError("base point must have q(e) = 1")

    def conj_vec(self, x):
        R = self.ring
        t = self.q.bilin_payload(self.e, x)
        return [R.sub(R.mul(t, c), a) for c, a in zip(self.e, x)]

    def trace_of(self, x):
        return self.ring.scalar(self.q.bilin_payload(self.e, x))

    def u_op(self, x, y):
        R = self.ring
        ybar = self.conj_vec(y)
        c = self.q.bilin_payload(x, ybar)
        qx = self.q.eval_payload(x)
        return [R.sub(R.mul(c, a), R.mul(qx, b)) for a, b in zip(x, ybar)]

    def try_inverse(self, x):
        R = self.ring
        qi = R.inv(self.q.eval_payload(x))
        if qi is None:
            return NOT_INVERTIBLE
        return [R.mul(qi, c) for c in self.conj_vec(x)]


def verify_cubic_iso(src, dst, apply):
    """Check that the linear map apply: src -> dst is an isomorphism of cubic
    norm structures: it must preserve the base point and the adjoint on basis
    vectors and on their pair sums.  Raises AssertionError otherwise."""
    n = src.dim
    if apply(src.one()).coords != dst.one().coords:
        raise AssertionError("map does not preserve the base point")
    basis_elems = [src.basis_element(i) for i in range(n)]
    for i in range(n):
        if apply(src.sharp(basis_elems[i])) != dst.sharp(apply(basis_elems[i])):
            raise AssertionError("map does not preserve adjoints on basis")
    for i in range(n):
        for j in range(i + 1, n):
            s = basis_elems[i] + basis_elems[j]
            if apply(src.sharp(s)) != dst.sharp(apply(s)):
                raise AssertionError("map does not preserve adjoints on pair sums")


# -- axiom validation ------------------------------------------------------------------


def _adjoint_id(data, L, vs):
    (x,) = vs
    lhs = data.sharp_vec(data.sharp_vec(x, L), L)
    n = data.norm_payload(x, L)
    return [L.sub(a, L.mul(n, c)) for a, c in zip(lhs, x)]


def _unit_id(data, L, vs):
    (y,) = vs
    one = lift_vec(L, data.basepoint)
    lhs = data.cross_vec(one, y, L)
    t = data.trace_lin(y, L)
    return [L.sub(L.add(a, c), L.mul(t, o)) for a, c, o in zip(lhs, y, one)]


def _gradient_id(data, L, vs):
    x, y = vs
    lhs = data.norm_dir_payload(x, y, L)
    rhs = data.trace_bilin(data.sharp_vec(x, L), y, L)
    return L.sub(lhs, rhs)


def _bilinear_adjoint_id(data, L, vs):
    x, y = vs
    sx = data.sharp_vec(x, L)
    sy = data.sharp_vec(y, L)
    lhs = data.sharp_vec(data.cross_vec(x, y, L), L)
    lhs = add_vec(L, lhs, data.cross_vec(sx, sy, L))
    t1 = data.trace_bilin(sx, y, L)
    t2 = data.trace_bilin(x, sy, L)
    rhs = [L.add(L.mul(t1, b), L.mul(t2, a)) for a, b in zip(x, y)]
    return sub_vec(L, lhs, rhs)


def _sharp_cross_id(data, L, vs):
    x, y = vs
    sx = data.sharp_vec(x, L)
    lhs = data.cross_vec(sx, data.cross_vec(x, y, L), L)
    t = data.trace_bilin(sx, y, L)
    n = data.norm_payload(x, L)
    rhs = [L.add(L.mul(t, a), L.mul(n, b)) for a, b in zip(x, y)]
    return sub_vec(L, lhs, rhs)


def _fundamental_id(data, L, vs):
    x, y, z = vs
    w = data.u_op_vec(x, y, L)
    lhs = data.u_op_vec(w, z, L)
    rhs = data.u_op_vec(x, data.u_op_vec(y, data.u_op_vec(x, z, L), L), L)
    return sub_vec(L, lhs, rhs)


CUBIC_IDENTITIES = {
    "adjoint": IdentitySpec("adjoint", (4,), _adjoint_id),
    "unit-id": IdentitySpec("unit-id", (1,), _unit_id),
    "gradient": IdentitySpec("gradient", (2, 1), _gradient_id, scalar=True),
    "bilinear-adjoint": IdentitySpec("bilinear-adjoint", (2, 2), _bilinear_adjoint_id),
    "sharp-cross": IdentitySpec("sharp-cross", (3, 1), _sharp_cross_id),
    "fundamental": IdentitySpec("fundamental", (4, 2, 1), _fundamental_id),
}


def adjoint_identity_strict(data):
    """Strict x## = N(x)x by complete degree-4 expansion.

    Uses the integer tensor path when the structure data is integral
    (ZZ, GF(p), or QQ with denominator-free data), else falls back to
    the generic truncated-polynomial expansion.
    """
    fast = _try_fast_adjoint(data)
    if fast is not None:
        return fast
    if multiset_count(data.dim, (4,)) > _GENERIC_STRICT_GUARD:
        raise CostGuardError(
            "adjoint strict check needs integral structure data at this dimension"
        )
    return strict_identity_check(data, CUBIC_IDENTITIES["adjoint"])


def _int_payload(c):
    # ZZ and GF(p) payloads are ints, and so is every integral QQ payload
    return c if isinstance(c, int) else None


def _try_fast_adjoint(data):
    try:
        import numpy as np
    except ImportError:  # pragma: no cover
        return None
    R = data.ring
    mod = R.p if isinstance(R, PrimeField) else None
    if not (R in (ZZ, QQ) or mod):
        return None
    n = data.dim

    pairs = [(a, b) for a in range(n) for b in range(a, n)]
    pidx = {p: t for t, p in enumerate(pairs)}
    S = np.zeros((len(pairs), n), dtype=object)
    for t, (a, b) in enumerate(pairs):
        vec = data.sharp_basis[a] if a == b else data.cross_pairs[(a, b)]
        for k, c in enumerate(vec):
            v = _int_payload(c)
            if v is None:
                return None
            S[t, k] = v
    X = np.zeros((n, n, n), dtype=object)
    for a in range(n):
        for k, c in enumerate(data.sharp_basis[a]):
            v = _int_payload(c)
            if v is None:
                return None
            X[a, a, k] = 2 * v
        for b in range(a + 1, n):
            for k, c in enumerate(data.cross_pairs[(a, b)]):
                v = _int_payload(c)
                if v is None:
                    return None
                X[a, b, k] = v
                X[b, a, k] = v

    # choose dtype by a coarse bound
    bS = int(abs(S).max()) if S.size else 0
    bX = max(int(abs(X).max()), 1)
    bound = n * n * max(bS, 1) ** 2 * bX * 8
    use_i64 = bound < 2**62
    cast = (lambda A: A.astype(np.int64)) if use_i64 else (lambda A: A)
    S = cast(S)
    X = cast(X)

    # monomial index over degree-4 multisets
    mons = {}

    def midx(t4):
        key = tuple(sorted(t4))
        if key not in mons:
            mons[key] = len(mons)
        return mons[key]

    lhs_rows, lhs_vals = [], []
    # diagonal terms: sharp(s_P) scaled by m_P^2
    sharp_mat = np.array(
        [[_int_payload(c) for c in v] for v in data.sharp_basis], dtype=S.dtype
    )
    cross_list = sorted(data.cross_pairs)
    if cross_list:
        cross_mat = np.array(
            [[_int_payload(c) for c in data.cross_pairs[p]] for p in cross_list], dtype=S.dtype
        )
        PP = np.array(
            [[int(S[t, a]) * int(S[t, b]) for (a, b) in cross_list] for t in range(len(pairs))],
            dtype=S.dtype,
        )
        SH = (S * S) @ sharp_mat + PP @ cross_mat
    else:
        SH = (S * S) @ sharp_mat

    B = np.stack([S @ X[:, :, k] @ S.T for k in range(n)], axis=2)

    nmons_expected = multiset_count(n, (4,))
    lhs = np.zeros((nmons_expected, n), dtype=S.dtype)
    for t, (a, b) in enumerate(pairs):
        lhs[midx((a, b, a, b))] += SH[t]
    for t1 in range(len(pairs)):
        a, b = pairs[t1]
        for t2 in range(t1 + 1, len(pairs)):
            c, d = pairs[t2]
            lhs[midx((a, b, c, d))] += B[t1, t2]

    rhs = np.zeros((nmons_expected, n), dtype=S.dtype)
    cubics = []
    for i in range(n):
        cubics.append(((i, i, i), _int_payload(data.n_single[i])))
    for (i, j), c in data.n_dir.items():
        key = tuple(sorted((i, i, j)))
        cubics.append((key, _int_payload(c)))
    for (i, j, l), c in data.n_triple.items():
        cubics.append(((i, j, l), _int_payload(c)))
    for key, val in cubics:
        if val is None:
            return None
        for i in range(n):
            rhs[midx(tuple(sorted(key + (i,)))), i] += val

    diff = lhs - rhs
    if mod:
        diff = diff % mod
    bad = np.argwhere(diff != 0)
    if len(bad) == 0:
        return Verdict(True, mode="strict", details={"identity": "adjoint", "path": "tensor"})
    inv_mons = {v: k for k, v in mons.items()}
    worst = min((inv_mons[int(r)], int(c)) for r, c in bad)
    return Verdict(
        False,
        witness=(worst[0],),
        mode="strict",
        details={"identity": "adjoint", "coordinate": worst[1], "path": "tensor"},
    )


def fundamental_formula_samples(data, samples=1000, seed=DEFAULT_SEED):
    """U_{U_x y} = U_x U_y U_x as exact operator equality on seeded samples."""
    R = data.ring
    rng = random.Random(seed)
    n = data.dim
    fast = _fast_u_context(data)
    for trial in range(samples):
        x = [R.rand(rng) for _ in range(n)]
        y = [R.rand(rng) for _ in range(n)]
        if fast is not None:
            ok = _fast_fundamental(fast, x, y)
        else:
            ok = _slow_fundamental(data, x, y)
        if not ok:
            return Verdict(
                False,
                witness=(tuple(R.render(c) for c in x), tuple(R.render(c) for c in y)),
                mode="sampled",
                details={"trial": trial, "seed": seed},
            )
    return Verdict(True, mode="sampled", details={"samples": samples, "seed": seed})


def _slow_fundamental(data, x, y):
    R = data.ring
    w = data.u_op_vec(x, y)
    for j in range(data.dim):
        ej = basis(R, data.dim, j)
        lhs = data.u_op_vec(w, ej)
        rhs = data.u_op_vec(x, data.u_op_vec(y, data.u_op_vec(x, ej)))
        if not vec_eq(R, lhs, rhs):
            return False
    return True


def _fast_u_context(data):
    try:
        import numpy as np
    except ImportError:  # pragma: no cover
        return None
    R = data.ring
    if R != ZZ:
        return None
    n = data.dim
    XU = np.zeros((n, n, n), dtype=np.int64)
    X = np.zeros((n, n, n), dtype=np.int64)
    for a in range(n):
        for k, c in enumerate(data.sharp_basis[a]):
            if not isinstance(c, int):
                return None
            XU[a, a, k] = c
            X[a, a, k] = 2 * c
        for b in range(a + 1, n):
            for k, c in enumerate(data.cross_pairs[(a, b)]):
                if not isinstance(c, int):
                    return None
                XU[a, b, k] = c
                X[a, b, k] = c
                X[b, a, k] = c
    tvec = np.array([int(c) for c in data.tvec], dtype=np.int64)
    TX = np.tensordot(X, tvec, axes=([2], [0]))
    return {"np": np, "X": X, "XU": XU, "tvec": tvec, "TX": TX, "n": n}


def _fast_u_matrix(ctx, x):
    np = ctx["np"]
    xs = np.einsum("a,b,abk->k", x, x, ctx["XU"])
    w = np.dot(ctx["tvec"], x) * ctx["tvec"] - x @ ctx["TX"]
    cross_cols = np.tensordot(xs, ctx["X"], axes=([0], [0]))  # [j, k]
    return np.outer(x, w) - cross_cols.T


def _fast_fundamental(ctx, x, y):
    np = ctx["np"]
    x = np.array(x, dtype=np.int64)
    y = np.array(y, dtype=np.int64)
    Ux = _fast_u_matrix(ctx, x)
    Uy = _fast_u_matrix(ctx, y)
    w = Ux @ y
    lhs = _fast_u_matrix(ctx, w)
    rhs = Ux @ Uy @ Ux
    return bool((lhs == rhs).all())


def gradient_identity_samples(data, samples=100, seed=DEFAULT_SEED):
    """N(x + eps y) - N(x) has eps-part exactly T(x#, y) on random samples."""
    R = data.ring
    rng = random.Random(seed)
    n = data.dim
    for trial in range(samples):
        x = [R.rand(rng) for _ in range(n)]
        y = [R.rand(rng) for _ in range(n)]
        lhs = data.norm_dir_payload(x, y)
        rhs = data.trace_bilin(data.sharp_vec(x), y)
        if not R.eq(lhs, rhs):
            return Verdict(False, witness=(trial,), mode="sampled", details={"seed": seed})
    return Verdict(True, mode="sampled", details={"samples": samples, "seed": seed})


def validate_axioms(data, mode="strict", seed=DEFAULT_SEED):
    """Run the cubic-norm-structure axiom suite.

    strict mode expands identities over basis multisets wherever the cost
    guard allows (the adjoint identity has a dedicated integer tensor
    path); above the guard individual identities are checked on seeded
    samples and the per-identity mode is recorded in the details.
    """
    R = data.ring
    results = {}
    verdicts = []

    # base point identities are plain data checks
    ok = R.eq(data.norm_payload(data.basepoint), R.one) and vec_eq(
        R, data.sharp_vec(data.basepoint), data.basepoint
    )
    verdicts.append(ok)
    results["basepoint"] = "Holds" if ok else "Fails"

    checks = [
        ("unit-id", CUBIC_IDENTITIES["unit-id"]),
        ("gradient", CUBIC_IDENTITIES["gradient"]),
        ("bilinear-adjoint", CUBIC_IDENTITIES["bilinear-adjoint"]),
        ("sharp-cross", CUBIC_IDENTITIES["sharp-cross"]),
        ("fundamental", CUBIC_IDENTITIES["fundamental"]),
    ]
    first_fail = None
    for name, ident in checks:
        if mode == "strict" and multiset_count(data.dim, ident.multidegree) <= _GENERIC_STRICT_GUARD:
            v = strict_identity_check(data, ident)
        elif name == "fundamental":
            v = fundamental_formula_samples(data, samples=200, seed=seed)
        else:
            v = sampled_identity_check(data, ident, seed=seed)
        results[name] = f"{'Holds' if v.holds else 'Fails'} ({v.mode})"
        verdicts.append(v.holds)
        if not v.holds and first_fail is None:
            first_fail = (name, v.witness)

    if mode == "strict":
        try:
            v = adjoint_identity_strict(data)
        except CostGuardError:
            v = sampled_identity_check(data, CUBIC_IDENTITIES["adjoint"], seed=seed)
    else:
        v = sampled_identity_check(data, CUBIC_IDENTITIES["adjoint"], seed=seed)
    results["adjoint"] = f"{'Holds' if v.holds else 'Fails'} ({v.mode})"
    verdicts.append(v.holds)
    if not v.holds and first_fail is None:
        first_fail = ("adjoint", v.witness)

    holds = all(verdicts)
    return Verdict(holds, witness=first_fail, mode=mode, details=results)
