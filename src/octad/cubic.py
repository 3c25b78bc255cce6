"""Cubic norm structures and their Jordan algebra calculus.

A structure is stored once, by its base point and the nonzero terms of
its adjoint and norm, keyed by sorted index tuples as build_cubic reads
them from the generic element x = sum x_i e_i:

  x# = sum_{i <= j} x_i x_j sum_k c_ijk e_k       sharp_terms {(i, j, k): c_ijk}
  N(x) = sum_{i <= j <= l} c_ijl x_i x_j x_l       norm_terms {(i, j, l): c_ijl}

so (i, i, k) is coordinate k of e_i# and (i, j, k), i < j, that of
e_i x e_j.  Construction decides N(1) = 1 and 1# = 1 directly and the
gradient law N(x; y) = T(x#, y) strictly, as a polynomial law, once: its
verdict, gradient_law, is what validate_axioms reports.  The dense
layout (adjoints of basis vectors and pairs, N(e_i), N(e_i; e_j),
N(e_i, e_j, e_l)) is only written by to_json and read by from_json.

Traces are always derived, never stored: T(y) = N(1; y), S(x) = T(x#),
T(x, y) = T(x)T(y) - T(x x y), U_x y = T(x, y) x - x# x y.

One kernel, linalg.TermMap, evaluates every stored form: the adjoint
(x# its value, x x y its polar), the norm, the trace T(x) = sum T(e_i)
x_i and the trace form x -> (T(x, e_j))_j, whose Gram matrix T(e_i, e_j)
= T(e_i)T(e_j) - T(e_i x e_j) is read from the adjoint terms once, at
construction.  A derivative is the value of a TermMap.gradient, read
from stored terms once: N(x; y) and T(e_m) = N(1; e_m) from the norm's
(_grad, at construction), x# x e_j from the adjoint's (_sharp_grad, on
first use).  The kernel coerces each constant once, applies 1 and -1 by
add and sub and sums a term only when all its factors are nonzero.

u_matrix(x) gives the columns U_x e_j = T(x, e_j) x - x# x e_j, with x#,
the row T(x, e_.) and the columns x# x e_j each computed in one pass.
The sampled fundamental formula compares U_{U_x y} with U_x U_y U_x
column by column through it.  It draws all its samples in one
Ring.rand_vec call.  Over every ring with a modulus (ZZ, QQ, Z/n, GF(p))
it checks 16 samples at once as stacked float64 matrices of ints (numpy
BLAS) wherever a bound from the constants and the chunk's range proves
every value an integer below 2^53; the exact path takes every other
chunk, and every ring-like without a modulus.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import random

from .extensions import PolyExt, lift_vec
from .identities import (
    IMPLIED_BY as _IMPLIED_BY,
    CostGuardError,
    DEFAULT_SEED,
    IdentitySpec,
    Verdict,
    check_identity,
    sampled_identity_check,
    strict_identity_check,
)
from .linalg import (
    LinearMap,
    ModuleElement,
    NormedModule,
    TermMap,
    cols_vec,
    mat_mul,
    scale_vec,
    sub_vec,
    vec_eq,
    vec_is_zero,
)
from .scalars import NOT_A_UNIT, QQ, ZZ, PrimeField


class CubicData(NormedModule):
    def __init__(self, ring, dim, basepoint, sharp_terms, norm_terms, name="cubic"):
        """sharp_terms {(i, j, k): c} (i <= j) and norm_terms {(i, j, l): c}
        (i <= j <= l) as in the module docstring; each constant is coerced
        into ring and zero terms are dropped."""
        self.ring = ring
        self.dim = dim
        self.basepoint = [ring.coerce(c) for c in basepoint]
        self.name = name
        self._sharp = TermMap(ring, sharp_terms, 2, dim)
        self._norm = TermMap(ring, norm_terms, 3)
        self.sharp_terms = self._sharp.terms
        self.norm_terms = self._norm.terms
        if any(i > j for i, j, _ in self.sharp_terms) or any(not i <= j <= l for i, j, l in self.norm_terms):
            raise ValueError(f"{name}: term keys must be sorted index tuples")
        self._grad = self._norm.gradient(dim)
        self.tvec = self._grad.value(self.basepoint)
        self._trace = TermMap(ring, {(i,): t for i, t in enumerate(self.tvec)}, 1)
        self._trace_form = self._trace_gram()
        self._validate()

    def _trace_gram(self):
        """The trace form as the map x -> (T(x, e_j))_j: the Gram matrix
        T(e_i, e_j) = T(e_i)T(e_j) - T(e_i x e_j) is t (x) t less the
        gradient of S(x) = T(x#), whose terms are read from the adjoint's."""
        R, t = self.ring, self.tvec
        strace = {}
        for (i, j, k), c in self.sharp_terms.items():
            strace[(i, j)] = R.add(strace.get((i, j), R.zero), R.mul(c, t[k]))
        gram = {(i, j): R.mul(a, b) for i, a in enumerate(t) for j, b in enumerate(t)}
        for key, c in TermMap(R, strace, 2).gradient(self.dim).terms.items():
            gram[key] = R.sub(gram[key], c)
        return TermMap(R, gram, 1, self.dim)

    @functools.cached_property
    def _sharp_grad(self):
        """x -> (x x e_m)_m, coordinate k of x x e_m at m * dim + k."""
        return self._sharp.gradient(self.dim)

    @functools.cached_property
    def _u_tensors(self):
        return _float_u_tensors(self)

    def _validate(self):
        """N(1) = 1 and 1# = 1, and the gradient law as a polynomial law."""
        failure = self._basepoint_failure()
        if failure is not None:
            raise ValueError(f"{self.name}: {failure}")
        if not self.gradient_law.holds:
            raise ValueError(f"{self.name}: gradient law N(x; y) = T(x#, y) fails at {self.gradient_law.witness}")

    def _basepoint_failure(self):
        """The first of N(1) = 1 and 1# = 1 that fails, or None."""
        R = self.ring
        if not R.eq(self.norm_payload(self.basepoint), R.one):
            return "N(1) != 1"
        if not vec_eq(R, self.sharp_vec(self.basepoint), self.basepoint):
            return "1# != 1"
        return None

    @functools.cached_property
    def gradient_law(self):
        """The strict verdict of the gradient law N(x; y) = T(x#, y), decided
        once per structure: by construction, or on first use when
        construction did not check it."""
        return strict_identity_check(self, CUBIC_IDENTITIES["gradient"])

    # -- scalar-valued maps -----------------------------------------------------
    def norm_payload(self, x, L=None):
        return self._norm.value(x, L)

    def norm_dir_payload(self, x, y, L=None):
        """N(x; y) = sum_m N(x; e_m) y_m, exact in every characteristic."""
        R = L if L is not None else self.ring
        return R.dot(self._grad.value(x, L), y)

    def trace_row(self, x, L=None):
        """[T(x, e_0), ..., T(x, e_{dim-1})] from the Gram matrix."""
        return self._trace_form.value(x, L)

    def trace_bilin(self, x, y, L=None):
        """T(x, y) = T(x)T(y) - T(x x y) = sum_i x_i T(y, e_i), reading only
        the Gram rows where y_i != 0 (y is the sparse argument of u_op_vec
        on basis vectors and the base point)."""
        R = L if L is not None else self.ring
        acc = R.zero
        for xi, t in zip(x, self.trace_row(y, L)):
            if not (R.is_zero(t) or R.is_zero(xi)):
                acc = R.add(acc, R.mul(t, xi))
        return acc

    def squad(self, x, L=None):
        return self.trace_lin(self.sharp_vec(x, L), L)

    # -- vector-valued maps ---------------------------------------------------------
    def sharp_vec(self, x, L=None, acc=None):
        """x#, added onto the vector acc when one is given."""
        return self._sharp.value(x, L, acc)

    def cross_vec(self, x, y, L=None, acc=None):
        """x x y, added onto the vector acc when one is given."""
        return self._sharp.polar(x, y, L, acc)

    def u_op_vec(self, x, y, L=None):
        R = L if L is not None else self.ring
        t = self.trace_bilin(x, y, L)
        cx = self.cross_vec(self.sharp_vec(x, L), y, L)
        return sub_vec(R, scale_vec(R, t, x), cx)

    def u_matrix(self, x, L=None):
        """U_x by columns: U_x e_j = T(x, e_j) x - x# x e_j, with x#, the
        trace row and the columns x# x e_j each computed in one pass."""
        R = L if L is not None else self.ring
        n = self.dim
        cols = [c for t in self.trace_row(x, L) for c in ([R.zero] * n if R.is_zero(t) else scale_vec(R, t, x))]
        cols = self._sharp_grad.value([R.neg(c) for c in self.sharp_vec(x, L)], L, cols)
        return [cols[j : j + n] for j in range(0, n * n, n)]

    def triple_vec(self, x, y, z, L=None):
        """{x y z} = U_{x,z} y = T(x,y) z + T(z,y) x - (x x z) x y."""
        R = L if L is not None else self.ring
        txy = self.trace_bilin(x, y, L)
        tzy = self.trace_bilin(z, y, L)
        out = [R.add(R.mul(txy, c), R.mul(tzy, d)) for c, d in zip(z, x)]
        cr = self.cross_vec(self.cross_vec(x, z, L), y, L)
        return sub_vec(R, out, cr)

    # -- element API (the rest is linalg.NormedModule's) ----------------------
    def _adjoint_vec(self, x):
        return self.sharp_vec(x)

    def one(self):
        return ModuleElement(self, list(self.basepoint))

    norm = NormedModule.norm_of  # N(x) keeps its cubic name; a conic's norm is its form

    def sharp(self, x):
        return ModuleElement(self, self.sharp_vec(self._coords(x)))

    def cross(self, x, y):
        return ModuleElement(self, self.cross_vec(self._coords(x), self._coords(y)))

    def trace_pair(self, x, y):
        return self.ring.scalar(self.trace_bilin(self._coords(x), self._coords(y)))

    def strace(self, x):
        return self.ring.scalar(self.squad(self._coords(x)))

    def u_op(self, x, y):
        return ModuleElement(self, self.u_op_vec(self._coords(x), self._coords(y)))

    def triple(self, x, y, z):
        return ModuleElement(self, self.triple_vec(self._coords(x), self._coords(y), self._coords(z)))

    def power(self, x, n):
        """x^0 = 1, x^1 = x, x^n = U_x x^{n-2} (quadratic Jordan powers)."""
        if n == 0:
            return self.one()
        if n == 1:
            return x
        return self.u_op(x, self.power(x, n - 2))

    def rank(self, x):
        if not self.ring.is_field:
            raise ValueError("rank needs a field base ring")
        R = self.ring
        x = self._coords(x)
        if vec_is_zero(R, x):
            return 0
        if vec_is_zero(R, self.sharp_vec(x)):
            return 1
        if R.is_zero(self.norm_payload(x)):
            return 2
        return 3

    # -- idempotents --------------------------------------------------------------
    def is_idempotent(self, e):
        e = self._coords(e)
        return vec_eq(self.ring, self.u_op_vec(e, self.basepoint), e)

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
        cols2 = self.u_matrix(e.coords)
        cols0 = self.u_matrix(f)
        E2 = [[cols2[j][i] for j in range(n)] for i in range(n)]
        E0 = [[cols0[j][i] for j in range(n)] for i in range(n)]
        E1 = [
            [
                R.sub(R.sub(R.one if i == j else R.zero, E2[i][j]), E0[i][j])
                for j in range(n)
            ]
            for i in range(n)
        ]
        # verify idempotence and orthogonality: E_a E_b is E_a if a = b, else 0
        for A, B in itertools.product((E2, E1, E0), repeat=2):
            prod = mat_mul(R, A, B)
            for i in range(n):
                for j in range(n):
                    if not R.eq(prod[i][j], A[i][j] if A is B else R.zero):
                        raise AssertionError("Peirce projections are inconsistent")
        return E2, E1, E0

    # -- serialization ---------------------------------------------------------------
    def to_json(self):
        """The terms in the dense layout: e_i# and e_i x e_j for every pair
        i < j, N(e_i), the nonzero N(e_i; e_j) = coefficient of x_i^2 x_j
        under the key "i,j", and the nonzero N(e_i, e_j, e_l)."""
        R, n = self.ring, self.dim

        def adjoint(i, j):
            return [R.render(self.sharp_terms.get((i, j, k), R.zero)) for k in range(n)]

        norm_dir, norm_triple = {}, {}
        for (i, j, l), c in self.norm_terms.items():
            if i == j != l:
                norm_dir[f"{i},{l}"] = R.render(c)
            elif i != j == l:
                norm_dir[f"{l},{i}"] = R.render(c)
            elif i != j:
                norm_triple[f"{i},{j},{l}"] = R.render(c)
        return json.dumps(
            {
                "dim": n,
                "basepoint": [R.render(c) for c in self.basepoint],
                "sharp_basis": [adjoint(i, i) for i in range(n)],
                "cross_pairs": {f"{i},{j}": adjoint(i, j) for i, j in itertools.combinations(range(n), 2)},
                "norm_single": [R.render(self.norm_terms.get((i, i, i), R.zero)) for i in range(n)],
                "norm_dir": norm_dir,
                "norm_triple": norm_triple,
            },
            sort_keys=True,
        )

    @staticmethod
    def from_json(ring, text, name="cubic"):
        blob = json.loads(text)
        parse = ring.parse

        def key(text):
            return tuple(int(i) for i in text.split(","))

        adjoints = [((i, i), v) for i, v in enumerate(blob["sharp_basis"])]
        adjoints += [(key(k), v) for k, v in blob["cross_pairs"].items()]
        sharp_terms = {(i, j, k): parse(c) for (i, j), v in adjoints for k, c in enumerate(v)}
        norm_terms = {(i, i, i): parse(c) for i, c in enumerate(blob["norm_single"])}
        for k, c in blob["norm_dir"].items():
            # N(e_i; e_l) is the coefficient of x_i^2 x_l
            i, l = key(k)
            norm_terms[(i, i, l) if i < l else (l, i, i)] = parse(c)
        norm_terms.update((key(k), parse(c)) for k, c in blob["norm_triple"].items())
        basepoint = [parse(c) for c in blob["basepoint"]]
        return CubicData(ring, blob["dim"], basepoint, sharp_terms, norm_terms, name=name)


# -- generic construction from sharp/norm callables ----------------------------------


def build_cubic(ring, dim, basepoint, sharp_fn, norm_fn, name="cubic"):
    """Extract stored data from ring-generic sharp and norm callables.

    sharp_fn(L, vec) and norm_fn(L, vec) must evaluate over any ring-like
    L.  Each is evaluated once, at the generic element (t_0, ..., t_{dim-1})
    over a truncated polynomial ring, and every stored term is one
    coefficient: t_i t_j (i <= j) in coordinate k of the adjoint is the
    sharp term (i, j, k), t_i t_j t_l (i <= j <= l) of the norm the norm
    term (i, j, l).  A term of another degree raises ValueError: one of a
    lower degree, or one degree higher, the highest the truncation keeps.
    """
    L = PolyExt(ring, dim, 3)
    sharp_terms = {}
    for k, poly in enumerate(sharp_fn(L, [L.var(i) for i in range(dim)])):
        for (i, j), c in L.terms(poly, 2, f"{name}: sharp_fn"):
            sharp_terms[(i, j, k)] = c
    L = PolyExt(ring, dim, 4)
    norm_terms = dict(L.terms(norm_fn(L, [L.var(i) for i in range(dim)]), 3, f"{name}: norm_fn"))
    return CubicData(ring, dim, basepoint, sharp_terms, norm_terms, name=name)


# -- constructors ------------------------------------------------------------------


@functools.lru_cache(maxsize=None, typed=True)
def k_cubic(ring):
    """Rank 1: sharp is squaring, the norm is the cube."""

    def sharp_fn(L, v):
        return [L.mul(v[0], v[0])]

    def norm_fn(L, v):
        return L.mul(L.mul(v[0], v[0]), v[0])

    return build_cubic(ring, 1, [ring.one], sharp_fn, norm_fn, name="k_cubic")


@functools.lru_cache(maxsize=None, typed=True)
def split_cubic_etale(ring):
    """k^3 with componentwise complementary-product adjoint and product norm."""

    def sharp_fn(L, v):
        return [L.mul(v[1], v[2]), L.mul(v[2], v[0]), L.mul(v[0], v[1])]

    def norm_fn(L, v):
        return L.mul(L.mul(v[0], v[1]), v[2])

    return build_cubic(ring, 3, [ring.one] * 3, sharp_fn, norm_fn, name="split_cubic_etale")


@functools.lru_cache(maxsize=None, typed=True)
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
    is PointedQuadraticJordan's, u -> Dq(u, e) e - u.
    """
    ring = q.ring
    pointed = PointedQuadraticJordan(q, e)
    m = q.dim

    def sharp_fn(L, v):
        r, u = v[0], v[1:]
        qu = q.eval_payload(u, L)
        cu = pointed.conj_vec(u, L)
        return [qu] + [L.mul(r, c) for c in cu]

    def norm_fn(L, v):
        return L.mul(v[0], q.eval_payload(v[1:], L))

    basepoint = [ring.one] + pointed.e
    return build_cubic(ring, 1 + m, basepoint, sharp_fn, norm_fn, name="hat_pointed")


@functools.lru_cache(maxsize=None, typed=True)
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

    def conj_vec(self, x, L=None):
        """conj(x) = Dq(x, e) e - x, optionally over ring-like L."""
        R = L if L is not None else self.ring
        e = lift_vec(R, self.e)
        t = self.q.bilin_payload(x, e, L)
        return [R.sub(R.mul(t, c), a) for c, a in zip(e, x)]

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
            return NOT_A_UNIT
        return [R.mul(qi, c) for c in self.conj_vec(x)]


def verify_cubic_iso(src, dst, apply):
    """Check that the linear map apply: src -> dst is an isomorphism of cubic
    norm structures: it preserves the base point, and f(x#) = f(x)# holds as
    a law (on basis vectors: the t_i^2 terms; on pair sums: the t_i t_j
    terms).  Raises AssertionError otherwise."""
    f = LinearMap(src, dst, [apply(src.basis_element(i)).coords for i in range(src.dim)])
    if not vec_eq(src.ring, f.apply_vec(src.basepoint), dst.basepoint):
        raise AssertionError("map does not preserve the base point")
    v = strict_identity_check(f, SHARP_MAP_LAW)
    if not v.holds:
        ((i, j),) = v.witness
        raise AssertionError(f"map does not preserve adjoints on {'basis' if i == j else 'pair sums'}")


def _sharp_map_law(f, L, vs):
    (x,) = vs
    return sub_vec(L, f.apply_vec(f.domain.sharp_vec(x, L), L), f.codomain.sharp_vec(f.apply_vec(x, L), L))


SHARP_MAP_LAW = IdentitySpec("f(x#) = f(x)#", (2,), _sharp_map_law)


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
    t1 = data.trace_bilin(sx, y, L)
    t2 = data.trace_bilin(x, sy, L)
    rhs = [L.neg(L.add(L.mul(t1, b), L.mul(t2, a))) for a, b in zip(x, y)]
    # each map adds the running difference, its acc, once at the end,
    # where the two largely cancel
    lhs = data.sharp_vec(data.cross_vec(x, y, L), L, rhs)
    return data.cross_vec(sx, sy, L, lhs)


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


_STANDALONE_ADJOINT_MAX_DIM = 14


def adjoint_identity_strict(data):
    """Strict x## = N(x)x for the stand-alone adjoint suite: the verdict of
    strict_identity_check.  Above _STANDALONE_ADJOINT_MAX_DIM, data that is
    not integral over ZZ, QQ or GF(p) (another ring, or a constant that is
    not an int) is refused with CostGuardError, the suite's documented
    answer for tits(mat3(Z/6),1); validate_axioms has no such limit."""
    R = data.ring
    constants = itertools.chain(data.sharp_terms.values(), data.norm_terms.values())
    # ZZ and GF(p) payloads are ints, and so is every integral QQ payload
    integral = (R in (ZZ, QQ) or isinstance(R, PrimeField)) and all(isinstance(c, int) for c in constants)
    if data.dim > _STANDALONE_ADJOINT_MAX_DIM and not integral:
        raise CostGuardError("adjoint strict check needs integral structure data at this dimension")
    return strict_identity_check(data, CUBIC_IDENTITIES["adjoint"])


_CHUNK = 16  # samples per float64 batch
_FLOAT_EXACT = 2**53  # every integer of smaller absolute value is a float64


def fundamental_formula_samples(data, samples=1000, seed=DEFAULT_SEED):
    """U_{U_x y} = U_x U_y U_x as exact operator equality on seeded samples.

    The samples come from one random.Random(seed) stream, x then y per
    trial, all drawn in one R.rand_vec call: the same stream as one R.rand
    call per coordinate.  _float_fundamental decides each chunk of _CHUNK
    it admits, the exact path the samples of the others, in order; the
    verdict, the first failing trial and its witness are those of checking
    one sample after another.  details["arith"] counts the samples the
    verdict rests on (all of them, or those up to the failing trial) by
    the arithmetic that decided them: float64 or exact.
    """
    R, n = data.ring, data.dim
    draws = R.rand_vec(random.Random(seed), 2 * n * samples)
    arith = {"float64": 0, "exact": 0}
    for start in range(0, samples, _CHUNK):
        block = draws[2 * n * start : 2 * n * min(start + _CHUNK, samples)]
        pairs = [(block[i : i + n], block[i + n : i + 2 * n]) for i in range(0, len(block), 2 * n)]
        verdicts, kind = _float_fundamental(data, pairs), "float64"
        if verdicts is None:
            verdicts, kind = (_slow_fundamental(data, x, y) for x, y in pairs), "exact"
        for i, ((x, y), ok) in enumerate(zip(pairs, verdicts)):
            arith[kind] += 1
            if not ok:
                return Verdict(
                    False,
                    witness=(tuple(R.render(c) for c in x), tuple(R.render(c) for c in y)),
                    mode="sampled",
                    details={"trial": start + i, "seed": seed, "arith": arith},
                )
    return Verdict(True, mode="sampled", details={"samples": samples, "seed": seed, "arith": arith})


def _slow_fundamental(data, x, y):
    """U_{U_x y} = U_x U_y U_x over the exact ring, compared column by column."""
    R = data.ring
    Ux = data.u_matrix(x)
    Uy = data.u_matrix(y)
    Uw = data.u_matrix(cols_vec(R, Ux, y))
    for j, col in enumerate(Ux):
        if not vec_eq(R, Uw[j], cols_vec(R, Ux, cols_vec(R, Uy, col))):
            return False
    return True


def _float_u_tensors(data):
    """The float64 matrices of _u_batch with the bound k and the modulus m,
    or None: without a modulus, for m >= 2^52 (see _float_fundamental), or
    when k reaches 2^53.  CubicData caches the result as _u_tensors.

    The matrices are the stored adjoint terms, one row per pair a <= b that
    carries terms (sharp), the Gram matrix of the trace form (gram) and the
    adjoint's gradient, the coefficient of x_a in (x x e_j)_k at
    [a, k n + j] (cross), as ints: over Z/m lifted into (-m/2, m/2], which
    commutes with every sum and product mod m; over QQ scaled by d, d^2
    and d, d the least common denominator of the adjoint constants and the
    T(e_i), which scales U_x by d^2 and both sides of the formula by d^6.

    On samples with |x_i|, |y_i| <= B (B >= 1), every value that
    _float_fundamental forms is an integer of absolute value at most
    B^6 k: k sums the absolute values of the entries along the same
    contractions (U_x has degree 2, U_x y 3, both sides 6), and a partial
    sum of a matrix product is bounded by the sum of the absolute values
    of its terms, whatever order BLAS adds in.  Each entry is at most k,
    m/2 or (cross) twice an entry of sharp, so it is a float64 exactly.
    """
    m = data.ring.modulus
    if m is None or m >= _FLOAT_EXACT // 2:
        return None
    import numpy as np

    n = data.dim
    d = math.lcm(*(c.denominator for c in itertools.chain(data.sharp_terms.values(), data.tvec)))

    def lifted(shape, entries, scale):
        M = np.zeros(shape, dtype=object)
        for at, c in entries:
            c = int(c * scale)  # d clears every denominator; m = 0 lifts nothing
            M[at] = c - m if 2 * c > m else c
        return M

    row = {ab: r for r, ab in enumerate(sorted({(a, b) for a, b, _ in data.sharp_terms}))}
    sharp = lifted((len(row), n), (((row[a, b], k), c) for (a, b, k), c in data.sharp_terms.items()), d)
    gram = lifted((n, n), data._trace_form.terms.items(), d * d)
    cross = lifted((n, n * n), (((a, jk % n * n + jk // n), c) for (a, jk), c in data._sharp_grad.terms.items()), d)
    bound = _fundamental_bound(sharp, gram, cross)
    if bound >= _FLOAT_EXACT:
        return None
    return {
        "modulus": m,
        "bound": bound,
        "sharp_a": np.array([a for a, _ in row], dtype=np.intp),
        "sharp_b": np.array([b for _, b in row], dtype=np.intp),
        "sharp": sharp.astype(np.float64),
        "gram": gram.astype(np.float64),
        "cross": cross.astype(np.float64),
    }


def _fundamental_bound(sharp, gram, cross):
    """k of _float_u_tensors, from object arrays of exact ints."""
    s = abs(sharp).sum(axis=0)  # |x#_k| / B^2
    M = abs(gram).sum(axis=0) + s.dot(abs(cross)).reshape(gram.shape)  # |U_x[i, j]| / B^2
    # |intermediates of one U_x| / B^2 (B >= 1 covers T(x, e_j))
    level = max(s.max(), M.max())
    rho = M.sum(axis=1).max()  # |(U_x y)_i| / B^3
    M2 = M.dot(M)
    return int(max(level * rho * rho, rho, M2.max(), M2.dot(M).max(), level))


def _u_batch(ctx, xs):
    """U_x for each row x of the (s, n) array xs, stacked as (s, n, n):
    U[s, i, j] = x_i T(x, e_j) - (x# x e_j)_i."""
    s, n = xs.shape
    sharp = (xs[:, ctx["sharp_a"]] * xs[:, ctx["sharp_b"]]) @ ctx["sharp"]
    cross = (sharp @ ctx["cross"]).reshape(s, n, n)  # [s, k, j] = (x# x e_j)_k
    return xs[:, :, None] * (xs @ ctx["gram"])[:, None, :] - cross


def _float_fundamental(data, pairs):
    """Per (x, y) in pairs, whether U_{U_x y} = U_x U_y U_x, decided in
    float64 on the samples lifted as the constants; None without float64
    matrices or when B^6 k >= 2^53, B >= 1 the largest lifted |x_i|, |y_i|.
    Over Z/m the sides are compared by residue: np.fmod is exact, and two
    residues differ by less than 2m < 2^53, so their difference is too."""
    ctx = data._u_tensors
    if ctx is None:
        return None
    import numpy as np

    m = ctx["modulus"]
    pairs = np.array(pairs, dtype=np.float64)
    pairs = np.where(2 * pairs > m, pairs - m, pairs)
    if max(1, int(abs(pairs).max())) ** 6 * ctx["bound"] >= _FLOAT_EXACT:
        return None
    Ux, Uy = _u_batch(ctx, pairs[:, 0]), _u_batch(ctx, pairs[:, 1])
    lhs = _u_batch(ctx, (Ux @ pairs[:, 1, :, None])[:, :, 0])
    rhs = Ux @ Uy @ Ux
    same = np.fmod(np.fmod(lhs, m) - np.fmod(rhs, m), m) == 0 if m else lhs == rhs
    return same.all(axis=(1, 2)).tolist()


def validate_axioms(data, mode="strict", seed=DEFAULT_SEED):
    """Run the cubic-norm-structure axiom suite.

    The base point (N(1) = 1 and 1# = 1) is decided directly.  The
    gradient law reads CubicData.gradient_law in either mode: the strict
    verdict that construction decided, or that an unchecked structure
    decides on first use.  Each of unit-id and adjoint gets
    identities.check_identity's verdict in the mode: strict mode decides it
    as a polynomial law and samples it only above the cost guard; sampled
    mode evaluates a few seeded points first and decides strictly what they
    do not refute, inside the guard.  A law of _IMPLIED_BY whose premises
    all hold with mode strict is then reported as implied, not checked;
    otherwise bilinear-adjoint and sharp-cross get their own verdict the
    same way, and the fundamental formula is sampled
    (fundamental_formula_samples).
    The details record each law's mode: strict, sampled or implied.

    The polarizations.  Let f(x) = x## - N(x) x and g(x, y) = N(x; y) -
    T(x#, y), the adjoint and the gradient law.  Expanding f(x + t y) with
    (x + t y)# = x# + t x x y + t^2 y# and N(x + t y) = N(x) + t N(x; y)
    + t^2 N(y; x) + t^3 N(y) gives, as polynomial laws,

      [t] f(x + t y)   = x# x (x x y) - N(x; y) x - N(x) y,
      [t^2] f(x + t y) = (x x y)# + x# x y# - N(y; x) x - N(x; y) y,

    so that the sharp-cross and bilinear-adjoint laws are

      SC(x, y) = x# x (x x y) - T(x#, y) x - N(x) y
               = [t] f(x + t y) + g(x, y) x,
      BA(x, y) = (x x y)# + x# x y# - T(x#, y) y - T(x, y#) x
               = [t^2] f(x + t y) + g(x, y) y + g(y, x) x.

    A polynomial law that vanishes still vanishes after x -> x + t y (N.
    Roby, Ann. Sci. ENS 80, 1963), and so does each coefficient in t.  So
    when f and g vanish, so do SC and BA, in every characteristic.

    The fundamental formula.  This is McCrimmon's theorem (K. McCrimmon,
    Trans. AMS 139, 1969; the cubic norm structures of
    Garibaldi-Petersson-Racine, Albert algebras over commutative rings):
    let N be a cubic form with a quadratic adjoint # and a base point 1,
    T(y) = N(1; y) and T(x, y) = T(x)T(y) - T(x x y).  If, as polynomial
    laws,

      N(1) = 1 and 1# = 1,       x## = N(x) x,
      1 x y = T(y) 1 - y,         N(x; y) = T(x#, y),

    then U_x y = T(x, y) x - x# x y satisfies U_{U_x y} = U_x U_y U_x in
    every scalar extension.  Under the unit and gradient identities this
    T(x, y) is the book's bilinear trace T(x)T(y) - N(1; x, y), with
    N(1; x, y) the coefficient of s t in N(1 + s x + t y): both give
    T(x x y) = N(1; x, y).
    """
    basepoint = data._basepoint_failure() is None
    verdicts = {"basepoint": Verdict(basepoint), "gradient": data.gradient_law}
    for name in ("unit-id", "adjoint", "bilinear-adjoint", "sharp-cross", "fundamental"):
        premises = [verdicts[p] for p in _IMPLIED_BY.get(name, ())]
        if premises and all(v.holds and v.mode == "strict" for v in premises):
            verdicts[name] = Verdict(True, mode="implied")
        elif name == "fundamental":
            verdicts[name] = fundamental_formula_samples(data, samples=200, seed=seed)
        else:
            verdicts[name] = _axiom_verdict(data, CUBIC_IDENTITIES[name], mode, seed)

    results = {"basepoint": "Holds" if basepoint else "Fails"}
    first_fail = None
    for name in ("unit-id", "gradient", "bilinear-adjoint", "sharp-cross", "fundamental", "adjoint"):
        v = verdicts[name]
        results[name] = f"{'Holds' if v.holds else 'Fails'} ({v.mode})"
        if not v.holds and first_fail is None:
            first_fail = (name, v.witness)
    holds = all(v.holds for v in verdicts.values())
    return Verdict(holds, witness=first_fail, mode=mode, details=results)


def _axiom_verdict(data, ident, mode, seed):
    """The verdict of identities.check_identity in the mode; in strict mode
    above the cost guard, the sampled one."""
    try:
        return check_identity(data, ident, mode, seed)
    except CostGuardError:
        return sampled_identity_check(data, ident, seed=seed)
