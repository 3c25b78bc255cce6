"""The first Tits construction J(A, mu) over associative cubic input.

Elements are triples (x0, x1, x2) over A with

  N(x)  = N_A(x0) + mu N_A(x1) + mu^2 N_A(x2) - mu T_A(x0, x1 x2)
  x#    = (x0# - mu x1 x2,  mu x2# - x0 x1,  x1# - x2 x0)
  T(x,y)= T_A(x0,y0) + mu T_A(x1,y2) + mu T_A(x2,y1)

Only associative inputs are accepted.  The input validator decides four
polynomial laws with the strict checker (identities.strict_identity_check):
the base point is a two-sided unit, the product is associative, the
adjoint satisfies x# x = x x# = N(x) 1, and the derived bilinear trace
agrees with the multiplication trace, T(x, y) = T(xy).
"""

from __future__ import annotations

import functools
import itertools

from .conic import UNIT_LAW, ConicAlgebra
from .cubic import build_cubic, k_cubic, verify_cubic_iso
from .extensions import lift_vec
from .identities import CONIC_IDENTITIES, IdentitySpec, require_law
from .linalg import TermMap, scale_vec, sub_vec


class CubicAssocInput:
    """A cubic norm structure together with an associative multiplication,
    given like a conic algebra's by its nonzero products {(a, b, k): c}."""

    def __init__(self, data, products, name="assoc"):
        self.data = data
        self.ring = data.ring
        self.dim = data.dim
        self.name = name
        self.unit = data.basepoint
        self._product = TermMap(self.ring, products, 2, self.dim)
        self.products = self._product.terms
        self._validate()

    # the same structure-constant product as a conic algebra's
    mul_vec = ConicAlgebra.mul_vec

    def _validate(self):
        require_law(self, UNIT_LAW, "unit law for the base point")
        require_law(self, CONIC_IDENTITIES["associative"], "associativity")
        require_law(self, ADJOINT_LAW, "x# x = x x# = N(x) 1")
        require_law(self, TRACE_LAW, "T(x, y) = T(xy)")


def _adjoint_law(alg, L, vs):
    """x# x - N(x) 1 and x x# - N(x) 1, stacked."""
    (x,) = vs
    data = alg.data
    sx = data.sharp_vec(x, L)
    n1 = scale_vec(L, data.norm_payload(x, L), lift_vec(L, alg.unit))
    return sub_vec(L, alg.mul_vec(sx, x, L), n1) + sub_vec(L, alg.mul_vec(x, sx, L), n1)


def _trace_law(alg, L, vs):
    x, y = vs
    return L.sub(alg.data.trace_bilin(x, y, L), alg.data.trace_lin(alg.mul_vec(x, y, L), L))


ADJOINT_LAW = IdentitySpec("adjoint-compat", (3,), _adjoint_law)
TRACE_LAW = IdentitySpec("trace-compat", (1, 1), _trace_law, scalar=True)


@functools.lru_cache(maxsize=None, typed=True)
def k_assoc(ring):
    """The ring itself as associative cubic input (norm = cube)."""
    data = k_cubic(ring)
    return CubicAssocInput(data, {(0, 0, 0): ring.one}, name="k_assoc")


@functools.lru_cache(maxsize=None, typed=True)
def mat3(ring):
    """Mat_3(k) with determinant norm and classical-adjoint sharp."""
    n = 9

    def idx(i, j):
        return 3 * i + j

    def sharp_fn(L, v):
        # classical adjoint: adj_{ij} = (-1)^{i+j} det(minor with row j, col i removed)
        def m(i, j):
            return v[idx(i, j)]

        out = [L.zero] * 9
        for i in range(3):
            for j in range(3):
                i1, i2 = [a for a in range(3) if a != j]
                j1, j2 = [a for a in range(3) if a != i]
                c = L.sub(
                    L.mul(m(i1, j1), m(i2, j2)),
                    L.mul(m(i1, j2), m(i2, j1)),
                )
                out[idx(i, j)] = c if (i + j) % 2 == 0 else L.neg(c)
        return out

    def norm_fn(L, v):
        # cofactor expansion along row 0: det M = sum_j M_0j adj(M)_j0
        return L.dot(v[:3], sharp_fn(L, v)[::3])

    basepoint = [ring.one if i in (0, 4, 8) else ring.zero for i in range(9)]
    data = build_cubic(ring, 9, basepoint, sharp_fn, norm_fn, name="mat3")
    # matrix units: e_{ij} e_{jl} = e_{il}, every other product of two is zero
    products = {(idx(i, j), idx(j, l), idx(i, l)): ring.one for i, j, l in itertools.product(range(3), repeat=3)}
    return CubicAssocInput(data, products, name="mat3")


@functools.lru_cache(maxsize=None, typed=True)
def tits(A, mu):
    """J(A, mu) on A^3; mu must be a unit."""
    R = A.ring
    mu_p = R.coerce(mu)
    if R.inv(mu_p) is None:
        raise ValueError("mu must be a unit")
    m = A.dim
    n = 3 * m
    base = A.data

    def split(v):
        return v[:m], v[m : 2 * m], v[2 * m :]

    def sharp_fn(L, v):
        x0, x1, x2 = split(v)
        lmu = L.from_base(mu_p)
        s0 = base.sharp_vec(x0, L)
        s1 = base.sharp_vec(x1, L)
        s2 = base.sharp_vec(x2, L)
        p12 = A.mul_vec(x1, x2, L)
        p01 = A.mul_vec(x0, x1, L)
        p20 = A.mul_vec(x2, x0, L)
        out0 = [L.sub(a, L.mul(lmu, b)) for a, b in zip(s0, p12)]
        out1 = [L.sub(L.mul(lmu, a), b) for a, b in zip(s2, p01)]
        out2 = sub_vec(L, s1, p20)
        return out0 + out1 + out2

    def norm_fn(L, v):
        x0, x1, x2 = split(v)
        lmu = L.from_base(mu_p)
        acc = base.norm_payload(x0, L)
        acc = L.add(acc, L.mul(lmu, base.norm_payload(x1, L)))
        acc = L.add(acc, L.mul(L.mul(lmu, lmu), base.norm_payload(x2, L)))
        t = base.trace_bilin(x0, A.mul_vec(x1, x2, L), L)
        return L.sub(acc, L.mul(lmu, t))

    basepoint = list(base.basepoint) + [R.zero] * (2 * m)
    data = build_cubic(R, n, basepoint, sharp_fn, norm_fn, name=f"tits({A.name})")
    data.tits_input = A
    data.tits_mu = mu_p
    return data


def split_albert(ring):
    """J(Mat_3(k), 1): the 27-dimensional split Albert algebra."""
    return tits(mat3(ring), 1)


def char3_nilpotence_demo(ring):
    """In J(k, 1) with 3 = 0: x = j1 - 1 has x^2 != 0 but x^3 = 0."""
    if not ring.is_zero(ring.from_int(3)):
        raise ValueError("requires a base ring with 3 = 0")
    J = tits(k_assoc(ring), 1)
    x = J.element([ring.neg(ring.one), ring.one, ring.zero])
    x2 = J.power(x, 2)
    x3 = J.power(x, 3)
    if x.is_zero() or x2.is_zero():
        raise AssertionError("witness degenerated")
    if not x3.is_zero():
        raise AssertionError("cube does not vanish")
    return J, x, x2, x3


def render_triple(J, x):
    """Display an element as its three input-algebra components."""
    A = J.tits_input
    m = A.dim
    R = J.ring
    parts = []
    for t in range(3):
        chunk = x.coords[t * m : (t + 1) * m]
        parts.append("(" + ", ".join(R.render(c) for c in chunk) + ")")
    return f"{parts[0]} + {parts[1]} j1 + {parts[2]} j2"


def mu_rescale_map(A, mu, p):
    """The verified isomorphism J(A, N_A(p) mu) -> J(A, mu).

    Sends x0 + x1 j1 + x2 j2 to x0 + (x1 p) j1 + (p# x2) j2; requires p
    invertible in A (N_A(p) a unit).
    """
    R = A.ring
    p_vec = A.data._coords(p) if hasattr(p, "coords") else [R.coerce(c) for c in p]
    np_ = A.data.norm_payload(p_vec)
    if R.inv(np_) is None:
        raise ValueError("p must be invertible in A")
    mu_p = R.coerce(mu)
    src = tits(A, R.mul(np_, mu_p))
    dst = tits(A, mu_p)
    m = A.dim
    sharp_p = A.data.sharp_vec(p_vec)

    def apply(x):
        x0 = x.coords[:m]
        x1 = x.coords[m : 2 * m]
        x2 = x.coords[2 * m :]
        y1 = A.mul_vec(x1, p_vec)
        y2 = A.mul_vec(sharp_p, x2)
        return dst.element(list(x0) + y1 + y2)

    verify_cubic_iso(src, dst, apply)
    return src, dst, apply
