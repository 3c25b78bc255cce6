"""Cayley-Dickson doubling (through conic.build_conic), classical
quaternions/octonions/sedenions, norm-composition defect, the pinned
sedenion zero-divisor pair, and algebra maps whose laws the strict
checker decides: f(xy) = f(x)f(y), n'(f(x)) = n(x) and the nucleus.
"""

from __future__ import annotations

import functools

from .conic import ConicAlgebra, build_conic, cartan_schouten
from .extensions import lift_vec
from .identities import IdentitySpec, associator, strict_identity_check
from .linalg import LinearMap, ModuleElement, add_vec, basis, scale_vec, sub_vec, vec_eq
from .quadforms import QuadraticForm
from .scalars import NOT_A_UNIT, QQ, ZZ


@functools.lru_cache(maxsize=None, typed=True)
def ground_algebra(ring):
    """The ring itself as a rank-1 conic algebra with norm x^2."""
    norm = QuadraticForm(ring, 1, {(0, 0): ring.one})
    return ConicAlgebra(ring, 1, {(0, 0, 0): ring.one}, [ring.one], norm, name="ground")


@functools.lru_cache(maxsize=None, typed=True)
def cayley_dickson(base, mu):
    """Cay(B, mu) on coordinates (u, v) ~ u + v*j, read by build_conic from
    one evaluation of these formulas at the generic element:

    (u1 + v1 j)(u2 + v2 j) = (u1 u2 + mu conj(v2) v1) + (v2 u1 + v1 conj(u2)) j
    n(u + v j) = n_B(u) - mu n_B(v)
    """
    R = base.ring
    mu_p = R.coerce(mu)
    if R.inv(mu_p) is None:
        raise ValueError("mu must be a unit")
    m = base.dim

    def mul_fn(L, x, y):
        u1, v1, u2, v2 = x[:m], x[m:], y[:m], y[m:]
        mu_v = scale_vec(L, L.from_base(mu_p), base.mul_vec(base.conj_vec(v2, L), v1, L))
        first = add_vec(L, base.mul_vec(u1, u2, L), mu_v)
        return first + add_vec(L, base.mul_vec(v2, u1, L), base.mul_vec(v1, base.conj_vec(u2, L), L))

    def norm_fn(L, x):
        return L.sub(base.norm_payload(x[:m], L), L.mul(L.from_base(mu_p), base.norm_payload(x[m:], L)))

    unit = base.unit + [R.zero] * m
    alg = build_conic(R, 2 * m, unit, mul_fn, norm_fn, name=f"cay({base.name},{R.render(mu_p)})")
    alg.cd_base = base
    alg.cd_mu = mu_p
    return alg


def iterated_cayley_dickson(ring, mus):
    """Cay(k; mu_1, ..., mu_t); basis indices are lexicographic bit-strings."""
    alg = ground_algebra(ring)
    for mu in mus:
        alg = cayley_dickson(alg, mu)
    return alg


def quaternions(ring):
    return iterated_cayley_dickson(ring, [-1, -1])


def octonions(ring):
    return iterated_cayley_dickson(ring, [-1, -1, -1])


def sedenions(ring):
    return iterated_cayley_dickson(ring, [-1, -1, -1, -1])


def composition_defect(x, y):
    """n(xy) - n(x)n(y); equals -mu n_B([v2,u1,u2], v1) in Cay(B, mu)."""
    alg = x.algebra
    if not hasattr(alg, "cd_base"):
        raise ValueError("elements must live in a Cayley-Dickson algebra")
    R = alg.ring
    xy = alg.mul(x, y)
    d = R.sub(
        alg.norm.eval_payload(xy.coords),
        R.mul(alg.norm.eval_payload(x.coords), alg.norm.eval_payload(y.coords)),
    )
    return R.scalar(d)


def composition_defect_formula(x, y):
    """The closed form -mu n_B([v2, u1, u2], v1) for the same defect."""
    alg = x.algebra
    base = alg.cd_base
    R = alg.ring
    y = alg._coords(y)
    u1, v1 = x.coords[: base.dim], x.coords[base.dim :]
    u2, v2 = y[: base.dim], y[base.dim :]
    assoc = associator(base, R, v2, u1, u2)
    val = R.neg(R.mul(alg.cd_mu, base.norm_bilin_payload(assoc, v1)))
    return R.scalar(val)


def sedenion_zero_divisor_witness(ring=None):
    """The pinned norm-2 pair with zero product in Cay(CS-octonions, -1)."""
    if ring is None:
        ring = QQ
    if ring not in (QQ, ZZ):
        raise ValueError("witness is pinned over ZZ or QQ")
    base = cartan_schouten(ring)
    alg = cayley_dickson(base, -1)
    a = alg.element(basis(ring, 8, 1) + basis(ring, 8, 3))
    b = alg.element(basis(ring, 8, 2) + [ring.neg(c) for c in basis(ring, 8, 6)])
    return alg, a, b


class AlgebraMap(LinearMap):
    """A linear map between conic algebras (columns = basis images)."""

    def apply(self, x):
        return ModuleElement(self.codomain, self.apply_vec(x.coords))

    def verify_homomorphism(self):
        """f(1) = 1, and f(xy) = f(x)f(y) and n'(f(x)) = n(x) as laws."""
        if not vec_eq(self.ring, self.apply_vec(self.domain.unit), self.codomain.unit):
            return False
        return all(strict_identity_check(self, law).holds for law in (PRODUCT_LAW, NORM_LAW))


def _product_law(f, L, vs):
    x, y = vs
    lhs = f.apply_vec(f.domain.mul_vec(x, y, L), L)
    return sub_vec(L, lhs, f.codomain.mul_vec(f.apply_vec(x, L), f.apply_vec(y, L), L))


def _norm_law(f, L, vs):
    (x,) = vs
    return L.sub(f.codomain.norm_payload(f.apply_vec(x, L), L), f.domain.norm_payload(x, L))


PRODUCT_LAW = IdentitySpec("f(xy) = f(x)f(y)", (1, 1), _product_law)
NORM_LAW = IdentitySpec("n'(f(x)) = n(x)", (2,), _norm_law, scalar=True)


def nucleus_law(a):
    """[x, y, a], [x, a, y] and [a, x, y], stacked: they all vanish as a
    law iff the payload vector a lies in the nucleus."""

    def evaluate(alg, L, vs):
        x, y = vs
        a_l = lift_vec(L, a)
        return associator(alg, L, x, y, a_l) + associator(alg, L, x, a_l, y) + associator(alg, L, a_l, x, y)

    return IdentitySpec("nucleus", (1, 1), evaluate)


def scale_isomorphism(base, mu, a):
    """u + v j -> u + (a v) j as a map Cay(B, n_B(a) mu) -> Cay(B, mu).

    Requires n_B(a) a unit; for associative B any unit a works.  The map
    is verified as a homomorphism, and the check failure signals a
    precondition violation (a outside the nucleus).
    """
    R = base.ring
    na = base.norm.eval_payload(a.coords)
    if R.inv(na) is None:
        raise ValueError("a must have unit norm")
    if not strict_identity_check(base, nucleus_law(a.coords)).holds:
        raise ValueError("a is not in the nucleus of the base algebra")
    mu_p = R.coerce(mu)
    dom = cayley_dickson(base, R.mul(na, mu_p))
    cod = cayley_dickson(base, mu_p)
    m = base.dim
    columns = [basis(R, m, i) + [R.zero] * m for i in range(m)]
    columns += [[R.zero] * m + base.mul_vec(a.coords, basis(R, m, i)) for i in range(m)]
    fmap = AlgebraMap(dom, cod, columns)
    if not fmap.verify_homomorphism():
        raise ValueError("scale map failed verification (precondition violated)")
    return fmap


def quat_rotate(v, s):
    """Conjugation rotation v s v^{-1}, computed as (v s) v^{-1}.

    Requires v invertible and trace(s) = 0; the result again has trace 0
    and the same norm as s.
    """
    alg = v.algebra
    if not alg.trace(s).is_zero():
        raise ValueError("s must have trace zero")
    vinv = alg.try_inverse(v)
    if vinv is NOT_A_UNIT:
        raise ValueError("v must be invertible")
    return alg.mul(alg.mul(v, s), vinv)
