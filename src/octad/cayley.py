"""Cayley-Dickson doubling, classical quaternions/octonions/sedenions,
norm-composition defect and the pinned sedenion zero-divisor pair.
"""

from __future__ import annotations

from .conic import ConicAlgebra, ConicElement
from .linalg import add_vec, basis, scale_vec, sub_vec, vec_eq
from .quadforms import QuadraticForm
from .scalars import QQ, ZZ


def ground_algebra(ring):
    """The ring itself as a rank-1 conic algebra with norm x^2."""
    norm = QuadraticForm(ring, 1, {(0, 0): ring.one})
    return ConicAlgebra(ring, 1, [[[ring.one]]], [ring.one], norm, name="ground")


def cayley_dickson(base, mu):
    """Cay(B, mu) on coordinates (u, v) ~ u + v*j.

    (u1 + v1 j)(u2 + v2 j) = (u1 u2 + mu conj(v2) v1) + (v2 u1 + v1 conj(u2)) j
    n(u + v j) = n_B(u) - mu n_B(v)
    """
    R = base.ring
    mu_p = R.coerce(mu)
    if R.inv(mu_p) is None:
        raise ValueError("mu must be a unit")
    m = base.dim
    n = 2 * m

    def pad(u, v):
        return list(u) + list(v)

    table = []
    for a in range(n):
        row = []
        ua = basis(R, m, a) if a < m else [R.zero] * m
        va = basis(R, m, a - m) if a >= m else [R.zero] * m
        for b in range(n):
            ub = basis(R, m, b) if b < m else [R.zero] * m
            vb = basis(R, m, b - m) if b >= m else [R.zero] * m
            first = add_vec(
                R,
                base.mul_vec(ua, ub),
                scale_vec(R, mu_p, base.mul_vec(base.conj_vec(vb), va)),
            )
            second = add_vec(R, base.mul_vec(vb, ua), base.mul_vec(va, base.conj_vec(ub)))
            row.append(pad(first, second))
        table.append(row)

    norm = QuadraticForm.direct_sum(base.norm, base.norm.scale(R.neg(mu_p)))
    unit = pad(base.unit, [R.zero] * m)
    alg = ConicAlgebra(R, n, table, unit, norm, name=f"cay({base.name},{R.render(mu_p)})")
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
    u1, v1 = x.coords[: base.dim], x.coords[base.dim :]
    u2, v2 = y.coords[: base.dim], y.coords[base.dim :]
    assoc = sub_vec(
        R,
        base.mul_vec(base.mul_vec(v2, u1), u2),
        base.mul_vec(v2, base.mul_vec(u1, u2)),
    )
    val = R.neg(R.mul(alg.cd_mu, base.norm_bilin_payload(assoc, v1)))
    return R.scalar(val)


def sedenion_zero_divisor_witness(ring=None):
    """The pinned norm-2 pair with zero product in Cay(CS-octonions, -1)."""
    from .conic import cartan_schouten

    if ring is None:
        ring = QQ
    if ring not in (QQ, ZZ):
        raise ValueError("witness is pinned over ZZ or QQ")
    base = cartan_schouten(ring)
    alg = cayley_dickson(base, -1)
    a = alg.element(basis(ring, 8, 1) + basis(ring, 8, 3))
    b = alg.element(basis(ring, 8, 2) + [ring.neg(c) for c in basis(ring, 8, 6)])
    return alg, a, b


class AlgebraMap:
    """A verified linear map between conic algebras (columns = basis images)."""

    def __init__(self, domain, codomain, columns):
        self.domain = domain
        self.codomain = codomain
        self.columns = columns

    def apply(self, x):
        R = self.codomain.ring
        out = [R.zero] * self.codomain.dim
        for i, c in enumerate(x.coords):
            if R.is_zero(c):
                continue
            for k, t in enumerate(self.columns[i]):
                out[k] = R.add(out[k], R.mul(c, t))
        return ConicElement(self.codomain, out)

    def verify_homomorphism(self):
        """Unit, norm and multiplicativity on all basis pairs."""
        dom, cod = self.domain, self.codomain
        R = cod.ring
        if not vec_eq(R, self.apply(dom.one()).coords, cod.unit):
            return False
        for i in range(dom.dim):
            ei = dom.basis_element(i)
            if not R.eq(
                cod.norm.eval_payload(self.apply(ei).coords),
                dom.norm.eval_payload(ei.coords),
            ):
                return False
            for j in range(dom.dim):
                ej = dom.basis_element(j)
                lhs = self.apply(dom.mul(ei, ej))
                rhs = cod.mul(self.apply(ei), self.apply(ej))
                if not vec_eq(R, lhs.coords, rhs.coords):
                    return False
        # norm on basis pairs (bilinear part)
        for i in range(dom.dim):
            for j in range(i + 1, dom.dim):
                ei, ej = dom.basis_element(i), dom.basis_element(j)
                if not R.eq(
                    cod.norm.bilin_payload(self.apply(ei).coords, self.apply(ej).coords),
                    dom.norm.bilin_payload(ei.coords, ej.coords),
                ):
                    return False
        return True


def scale_isomorphism(base, mu, a, nucleus_check=True):
    """u + v j -> u + (a v) j as a map Cay(B, n_B(a) mu) -> Cay(B, mu).

    Requires n_B(a) a unit; for associative B any unit a works.  The map
    is verified on all basis pairs and the check failure signals a
    precondition violation (a outside the nucleus).
    """
    R = base.ring
    na = base.norm.eval_payload(a.coords)
    if R.inv(na) is None:
        raise ValueError("a must have unit norm")
    if nucleus_check:
        for i in range(base.dim):
            for j in range(base.dim):
                ei, ej = base.basis_element(i), base.basis_element(j)
                lhs = base.mul(base.mul(ei, ej), a)
                rhs = base.mul(ei, base.mul(ej, a))
                lhs2 = base.mul(base.mul(ei, a), ej)
                rhs2 = base.mul(ei, base.mul(a, ej))
                lhs3 = base.mul(base.mul(a, ei), ej)
                rhs3 = base.mul(a, base.mul(ei, ej))
                if lhs != rhs or lhs2 != rhs2 or lhs3 != rhs3:
                    raise ValueError("a is not in the nucleus of the base algebra")
    mu_p = R.coerce(mu)
    dom = cayley_dickson(base, R.mul(na, mu_p))
    cod = cayley_dickson(base, mu_p)
    m = base.dim
    columns = []
    for i in range(2 * m):
        if i < m:
            col = basis(R, m, i) + [R.zero] * m
        else:
            av = base.mul_vec(a.coords, basis(R, m, i - m))
            col = [R.zero] * m + av
        columns.append(col)
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
    R = alg.ring
    if not R.is_zero(alg.trace_payload(s.coords)):
        raise ValueError("s must have trace zero")
    from .conic import NOT_INVERTIBLE

    vinv = alg.try_inverse(v)
    if vinv is NOT_INVERTIBLE:
        raise ValueError("v must be invertible")
    return alg.mul(alg.mul(v, s), vinv)
