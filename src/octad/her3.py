"""3x3 twisted hermitian matrices over a conic algebra, as a cubic Jordan
algebra of dimension 3 + 3 dim(C).

Coordinates are (xi_1, xi_2, xi_3; u_1, u_2, u_3): the element is the
hermitian matrix with diagonal xi_i and, for each cyclic triple (i j l),
(j, l)-entry gamma_l u_i and (l, j)-entry gamma_j conj(u_i).

  adjoint:  diagonal  xi_j xi_l - gamma_j gamma_l n(u_i)
            slot i    -xi_i u_i + gamma_i conj(u_j u_l)
  norm:     xi_1 xi_2 xi_3 - sum gamma_j gamma_l xi_i n(u_i)
            + gamma_1 gamma_2 gamma_3 t(u_1 u_2 u_3)
"""

from __future__ import annotations

import itertools

from .cubic import build_cubic, verify_cubic_iso
from .identities import CostGuardError, associator
from .scalars import GF

_CYCLES = ((0, 1, 2), (1, 2, 0), (2, 0, 1))


class Gamma:
    def __init__(self, ring, entries):
        if len(entries) != 3:
            raise ValueError("Gamma needs three entries")
        self.ring = ring
        self.entries = [ring.coerce(e) for e in entries]
        for e in self.entries:
            if ring.inv(e) is None:
                raise ValueError("Gamma entries must be units")

    def __getitem__(self, i):
        return self.entries[i]

    def __repr__(self):
        return "diag(" + ", ".join(self.ring.render(e) for e in self.entries) + ")"


def her3(C, gamma=None, validate=True):
    """Her_3(C, Gamma) as a CubicData instance.

    C must be a multiplicative conic algebra (strict norm composition) of
    dimension 1, 2, 4 or 8 with the standard conjugation as involution.
    """
    R = C.ring
    if gamma is None:
        gamma = Gamma(R, [1, 1, 1])
    if C.dim not in (1, 2, 4, 8):
        raise ValueError("coefficient algebra must have dimension 1, 2, 4 or 8")
    if validate and not C.is_multiplicative():
        raise ValueError("coefficient algebra is not multiplicative")
    d = C.dim
    n = 3 + 3 * d
    g = gamma.entries

    def split(v):
        xi = v[:3]
        us = [v[3 + i * d : 3 + (i + 1) * d] for i in range(3)]
        return xi, us

    def sharp_fn(L, v):
        xi, us = split(v)
        lg = [L.from_base(c) for c in g]
        out_xi = []
        out_us = []
        for (i, j, l) in _CYCLES:
            nu = C.norm_payload(us[i], L)
            out_xi.append(L.sub(L.mul(xi[j], xi[l]), L.mul(L.mul(lg[j], lg[l]), nu)))
            prod = C.mul_vec(us[j], us[l], L)
            cj = C.conj_vec(prod, L)
            slot = [L.add(L.neg(L.mul(xi[i], a)), L.mul(lg[i], b)) for a, b in zip(us[i], cj)]
            out_us.append(slot)
        return out_xi + out_us[0] + out_us[1] + out_us[2]

    def norm_fn(L, v):
        xi, us = split(v)
        lg = [L.from_base(c) for c in g]
        acc = L.mul(L.mul(xi[0], xi[1]), xi[2])
        for (i, j, l) in _CYCLES:
            nu = C.norm_payload(us[i], L)
            acc = L.sub(acc, L.mul(L.mul(L.mul(lg[j], lg[l]), xi[i]), nu))
        trip = C.trace_payload(C.mul_vec(C.mul_vec(us[0], us[1], L), us[2], L), L)
        ggg = L.mul(L.mul(lg[0], lg[1]), lg[2])
        return L.add(acc, L.mul(ggg, trip))

    basepoint = [R.one] * 3 + [R.zero] * (3 * d)
    data = build_cubic(R, n, basepoint, sharp_fn, norm_fn, name=f"her3({C.name})")
    data.coeff_algebra = C
    data.gamma = gamma
    return data


def element_from_parts(data, xi, us):
    C = data.coeff_algebra
    coords = list(xi)
    for u in us:
        coords.extend(u.coords if hasattr(u, "coords") else u)
    return data.element(coords)


def parts_of(x):
    data = x.algebra
    C = data.coeff_algebra
    d = C.dim
    xi = x.coords[:3]
    us = [C.element(x.coords[3 + i * d : 3 + (i + 1) * d]) for i in range(3)]
    return xi, us


def as_matrix(x):
    """The honest Mat_3(C) realization of a hermitian element."""
    data = x.algebra
    C = data.coeff_algebra
    R = data.ring
    g = data.gamma.entries
    xi, us = parts_of(x)
    mat = [[None] * 3 for _ in range(3)]
    for i in range(3):
        mat[i][i] = C.element([R.mul(xi[i], c) for c in C.unit])
    for (i, j, l) in _CYCLES:
        mat[j][l] = C.element([R.mul(g[l], c) for c in us[i].coords])
        mat[l][j] = C.element([R.mul(g[j], c) for c in C.conj_vec(us[i].coords)])
    return mat


def matrix_mul(C, A, B):
    """Entrywise matrix product in Mat_3(C); C may be nonassociative."""
    out = [[None] * 3 for _ in range(3)]
    for i in range(3):
        for j in range(3):
            acc = C.zero()
            for k in range(3):
                acc = acc + C.mul(A[i][k], B[k][j])
            out[i][j] = acc
    return out


def associator_defect(x):
    """x# x - N(x) 1 inside Mat_3(C), asserted to be the scalar matrix
    gamma_1 gamma_2 gamma_3 [u_1, u_2, u_3] 1_3; returns the associator
    value as an element of C.
    """
    data = x.algebra
    C = data.coeff_algebra
    R = data.ring
    g = data.gamma.entries
    xi, us = parts_of(x)
    sharp = data.element(data.sharp_vec(x.coords))
    M = matrix_mul(C, as_matrix(sharp), as_matrix(x))
    nx = data.norm_payload(x.coords)
    a = associator(C, R, *(u.coords for u in us))
    ggg = R.mul(R.mul(g[0], g[1]), g[2])
    expected_diag = C.element(
        [R.add(R.mul(nx, e), R.mul(ggg, c)) for e, c in zip(C.unit, a)]
    )
    for i in range(3):
        for j in range(3):
            want = expected_diag if i == j else C.zero()
            if M[i][j] != want:
                raise AssertionError("matrix identity for x# x failed")
    return C.element([R.mul(ggg, c) for c in a])


def census_f2(C, what):
    """Exhaustive rank-1 / elementary-idempotent counts over GF(2).

    Cost guard: total dimension at most 12.
    """
    data = her3(C)
    if data.ring != GF(2):
        raise ValueError("census requires coefficients over GF(2)")
    n = data.dim
    if n > 12:
        raise CostGuardError("dimension must be <= 12")
    count = 0
    for bits in itertools.product((0, 1), repeat=n):
        x = data.element(list(bits))
        if what == "rank1":
            if data.rank(x) == 1:
                count += 1
        elif what == "elementary_idempotents":
            if not x.is_zero() and data.is_idempotent(x) and data.idem_class(x) == "Elementary":
                count += 1
        else:
            raise ValueError(f"unknown census {what!r}")
    return count


def norm_histogram(data):
    """Norm-value histogram over all elements (finite base rings only)."""
    R = data.ring
    hist = {}
    for coords in itertools.product(list(R.elements()), repeat=data.dim):
        v = R.render(data.norm_payload(list(coords)))
        hist[v] = hist.get(v, 0) + 1
    return hist


def diag_rescale(C, gamma, delta):
    """Rescaled parameter Gamma' and the verified coordinate isomorphism.

    Gamma'_i = delta_j delta_l delta_i^{-1} gamma_i; the map fixes the
    diagonal and sends u_i to delta_i^{-1} u_i.  Verified to preserve the
    base point and adjoints on basis vectors and pair sums.
    """
    R = C.ring
    dinv = []
    for e in delta.entries:
        iv = R.inv(e)
        if iv is None:
            raise ValueError("delta entries must be units")
        dinv.append(iv)
    new_gamma = Gamma(
        R,
        [
            R.mul(R.mul(delta.entries[j], delta.entries[l]), R.mul(dinv[i], gamma.entries[i]))
            for (i, j, l) in _CYCLES
        ],
    )
    src = her3(C, gamma, validate=False)
    dst = her3(C, new_gamma, validate=False)
    d = C.dim

    def apply(x):
        xi = x.coords[:3]
        out = list(xi)
        for i in range(3):
            u = x.coords[3 + i * d : 3 + (i + 1) * d]
            out.extend(R.mul(dinv[i], c) for c in u)
        return dst.element(out)

    verify_cubic_iso(src, dst, apply)
    return new_gamma, apply, src, dst


def is_positive_definite(x):
    """Seven-minor criterion over an ordered base ring, Gamma = 1 only:
    the three diagonal entries, the three diagonal entries of the
    adjoint, and the norm must all be positive.
    """
    data = x.algebra
    R = data.ring
    if not R.is_ordered:
        raise ValueError("positivity needs an ordered base ring")
    g = data.gamma.entries
    if any(not R.eq(e, R.one) for e in g):
        raise ValueError("positivity criterion is implemented for Gamma = 1")
    xi = x.coords[:3]
    sharp = data.sharp_vec(x.coords)
    minors = list(xi) + sharp[:3] + [data.norm_payload(x.coords)]
    return all(R.sign(m) > 0 for m in minors)


def pretty(x):
    mat = as_matrix(x)
    return "\n".join(" | ".join(repr(mat[i][j]) for j in range(3)) for i in range(3))
