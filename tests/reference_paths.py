"""Independent references for the fast paths of octad.

These are the per-subset strict checker and the inclusion-exclusion
structure extraction that the library used before it read every
coefficient from one evaluation at the generic element sum_i t_i e_i,
the rational Fincke-Pohst search, lattice element and half-norm split
that the library used before its lattice kernels ran on ints, a scan for
lattice units over a proven coordinate box, the
degree-2 polarization loop that conic algebras ran at construction
before they called the strict checker, and the basis-pair loops that
built Cayley-Dickson doubles and Zorn(k) before conic.build_conic read
them from the generic element, and the sampled identity check as it drew
one R.rand per coordinate before the samplers drew in bulk
(Ring.rand_vec), and the norm gradient that CubicData built by hand
before it read every derivative from TermMap.gradient, and the GF(2)
census loop that built and classified one element per point before
her3.census_f2 evaluated the stored forms on bit lanes.  They are kept
verbatim so that the tests can compare the two; only their dense
constants now pass through dense_layout into the terms the library
stores.  The grid check of the associative cubic
input laws is new: a complete reference over ZZ for dimensions <= 3.  So
is canonical, the payload form every scalar ring's validate returns, which
the kernels on native numbers must return too.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from math import isqrt

from octad.conic import ConicAlgebra
from octad.cubic import CubicData
from octad.extensions import DualExt, PolyExt
from octad.her3 import her3
from octad.identities import CostGuardError, Verdict, _resolve, multiset_count
from octad.linalg import TermMap, add_vec, basis, inverse_rational, scale_vec, solve_rational, sub_vec, vec_eq, vec_is_zero
from octad.quadforms import QuadraticForm
from octad.scalars import GF
from octad.zorn import _Entries, _product, _to_coords
from octad.zorders import _EPS_TO_U

from dense_layout import dense_cubic, table_products


def strict_identity_check_by_subsets(algebra, ident, cost_guard=10**6):
    """Decide whether the identity vanishes as a polynomial law.

    Returns Holds, or Fails with the lexicographically smallest witness:
    a tuple of basis-index multisets, one per variable.
    """
    ident = _resolve(ident)
    n = algebra.dim
    if ident.total_degree > 4 and n > 12:
        raise CostGuardError(
            "identities of total degree > 4 on dim > 12 require sampled mode"
        )
    if multiset_count(n, ident.multidegree) > cost_guard:
        raise CostGuardError(
            f"{ident.name}: {multiset_count(n, ident.multidegree)} multisets "
            f"exceed the guard ({cost_guard}); use sampled mode"
        )
    R = algebra.ring
    degs = ident.multidegree
    # variable slots that need formal variables (degree >= 2)
    poly_slots = [v for v, d in enumerate(degs) if d >= 2]
    nvars_per_slot = {v: min(degs[v], n) for v in poly_slots}
    total_vars = sum(nvars_per_slot.values())
    cap = sum(degs)
    L = PolyExt(R, total_vars, cap) if total_vars else R

    subset_iters = []
    for v, d in enumerate(degs):
        if d >= 2:
            subset_iters.append(list(itertools.combinations(range(n), nvars_per_slot[v])))
        else:
            subset_iters.append([(i,) for i in range(n)])

    failures = []
    for combo in itertools.product(*subset_iters):
        var_offset = 0
        vectors = []
        for v, d in enumerate(degs):
            support = combo[v]
            if d >= 2:
                vec = [L.zero] * n
                for t, idx in enumerate(support):
                    vec[idx] = L.var(var_offset + t)
                var_offset += len(support)
                vectors.append(vec)
            else:
                vec = [L.zero] * n
                vec[support[0]] = L.one
                vectors.append(vec)
        value = ident.evaluate(algebra, L, vectors)
        rows = [value] if ident.scalar else value
        bad = _nonzero_monomials(L, rows, total_vars)
        for exps in bad:
            failures.append(_witness_from(combo, degs, exps, nvars_per_slot))
    if not failures:
        return Verdict(True, mode="strict", details={"identity": ident.name})
    witness = min(failures)
    return Verdict(False, witness=witness, mode="strict", details={"identity": ident.name})


def sampled_identity_check_by_coordinates(algebra, ident, seed, samples=200):
    """Evaluate the identity at seeded random points, one R.rand call per
    coordinate; exact equality."""
    ident = _resolve(ident)
    R = algebra.ring
    rng = random.Random(seed)
    n = algebra.dim
    for trial in range(samples):
        vectors = [[R.rand(rng) for _ in range(n)] for _ in ident.multidegree]
        value = ident.evaluate(algebra, R, vectors)
        rows = [value] if ident.scalar else value
        for c in rows:
            if not R.is_zero(c):
                return Verdict(
                    False,
                    witness=tuple(tuple(R.render(x) for x in v) for v in vectors),
                    mode="sampled",
                    details={"identity": ident.name, "trial": trial, "seed": seed},
                )
    return Verdict(True, mode="sampled", details={"identity": ident.name, "samples": samples, "seed": seed})


def _nonzero_monomials(L, rows, total_vars):
    if total_vars == 0:
        # plain ring evaluation: any nonzero coordinate is a failure
        for c in rows:
            if not L.is_zero(c):
                return [()]
        return []
    bad = set()
    for poly in rows:
        bad.update(poly)
    return sorted(exponents(L, key) for key in bad)


def canonical(R, v):
    """Whether the payload v of the scalar ring R is in canonical form:
    R.validate keeps it, value and type, so an integral QQ value is an
    int and a Z/n or GF(p) value a residue in [0, n)."""
    c = R.validate(v)
    return c == v and type(c) is type(v)


def exponents(L, key):
    """The exponent tuple (e_0, ..., e_{m-1}) of a packed monomial key of
    the PolyExt L, read field by field from the layout, independently of
    L.factors."""
    w = L._width
    mask = (1 << w) - 1
    return tuple((key >> (w * i)) & mask for i in range(L.nvars))


def _witness_from(combo, degs, exps, nvars_per_slot):
    """Map a monomial exponent tuple back to per-variable index multisets."""
    witness = []
    pos = 0
    for v, d in enumerate(degs):
        support = combo[v]
        if d >= 2:
            k = nvars_per_slot[v]
            part = []
            for t in range(k):
                part.extend([support[t]] * (exps[pos + t] if exps else 0))
            pos += k
            witness.append(tuple(part))
        else:
            witness.append((support[0],))
    return tuple(witness)


def build_cubic_by_inclusion_exclusion(ring, dim, basepoint, sharp_fn, norm_fn, name="cubic"):
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

    return dense_cubic(
        CubicData, ring, dim, basepoint, sharp_basis, cross_pairs, n_single, n_dir, n_triple, name=name
    )


def _fincke_pohst(diag, low, target):
    """Integer points with sum_i d_i (x_i + sum_{j>i} L_ji x_j)^2 == target."""
    n = len(diag)
    results = []
    coords = [0] * n

    def descend(level, remaining):
        if level < 0:
            if remaining == 0:
                results.append(tuple(coords))
            return
        # center c = sum_{j>level} L[j][level] x_j
        c = Fraction(0)
        for j in range(level + 1, n):
            c += low[j][level] * coords[j]
        # d * (x + c)^2 <= remaining
        bound2 = remaining / diag[level]
        # |x + c| <= sqrt(bound2): conservative integer window, exact test inside
        root = _floor_sqrt_frac(bound2) + 1
        lo = -root - _ceil_frac(c)
        hi = root - _floor_frac(c) + 1
        for x in range(lo - 1, hi + 1):
            val = diag[level] * (x + c) ** 2
            if val <= remaining:
                coords[level] = x
                descend(level - 1, remaining - val)
        coords[level] = 0

    descend(n - 1, target)
    return results


def _floor_sqrt_frac(x):
    if x < 0:
        return -1
    return isqrt(x.numerator // x.denominator) + 1


def _ceil_frac(x):
    return -((-x.numerator) // x.denominator)


def _floor_frac(x):
    return x.numerator // x.denominator


def box_bound(gram, target):
    """Proven sup-norm bound: x^T G x = t implies |x_i|^2 <= t * (G^-1)_ii."""
    inv = inverse_rational(gram)
    bound2 = target * max(inv[i][i] for i in range(len(gram)))
    return isqrt(bound2.numerator // bound2.denominator) + 2


def units_by_box_scan(lattice):
    """The lattice points of norm 1, by a scan of the box of box_bound."""
    bound = box_bound(lattice.gram, Fraction(2))
    out = []
    for c in itertools.product(range(-bound, bound + 1), repeat=lattice.rank):
        if lattice.ambient.norm.eval_payload(lattice.element(c).coords) == 1:
            out.append(c)
    return [lattice.element(c) for c in sorted(out)]


def element_by_fraction_sum(lattice, int_coords):
    """ZLattice.element as the sum of Fraction products over the basis."""
    int_coords = list(int_coords)
    if len(int_coords) != lattice.rank:
        raise ValueError(f"expected {lattice.rank} coordinates, got {len(int_coords)}")
    out = [Fraction(0)] * lattice.ambient.dim
    for c, row in zip(int_coords, lattice.basis):
        for k in range(lattice.ambient.dim):
            out[k] += Fraction(c) * row[k]
    return lattice.ambient.element(out)


def ambient_to_eps_by_solve(vec):
    mat = [list(col) for col in zip(*_EPS_TO_U)]
    return solve_rational(mat, [Fraction(c) for c in vec])


def unit_type_split_by_solve(lattice, units):
    """Partition unit elements by integrality of their half-norm coordinates."""
    integer_type, half_type = [], []
    for e in units:
        eps = ambient_to_eps_by_solve(e.coords)
        if all(c.denominator == 1 for c in eps):
            integer_type.append(e)
        else:
            half_type.append(e)
    return integer_type, half_type


def check_degree2_by_polarization(alg):
    """Strict degree-2 check: x^2 - t(x)x + n(x)1 on the basis vectors and
    its polarization on their pair sums, which decide a quadratic map."""
    R = alg.ring

    def deg2(x):
        sq = alg.mul_vec(x, x)
        tx = alg.trace_lin(x)
        nx = alg.norm.eval_payload(x)
        out = sub_vec(R, sq, scale_vec(R, tx, x))
        return add_vec(R, out, scale_vec(R, nx, alg.unit))

    for i in range(alg.dim):
        ei = basis(R, alg.dim, i)
        if not vec_is_zero(R, deg2(ei)):
            return Verdict(False, witness=((i, i),), mode="strict")
    for i in range(alg.dim):
        for j in range(i + 1, alg.dim):
            ei = basis(R, alg.dim, i)
            ej = basis(R, alg.dim, j)
            s = deg2(add_vec(R, ei, ej))
            s = sub_vec(R, s, deg2(ei))
            s = sub_vec(R, s, deg2(ej))
            if not vec_is_zero(R, s):
                return Verdict(False, witness=((i, j),), mode="strict")
    return Verdict(True, mode="strict")


GRID = (-1, 0, 1, 2)


def assoc_input_failures_on_grid(A):
    """The laws of an associative cubic input over ZZ that fail, in the
    validator's order: the unit and associativity on basis vectors (they
    are linear in each argument), and x# x = x x# = N(x) 1 and
    T(x, y) = T(xy) on the grid GRID^dim.  A polynomial of degree <= 3 in
    each variable that vanishes on four integers per coordinate is zero,
    so the grid decides both laws."""
    R, n, data = A.ring, A.dim, A.data
    one = data.basepoint
    e = [basis(R, n, i) for i in range(n)]
    grid = [list(p) for p in itertools.product(GRID, repeat=n)]

    def unit(x):
        return vec_eq(R, A.mul_vec(one, x), x) and vec_eq(R, A.mul_vec(x, one), x)

    def associative(xyz):
        x, y, z = xyz
        return vec_eq(R, A.mul_vec(A.mul_vec(x, y), z), A.mul_vec(x, A.mul_vec(y, z)))

    def adjoint(x):
        sx = data.sharp_vec(x)
        want = scale_vec(R, data.norm_payload(x), one)
        return vec_eq(R, A.mul_vec(sx, x), want) and vec_eq(R, A.mul_vec(x, sx), want)

    def trace(xy):
        x, y = xy
        return data.trace_bilin(x, y) == data.trace_lin(A.mul_vec(x, y))

    laws = (
        ("unit", unit, e),
        ("associative", associative, itertools.product(e, repeat=3)),
        ("adjoint", adjoint, grid),
        ("trace", trace, itertools.product(grid, repeat=2)),
    )
    return [name for name, law, points in laws if not all(map(law, points))]


def cayley_dickson_by_basis_pairs(base, mu):
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

    # QuadraticForm.direct_sum(base.norm, base.norm.scale(R.neg(mu_p))), inlined
    minus_mu = R.neg(mu_p)
    coeffs = dict(base.norm.coeffs)
    for (i, j), c in base.norm.coeffs.items():
        coeffs[(i + m, j + m)] = R.mul(minus_mu, c)
    norm = QuadraticForm(R, n, coeffs)
    unit = pad(base.unit, [R.zero] * m)
    alg = ConicAlgebra(R, n, table_products(table), unit, norm, name=f"cay({base.name},{R.render(mu_p)})")
    alg.cd_base = base
    alg.cd_mu = mu_p
    return alg


# Basis order fixed by the spanning set: E, 1-E, X1, X2, X3, E X1, E X2, E X3,
# as Zorn entries (a1, u2, u1, a2) with X_i = [[0, -e_i], [e_i, 0]] for
# i = 1, 2 and X3 = X1 X2.
def _zorn_basis(R):
    z = [R.zero] * 3
    E = _Entries(R.one, z, z, R.zero)
    Ebar = _Entries(R.zero, z, z, R.one)
    es = [[R.one if k == i else R.zero for k in range(3)] for i in range(2)]
    x1, x2 = (_Entries(R.zero, [R.neg(c) for c in e], e, R.zero) for e in es)
    xs = [x1, x2, _product(R, x1, x2)]
    return [E, Ebar] + xs + [_product(R, E, x) for x in xs]


def _zorn_sum(R, x, y):
    return _Entries(
        R.add(x.a1, y.a1),
        [R.add(a, b) for a, b in zip(x.u2, y.u2)],
        [R.add(a, b) for a, b in zip(x.u1, y.u1)],
        R.add(x.a2, y.a2),
    )


def _zorn_norm(R, z):
    return R.add(R.mul(z.a1, z.a2), R.dot(z.u2, z.u1))


def zorn_algebra_by_basis_products(ring):
    """Zorn(k) registered as an 8-dimensional conic algebra."""
    R = ring
    basis = _zorn_basis(R)
    table = []
    for a in basis:
        row = []
        for b in basis:
            row.append(_to_coords(R, _product(R, a, b)))
        table.append(row)
    # n(sum coords * basis) expanded in coordinates
    coeffs = {}
    for i in range(8):
        for j in range(i, 8):
            if i == j:
                v = _zorn_norm(R, basis[i])
            else:
                s = _zorn_norm(R, _zorn_sum(R, basis[i], basis[j]))
                v = R.sub(R.sub(s, _zorn_norm(R, basis[i])), _zorn_norm(R, basis[j]))
            if not R.is_zero(v):
                coeffs[(i, j)] = v
    norm = QuadraticForm(ring, 8, coeffs)
    z = [R.zero] * 3
    unit = _to_coords(R, _Entries(R.one, z, z, R.one))
    return ConicAlgebra(ring, 8, table_products(table), unit, norm, name="zorn")


def norm_gradient(self):
    """x -> (N(x; e_m))_m as a degree-2 map: c x_a x_b x_l (a <= b <= l)
    adds c x_b x_l, c x_a x_l and c x_a x_b to coordinates a, b and l."""
    R = self.ring
    grad = {}
    for (a, b, l), c in self.norm_terms.items():
        for key in ((b, l, a), (a, l, b), (a, b, l)):
            grad[key] = R.add(grad.get(key, R.zero), c)
    return TermMap(R, grad, 2, self.dim)


def census_f2_by_points(C, what):
    """Exhaustive rank-1 / elementary-idempotent counts over GF(2), one
    element per point (without the old n <= 12 cost guard)."""
    if C.ring != GF(2):
        raise ValueError("census requires coefficients over GF(2)")
    n = 3 + 3 * C.dim
    data = her3(C)
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
