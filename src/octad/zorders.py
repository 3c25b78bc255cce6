"""Integral Z-structures inside rational conic algebras.

Lattices are given by a rational basis of the ambient algebra; the Gram
matrix is taken with respect to the bilinearized norm, so its diagonal
holds twice the norms of the basis vectors and "discriminant" means its
determinant.  Unit enumeration is exact Fincke-Pohst on integers: the
rational LDL^T data are scaled once to ints, each level's window is exact,
and elements, membership and the half-norm split use integer matrices with
one common denominator.  No floating point anywhere.

NAMED_LATTICES maps the CLI's lattice names to zero-argument builders.
Each builds its lattice once per process, on first use, and then returns
that same ZLattice, which any caller may share: a ZLattice is never
changed after construction.  The public constructors gaussian(),
hurwitz(), dickson_coxeter() and kirmse() build a fresh lattice on every
call.
"""

from __future__ import annotations

import json
from fractions import Fraction
from functools import cache, partial
from math import isqrt, lcm
from operator import mul

from . import linalg
from .cayley import cayley_dickson, ground_algebra
from .conic import cartan_schouten
from .identities import Verdict
from .scalars import QQ


class ZLattice:
    def __init__(self, ambient, basis, name="lattice"):
        if ambient.ring != QQ:
            raise ValueError("ambient algebra must be over QQ")
        self.ambient = ambient
        self.name = name
        self.basis = [[QQ.validate(Fraction(c)) for c in row] for row in basis]
        n = len(self.basis)
        if any(len(row) != ambient.dim for row in self.basis):
            raise ValueError("basis rows must live in the ambient algebra")
        self.rank = n
        self._basis_T = [list(col) for col in zip(*self.basis)]
        self._int_basis_T = _over_common_den(self._basis_T)
        if n != ambient.dim:
            raise ValueError("only full-rank lattices are supported")
        inv = linalg.inverse_rational(self._basis_T)
        if inv is None:
            raise ValueError("basis rows must be linearly independent")
        self._basis_T_inv = _over_common_den(inv)
        self.gram = [
            [ambient.norm.bilin_payload(self.basis[i], self.basis[j]) for j in range(n)]
            for i in range(n)
        ]
        self.disc = linalg.det(QQ, self.gram)
        norms = [ambient.norm.eval_payload(row) for row in self.basis]
        self.integral = all(c.denominator == 1 for c in norms + [c for row in self.gram for c in row])

    # -- membership -----------------------------------------------------------
    def _coords_over_den(self, x):
        vec = self.ambient._coords(x) if hasattr(x, "coords") else list(x)
        if len(vec) != self.ambient.dim:
            raise ValueError(f"expected {self.ambient.dim} coordinates, got {len(vec)}")
        return _mul_over_den(self._basis_T_inv, vec)

    def coords_of(self, x):
        """The rational c with basis^T c = x (the basis has full rank)."""
        num, den = self._coords_over_den(x)
        return [Fraction(v, den) for v in num]

    def contains(self, x):
        num, den = self._coords_over_den(x)
        return all(v % den == 0 for v in num)

    def element(self, int_coords):
        int_coords = list(int_coords)
        if len(int_coords) != self.rank:
            raise ValueError(f"expected {self.rank} coordinates, got {len(int_coords)}")
        rows, den = self._int_basis_T
        return self.ambient.element([Fraction(sum(map(mul, row, int_coords)), den) for row in rows])

    # -- multiplicative closure --------------------------------------------------
    def closed_under_mul(self):
        """All pairwise basis products lie in the lattice (bilinearity).

        Fails carry every offending (i, j) pair plus the first product.
        """
        bad = []
        first_prod = None
        for i in range(self.rank):
            for j in range(self.rank):
                prod = self.ambient.mul_vec(self.basis[i], self.basis[j])
                if not self.contains(self.ambient.element(prod)):
                    bad.append((i, j))
                    if first_prod is None:
                        first_prod = self.ambient.element(prod)
        if bad:
            return Verdict(
                False,
                witness=tuple(bad),
                mode="exhaustive",
                details={"product": repr(first_prod)},
            )
        return Verdict(True, mode="exhaustive")

    # -- unit enumeration -----------------------------------------------------------
    def enumerate_units(self):
        """All lattice points of norm 1, by integer Fincke-Pohst backtracking.

        Requires the norm to be positive definite on the lattice; the
        target in Gram terms is Dn(x, x) = 2.
        """
        ldl = linalg.ldl(self.gram)
        if ldl is None:
            raise ValueError("norm is not positive definite on this lattice")
        diag, low = ldl
        coords = _fincke_pohst(diag, low, Fraction(2))
        elems = [self.element(c) for c in sorted(coords)]
        for e in elems:
            if self.ambient.norm.eval_payload(e.coords) != 1:
                raise AssertionError(f"enumerated a lattice point of norm != 1: {e!r}")
        return elems

    # -- serialization ---------------------------------------------------------------
    def to_json(self):
        return json.dumps(
            {
                "ambient_dim": self.ambient.dim,
                "basis": [[QQ.render(c) for c in row] for row in self.basis],
                "gram": [[QQ.render(c) for c in row] for row in self.gram],
                "disc": QQ.render(self.disc),
                "integral": self.integral,
            },
            sort_keys=True,
        )

    @staticmethod
    def from_json(ambient, text, name="lattice"):
        """Rebuild from the export format; Gram/disc are recomputed and
        must agree with the recorded values."""
        blob = json.loads(text)
        fields = ("ambient_dim", "basis", "gram", "disc", "integral")
        missing = [k for k in fields if k not in blob] if isinstance(blob, dict) else fields
        if missing:
            raise ValueError(f"lattice file lacks the field(s) {', '.join(missing)}")
        if blob["ambient_dim"] != ambient.dim:
            raise ValueError("ambient dimension mismatch")
        lat = ZLattice(ambient, _json_rows(blob, "basis"), name=name)
        if lat.gram != _json_rows(blob, "gram") or lat.disc != _json_fraction(blob["disc"], "disc"):
            raise ValueError("recorded Gram data disagrees with the basis")
        if lat.integral != blob["integral"]:
            raise ValueError("recorded integrality flag disagrees")
        return lat

    def __repr__(self):
        return f"{self.name}(rank={self.rank}, disc={self.disc})"


def _json_fraction(value, field):
    """A lattice file's number (int or "p/q" string) as a Fraction."""
    try:
        return Fraction(value)
    except (TypeError, ValueError, ArithmeticError):
        raise ValueError(f"lattice file: {field} value {value!r} is not a rational number") from None


def _json_rows(blob, field):
    rows = blob[field]
    if not (isinstance(rows, list) and all(isinstance(row, list) for row in rows)):
        raise ValueError(f"lattice file: {field} is not a list of rows")
    return [[_json_fraction(c, field) for c in row] for row in rows]


def _over_common_den(rows):
    """(ints, den) with den the lcm of the denominators of the rational
    matrix rows and ints[i][j] = rows[i][j] * den."""
    den = lcm(*(c.denominator for row in rows for c in row))
    return [[c.numerator * (den // c.denominator) for c in row] for row in rows], den


def _mul_over_den(mat, vec):
    """mat . vec as (ints, den), for mat given as (ints, den)."""
    ints, den = mat
    (num,), vden = _over_common_den([vec])
    return [sum(map(mul, row, num)) for row in ints], den * vden


def _fincke_pohst(diag, low, target):
    """Integer points with sum_i d_i (x_i + sum_{j>i} L_ji x_j)^2 == target.

    With L_ji = lnum[j][i] / lden[i] and one scale S making w_i = d_i S /
    lden_i^2 and T = target S ints, this is sum_i w_i y_i^2 == T for
    y_i = x_i lden_i + cn_i, and w y^2 <= rem exactly when |y| <= isqrt(rem // w).
    """
    n = len(diag)
    lden = [lcm(*(low[j][i].denominator for j in range(i + 1, n))) for i in range(n)]
    # centre terms (j, lnum[j][i]) of each level, zeros left out
    centre = [
        [(j, low[j][i].numerator * (lden[i] // low[j][i].denominator)) for j in range(i + 1, n) if low[j][i]]
        for i in range(n)
    ]
    scaled = [d / l**2 for d, l in zip(diag, lden)] + [target]
    S = lcm(*(q.denominator for q in scaled))
    *w, T = [q.numerator * (S // q.denominator) for q in scaled]
    results = []
    coords = [0] * n

    def descend(level, rem):
        if level < 0:
            if rem == 0:
                results.append(tuple(coords))
            return
        cn = sum(a * coords[j] for j, a in centre[level])
        wl, dl = w[level], lden[level]
        r = isqrt(rem // wl)
        for x in range(-((r + cn) // dl), (r - cn) // dl + 1):
            y = x * dl + cn
            coords[level] = x
            descend(level - 1, rem - wl * y * y)
        coords[level] = 0

    descend(n - 1, T)
    return results


# -- the named lattices -------------------------------------------------------------


def gaussian(ambient):
    """The standard-basis lattice of a conic QQ-algebra with integral table."""
    n = ambient.dim
    basis = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    return ZLattice(ambient, basis, name="gaussian")


def hurwitz():
    """Basis (1, i, j, h) with h = (1 + i + j + k)/2 inside Cay(QQ; -1, -1)."""
    amb = cayley_dickson(cayley_dickson(ground_algebra(QQ), -1), -1)
    h = [Fraction(1, 2)] * 4
    basis = [
        [1, 0, 0, 0],
        [0, 1, 0, 0],
        [0, 0, 1, 0],
        h,
    ]
    return ZLattice(amb, basis, name="hurwitz")


_EPS_TO_U = [
    # rows are the eps_i in Cartan-Schouten coordinates (1, u1..u7)
    [Fraction(-1, 2), 0, Fraction(1, 2), 0, 0, 0, 0, 0],
    [Fraction(1, 2), 0, Fraction(1, 2), 0, 0, 0, 0, 0],
    [0, Fraction(-1, 2), 0, Fraction(-1, 2), 0, 0, 0, 0],
    [0, Fraction(1, 2), 0, Fraction(-1, 2), 0, 0, 0, 0],
    [0, 0, 0, 0, Fraction(-1, 2), Fraction(1, 2), 0, 0],
    [0, 0, 0, 0, Fraction(1, 2), Fraction(1, 2), 0, 0],
    [0, 0, 0, 0, 0, 0, Fraction(1, 2), Fraction(-1, 2)],
    [0, 0, 0, 0, 0, 0, Fraction(1, 2), Fraction(1, 2)],
]

# simple-root style basis of the even-coordinate E8 description
_E8_EPS_BASIS = [
    [Fraction(1, 2), Fraction(-1, 2), Fraction(-1, 2), Fraction(-1, 2),
     Fraction(-1, 2), Fraction(-1, 2), Fraction(-1, 2), Fraction(1, 2)],
    [1, 1, 0, 0, 0, 0, 0, 0],
    [-1, 1, 0, 0, 0, 0, 0, 0],
    [0, -1, 1, 0, 0, 0, 0, 0],
    [0, 0, -1, 1, 0, 0, 0, 0],
    [0, 0, 0, -1, 1, 0, 0, 0],
    [0, 0, 0, 0, -1, 1, 0, 0],
    [0, 0, 0, 0, 0, -1, 1, 0],
]


def cs_ambient():
    return cartan_schouten(QQ)


def eps_to_ambient(eps_coords):
    return linalg.cols_vec(QQ, _EPS_TO_U, eps_coords)


@cache
def _eps_frame():
    """The lattice on eps_1, ..., eps_8: its coordinates are the half-norm ones."""
    return ZLattice(cs_ambient(), _EPS_TO_U, name="eps")


def ambient_to_eps(vec):
    return _eps_frame().coords_of(vec)


def eps_membership(eps_coords):
    """Point characterization: all in Z or all in 1/2 + Z, with even sum."""
    ints = all(c.denominator == 1 for c in eps_coords)
    halves = all(c.denominator == 2 for c in eps_coords)
    if not (ints or halves):
        return False
    s = sum(eps_coords)
    return s.denominator == 1 and s.numerator % 2 == 0


def dickson_coxeter():
    """The unimodular Z-structure on the Cartan-Schouten octonions.

    The half-norm coordinates are the source of truth: the lattice is
    the set of vectors whose coordinates there are all integers or all
    half-integers with even sum.  The stored basis realizes exactly that
    set (checked here against the characterization).
    """
    amb = cs_ambient()
    basis = [eps_to_ambient(row) for row in _E8_EPS_BASIS]
    lat = ZLattice(amb, basis, name="dickson_coxeter")
    for row in _E8_EPS_BASIS:
        if not eps_membership([Fraction(c) for c in row]):
            raise AssertionError("basis row violates the defining characterization")
    if abs(linalg.det(QQ, _E8_EPS_BASIS)) != 1:
        raise AssertionError("basis does not generate the full lattice")
    return lat


def kirmse():
    """Basis (1, u1, u2, u3, v1, v2, v3, v4) with the v_i reconstructed by
    solving the four defining linear relations over QQ:

      u4 = 2 v1 - 1 - u1 - u2        u5 = 2 v4 - 1 - u2 - u3
      u7 = -2 v3 + 1 + u1 + u3       u6 = -2 v2 + u3 + u5 - u7

    The build fails loudly unless the result is integral unimodular.
    """
    amb = cs_ambient()
    u = partial(linalg.basis, QQ, 8)
    comb = partial(linalg.cols_vec, QQ)  # comb(vectors, coefficients)
    h = Fraction(1, 2)
    v1 = comb([u(0), u(1), u(2), u(4)], [h, h, h, h])
    v4 = comb([u(0), u(2), u(3), u(5)], [h, h, h, h])
    v3 = comb([u(0), u(1), u(3), u(7)], [h, h, h, -h])
    v2 = comb([u(3), u(5), u(7), u(6)], [h, h, -h, -h])
    # re-derive the u's from the relations as a guard against drift
    checks = [
        (comb([v1, u(0), u(1), u(2)], [2, -1, -1, -1]), u(4)),
        (comb([v4, u(0), u(2), u(3)], [2, -1, -1, -1]), u(5)),
        (comb([v3, u(0), u(1), u(3)], [-2, 1, 1, 1]), u(7)),
        (comb([v2, u(3), u(5), u(7)], [-2, 1, 1, -1]), u(6)),
    ]
    for got, want in checks:
        if got != want:
            raise AssertionError("Kirmse relations drifted")
    basis = [u(0), u(1), u(2), u(3), v1, v2, v3, v4]
    lat = ZLattice(amb, basis, name="kirmse")
    if not lat.integral or lat.disc != 1:
        raise AssertionError("Kirmse lattice must be integral unimodular")
    return lat


def _half_point(indices):
    return [Fraction(int(i in indices), 2) for i in range(8)]


def alternative_dico(variant="p_form"):
    """Doubling-style bases for the unimodular octonion order.

    p_form: (1, u1, u2, u4, p, u1 p, u2 p, u4 p) with p = (1+u1+u2+u3)/2
    generates exactly the same point set as dickson_coxeter.

    q_form: (1, u3, u4, u6, q, u3 q, u4 q, u6 q) with q = (1+u3+u4+u5)/2
    generates the image of that lattice under the basis rotation
    u_r -> u_{r+2}; it has the same discriminant and unit count but is a
    different subset of the ambient octonions.
    """
    amb = cs_ambient()
    if variant == "q_form":
        gens = (3, 4, 6)
        seed = _half_point((0, 3, 4, 5))
    elif variant == "p_form":
        gens = (1, 2, 4)
        seed = _half_point((0, 1, 2, 3))
    else:
        raise ValueError("variant must be p_form or q_form")
    u = partial(linalg.basis, QQ, 8)
    one = u(0)
    basis = [one] + [u(i) for i in gens] + [seed]
    for i in gens:
        basis.append(amb.mul_vec(u(i), seed))
    return ZLattice(amb, basis, name=f"alternative_dico_{variant}")


def unit_type_split(lattice, units):
    """Partition unit elements by integrality of their half-norm coordinates."""
    integer_type, half_type = [], []
    for e in units:
        if _eps_frame().contains(e):
            integer_type.append(e)
        else:
            half_type.append(e)
    return integer_type, half_type


NAMED_LATTICES = {
    "gaussian": cache(lambda: gaussian(cayley_dickson(ground_algebra(QQ), -1))),
    "hurwitz": cache(hurwitz),
    "dico": cache(dickson_coxeter),
    "kirmse": cache(kirmse),
}
