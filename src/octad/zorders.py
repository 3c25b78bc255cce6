"""Integral Z-structures inside rational conic algebras.

Lattices are given by a rational basis of the ambient algebra; the Gram
matrix is taken with respect to the bilinearized norm, so its diagonal
holds twice the norms of the basis vectors and "discriminant" means its
determinant.  Unit enumeration is exact Fincke-Pohst: a rational
Cholesky decomposition drives a depth-first search with no floating
point anywhere.
"""

from __future__ import annotations

import json
from fractions import Fraction
from math import isqrt

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
        self._basis_T_inv = None  # computed by the first coords_of call
        if linalg.det(QQ, self._square_part()) == 0:
            raise ValueError("basis rows must be linearly independent")
        self.gram = [
            [ambient.norm.bilin_payload(self.basis[i], self.basis[j]) for j in range(n)]
            for i in range(n)
        ]
        self.disc = linalg.det(QQ, self.gram)
        self.integral = self._integral()

    def _square_part(self):
        if self.rank == self.ambient.dim:
            return self.basis
        raise ValueError("only full-rank lattices are supported")

    def _integral(self):
        for i in range(self.rank):
            if self.ambient.norm.eval_payload(self.basis[i]).denominator != 1:
                return False
            for j in range(self.rank):
                if self.gram[i][j].denominator != 1:
                    return False
        return True

    # -- membership -----------------------------------------------------------
    def coords_of(self, x):
        """The rational c with basis^T c = x (the basis has full rank)."""
        vec = x.coords if hasattr(x, "coords") else list(x)
        if len(vec) != self.ambient.dim:
            raise ValueError(f"expected {self.ambient.dim} coordinates, got {len(vec)}")
        if self._basis_T_inv is None:
            self._basis_T_inv = linalg.inverse_rational(self._basis_T)
        return linalg.mat_vec(QQ, self._basis_T_inv, [Fraction(c) for c in vec])

    def contains(self, x):
        return all(c.denominator == 1 for c in self.coords_of(x))

    def element(self, int_coords):
        int_coords = list(int_coords)
        if len(int_coords) != self.rank:
            raise ValueError(f"expected {self.rank} coordinates, got {len(int_coords)}")
        out = [Fraction(0)] * self.ambient.dim
        for c, row in zip(int_coords, self.basis):
            for k in range(self.ambient.dim):
                out[k] += Fraction(c) * row[k]
        return self.ambient.element(out)

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
        """All lattice points of norm 1, by exact Cholesky backtracking.

        Requires the norm to be positive definite on the lattice; the
        target in Gram terms is Dn(x, x) = 2.
        """
        ldl = _ldl(self.gram)
        if ldl is None:
            raise ValueError("norm is not positive definite on this lattice")
        diag, low = ldl
        coords = _fincke_pohst(diag, low, Fraction(2))
        elems = [self.element(c) for c in sorted(coords)]
        for e in elems:
            if self.ambient.norm.eval_payload(e.coords) != 1:
                raise AssertionError(f"enumerated a lattice point of norm != 1: {e!r}")
        return elems

    def units_brute_force(self):
        """Independent oracle: scan the整 box given by a proven coordinate bound."""
        bound = _box_bound(self.gram, Fraction(2))
        out = []
        for c in _box_iter(self.rank, bound):
            x = self.element(c)
            if self.ambient.norm.eval_payload(x.coords) == 1:
                out.append(tuple(c))
        return [self.element(c) for c in sorted(out)]

    # -- serialization ---------------------------------------------------------------
    def to_json(self):
        def frac(x):
            return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"

        return json.dumps(
            {
                "ambient_dim": self.ambient.dim,
                "basis": [[frac(c) for c in row] for row in self.basis],
                "gram": [[frac(c) for c in row] for row in self.gram],
                "disc": frac(self.disc),
                "integral": self.integral,
            },
            sort_keys=True,
        )

    @staticmethod
    def from_json(ambient, text, name="lattice"):
        """Rebuild from the export format; Gram/disc are recomputed and
        must agree with the recorded values."""
        blob = json.loads(text)
        if blob["ambient_dim"] != ambient.dim:
            raise ValueError("ambient dimension mismatch")
        basis = [[Fraction(c) for c in row] for row in blob["basis"]]
        lat = ZLattice(ambient, basis, name=name)
        want_gram = [[Fraction(c) for c in row] for row in blob["gram"]]
        if lat.gram != want_gram or lat.disc != Fraction(blob["disc"]):
            raise ValueError("recorded Gram data disagrees with the basis")
        if lat.integral != blob["integral"]:
            raise ValueError("recorded integrality flag disagrees")
        return lat

    def __repr__(self):
        return f"{self.name}(rank={self.rank}, disc={self.disc})"


def _ldl(gram):
    """G = L D L^T with unit lower-triangular L; None unless G is pos. def."""
    n = len(gram)
    diag = [Fraction(0)] * n
    low = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        low[i][i] = Fraction(1)
    for i in range(n):
        d = Fraction(gram[i][i])
        for k in range(i):
            d -= diag[k] * low[i][k] * low[i][k]
        if d <= 0:
            return None
        diag[i] = d
        for j in range(i + 1, n):
            v = Fraction(gram[j][i])
            for k in range(i):
                v -= diag[k] * low[j][k] * low[i][k]
            low[j][i] = v / d
    return diag, low


def _floor_sqrt_frac(x):
    if x < 0:
        return -1
    return isqrt(x.numerator // x.denominator) + 1


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


def _ceil_frac(x):
    return -((-x.numerator) // x.denominator)


def _floor_frac(x):
    return x.numerator // x.denominator


def _box_bound(gram, target):
    """Proven sup-norm bound: x^T G x = t implies |x_i|^2 <= t * (G^-1)_ii."""
    inv = linalg.inverse_rational(gram)
    best = max(inv[i][i] for i in range(len(gram)))
    return _floor_sqrt_frac(target * best) + 1


def _box_iter(rank, bound):
    import itertools

    return itertools.product(range(-bound, bound + 1), repeat=rank)


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
    out = [Fraction(0)] * 8
    for c, row in zip(eps_coords, _EPS_TO_U):
        for k in range(8):
            out[k] += Fraction(c) * row[k]
    return out


def ambient_to_eps(vec):
    mat = [list(col) for col in zip(*_EPS_TO_U)]
    return linalg.solve_rational(mat, [Fraction(c) for c in vec])


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
    if abs(linalg.det(QQ, [[Fraction(c) for c in row] for row in _E8_EPS_BASIS])) != 1:
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
    F = Fraction
    one = [F(1), 0, 0, 0, 0, 0, 0, 0]

    def u(i):
        v = [F(0)] * 8
        v[i] = F(1)
        return v

    def comb(*terms):
        out = [F(0)] * 8
        for c, vec in terms:
            for k in range(8):
                out[k] += F(c) * vec[k]
        return out

    v1 = comb((F(1, 2), one), (F(1, 2), u(1)), (F(1, 2), u(2)), (F(1, 2), u(4)))
    v4 = comb((F(1, 2), one), (F(1, 2), u(2)), (F(1, 2), u(3)), (F(1, 2), u(5)))
    v3 = comb((F(1, 2), one), (F(1, 2), u(1)), (F(1, 2), u(3)), (F(-1, 2), u(7)))
    v2 = comb((F(1, 2), u(3)), (F(1, 2), u(5)), (F(-1, 2), u(7)), (F(-1, 2), u(6)))
    # re-derive the u's from the relations as a guard against drift
    checks = [
        (comb((2, v1), (-1, one), (-1, u(1)), (-1, u(2))), u(4)),
        (comb((2, v4), (-1, one), (-1, u(2)), (-1, u(3))), u(5)),
        (comb((-2, v3), (1, one), (1, u(1)), (1, u(3))), u(7)),
        (comb((-2, v2), (1, u(3)), (1, u(5)), (-1, u(7))), u(6)),
    ]
    for got, want in checks:
        if got != want:
            raise AssertionError("Kirmse relations drifted")
    basis = [one, u(1), u(2), u(3), v1, v2, v3, v4]
    lat = ZLattice(amb, basis, name="kirmse")
    if not lat.integral or lat.disc != 1:
        raise AssertionError("Kirmse lattice must be integral unimodular")
    return lat


def _half_point(indices, signs=None):
    F = Fraction
    out = [F(0)] * 8
    for k, i in enumerate(indices):
        s = 1 if signs is None else signs[k]
        out[i] += F(s, 2)
    return out


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
    F = Fraction
    if variant == "q_form":
        gens = (3, 4, 6)
        seed = _half_point((0, 3, 4, 5))
    elif variant == "p_form":
        gens = (1, 2, 4)
        seed = _half_point((0, 1, 2, 3))
    else:
        raise ValueError("variant must be p_form or q_form")

    def u(i):
        v = [F(0)] * 8
        v[i] = F(1)
        return v

    one = u(0)
    basis = [one] + [u(i) for i in gens] + [seed]
    for i in gens:
        basis.append(amb.mul_vec(u(i), seed))
    return ZLattice(amb, basis, name=f"alternative_dico_{variant}")


def unit_type_split(lattice, units):
    """Partition unit elements by integrality of their half-norm coordinates."""
    integer_type, half_type = [], []
    for e in units:
        eps = ambient_to_eps(e.coords)
        if all(c.denominator == 1 for c in eps):
            integer_type.append(e)
        else:
            half_type.append(e)
    return integer_type, half_type


NAMED_LATTICES = {
    "gaussian": lambda: gaussian(cayley_dickson(ground_algebra(QQ), -1)),
    "hurwitz": hurwitz,
    "dico": dickson_coxeter,
    "kirmse": kirmse,
}
