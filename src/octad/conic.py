"""Conic (degree-2) algebras given by structure constants.

A conic algebra is a free module with a bilinear product, a two-sided
unit and a norm form n with n(1) = 1 such that x^2 - t(x)x + n(x)1 = 0
holds strictly, where t = Dn(1, .) and conjugation is t(x)1 - x.
"""

from __future__ import annotations

import json

from .linalg import (
    ModuleElement,
    add_term,
    add_vec,
    basis,
    scale_vec,
    signed_sparse,
    sub_vec,
    vec_eq,
    vec_is_zero,
)
from .quadforms import QuadraticForm
from .scalars import Scalar, RingMismatch

NOT_INVERTIBLE = "NotInvertible"


class ConicAlgebra:
    def __init__(self, ring, dim, table, unit, norm, name="conic", validate=True):
        """table[a][b] is the coordinate vector (payloads) of e_a * e_b."""
        self.ring = ring
        self.dim = dim
        self.table, self._sparse = structure_table(ring, dim, table)
        self.unit = [ring.coerce(c) for c in unit]
        self.norm = norm
        self.name = name
        # trace functional and the sparse columns conj(e_i) = t(e_i) 1 - e_i
        self._tvec = [
            norm.bilin_payload(self.unit, basis(ring, dim, i)) for i in range(dim)
        ]
        self._conj = [
            signed_sparse(ring, sub_vec(ring, scale_vec(ring, t, self.unit), basis(ring, dim, i)))
            for i, t in enumerate(self._tvec)
        ]
        if validate:
            self._validate()

    # -- construction checks -------------------------------------------------
    def _validate(self):
        R = self.ring
        one = self.norm.eval_payload(self.unit)
        if not R.eq(one, R.one):
            raise ValueError(f"{self.name}: norm(unit) != 1")
        for i in range(self.dim):
            e = basis(R, self.dim, i)
            if not vec_eq(R, self.mul_vec(self.unit, e), e):
                raise ValueError(f"{self.name}: unit fails on left of e_{i}")
            if not vec_eq(R, self.mul_vec(e, self.unit), e):
                raise ValueError(f"{self.name}: unit fails on right of e_{i}")
        v = self.check_degree2()
        if not v.holds:
            raise ValueError(f"{self.name}: degree-2 identity fails at {v.witness}")

    def check_degree2(self):
        """Strict degree-2 check: x^2 - t(x)x + n(x)1 vanishes as a law."""
        from .identities import Verdict

        R = self.ring
        for i in range(self.dim):
            ei = basis(R, self.dim, i)
            if not vec_is_zero(R, self._deg2(ei)):
                return Verdict(False, witness=((i, i),), mode="strict")
        for i in range(self.dim):
            for j in range(i + 1, self.dim):
                ei = basis(R, self.dim, i)
                ej = basis(R, self.dim, j)
                s = self._deg2(add_vec(R, ei, ej))
                s = sub_vec(R, s, self._deg2(ei))
                s = sub_vec(R, s, self._deg2(ej))
                if not vec_is_zero(R, s):
                    return Verdict(False, witness=((i, j),), mode="strict")
        return Verdict(True, mode="strict")

    def _deg2(self, x):
        R = self.ring
        sq = self.mul_vec(x, x)
        tx = self.trace_payload(x)
        nx = self.norm.eval_payload(x)
        out = sub_vec(R, sq, scale_vec(R, tx, x))
        return add_vec(R, out, scale_vec(R, nx, self.unit))

    # -- payload-level operations ---------------------------------------------
    def mul_vec(self, x, y, L=None):
        """Bilinear product on payload vectors, optionally over ring-like L."""
        R = L if L is not None else self.ring
        out = [R.zero] * self.dim
        for a in range(self.dim):
            xa = x[a]
            if R.is_zero(xa):
                continue
            row = self._sparse[a]
            for b in range(self.dim):
                yb = y[b]
                if R.is_zero(yb):
                    continue
                c = R.mul(xa, yb)
                for k, t, sign in row[b]:
                    out[k] = add_term(R, out[k], c, t, sign)
        return out

    def trace_payload(self, x, L=None):
        R = L if L is not None else self.ring
        lift = R.from_base
        acc = R.zero
        for i, t in enumerate(self._tvec):
            if not R.is_zero(x[i]):
                acc = R.add(acc, R.mul(x[i], lift(t)))
        return acc

    def conj_vec(self, x, L=None):
        R = L if L is not None else self.ring
        out = [R.zero] * self.dim
        for i in range(self.dim):
            if R.is_zero(x[i]):
                continue
            for k, c, sign in self._conj[i]:
                out[k] = add_term(R, out[k], x[i], c, sign)
        return out

    def norm_payload(self, x, L=None):
        return self.norm.eval_payload(x, L)

    def norm_bilin_payload(self, x, y, L=None):
        return self.norm.bilin_payload(x, y, L)

    # -- element API ------------------------------------------------------------
    def element(self, coords):
        coords = list(coords)
        if len(coords) != self.dim:
            raise ValueError(f"expected {self.dim} coordinates, got {len(coords)}")
        return ConicElement(self, [self.ring.coerce(c) for c in coords])

    def basis_element(self, i):
        return ConicElement(self, basis(self.ring, self.dim, i))

    def one(self):
        return ConicElement(self, list(self.unit))

    def zero(self):
        return ConicElement(self, [self.ring.zero] * self.dim)

    def mul(self, x, y):
        self._check(x)
        self._check(y)
        return ConicElement(self, self.mul_vec(x.coords, y.coords))

    def trace(self, x):
        return self.ring.scalar(self.trace_payload(x.coords))

    def conj(self, x):
        return ConicElement(self, self.conj_vec(x.coords))

    def norm_of(self, x):
        return self.ring.scalar(self.norm.eval_payload(x.coords))

    def try_inverse(self, x):
        """n(x)^{-1} conj(x) when n(x) is a unit, else NOT_INVERTIBLE."""
        R = self.ring
        n = self.norm.eval_payload(x.coords)
        ninv = R.inv(n)
        if ninv is None:
            return NOT_INVERTIBLE
        return ConicElement(self, scale_vec(R, ninv, self.conj_vec(x.coords)))

    def classify_idempotent(self, c):
        """Zero / Elementary / Invertible (= unit) / NotIdempotent.

        Valid over connected base rings, where nontrivial idempotents are
        exactly the elements with n(c) = 0 and t(c) = 1.
        """
        R = self.ring
        if not R.is_connected:
            raise ValueError("classification requires a connected base ring")
        sq = self.mul_vec(c.coords, c.coords)
        if not vec_eq(R, sq, c.coords):
            return "NotIdempotent"
        if vec_is_zero(R, c.coords):
            return "Zero"
        if vec_eq(R, c.coords, self.unit):
            return "Invertible"
        n = self.norm.eval_payload(c.coords)
        t = self.trace_payload(c.coords)
        if R.is_zero(n) and R.eq(t, R.one):
            return "Elementary"
        raise AssertionError("impossible idempotent over a connected ring")

    def is_multiplicative(self):
        """Strict norm-composition check n(xy) = n(x)n(y)."""
        from .identities import strict_identity_check

        return strict_identity_check(self, "norm-comp").holds

    def random_element(self, rng):
        return ConicElement(self, [self.ring.rand(rng) for _ in range(self.dim)])

    # -- serialization ------------------------------------------------------------
    def to_json(self):
        R = self.ring
        return json.dumps(
            {
                "dim": self.dim,
                "unit": [R.render(c) for c in self.unit],
                "table": [
                    [[R.render(c) for c in self.table[a][b]] for b in range(self.dim)]
                    for a in range(self.dim)
                ],
                "norm_coeffs": {
                    f"{i},{j}": R.render(c) for (i, j), c in sorted(self.norm.coeffs.items())
                },
            },
            sort_keys=True,
        )

    @staticmethod
    def from_json(ring, text, name="conic"):
        blob = json.loads(text)
        parse = ring.parse
        dim = blob["dim"]
        table = [
            [[parse(c) for c in blob["table"][a][b]] for b in range(dim)]
            for a in range(dim)
        ]
        coeffs = {}
        for key, c in blob["norm_coeffs"].items():
            i, j = key.split(",")
            coeffs[(int(i), int(j))] = parse(c)
        norm = QuadraticForm(ring, dim, coeffs)
        return ConicAlgebra(ring, dim, table, [parse(c) for c in blob["unit"]], norm, name=name)

    def _check(self, x):
        if x.algebra is not self:
            raise RingMismatch("element belongs to a different algebra")

    def __repr__(self):
        return f"{self.name}(dim={self.dim}, ring={self.ring})"


class ConicElement(ModuleElement):
    __slots__ = ()

    def __mul__(self, other):
        if isinstance(other, ConicElement):
            return self.algebra.mul(self, other)
        return ModuleElement.__mul__(self, other)

    def norm(self):
        return self.algebra.norm_of(self)

    def trace(self):
        return self.algebra.trace(self)

    def conj(self):
        return self.algebra.conj(self)

    def scalars(self):
        return [Scalar(self.algebra.ring, c) for c in self.coords]


def structure_table(ring, dim, table):
    """Coerced structure constants table[a][b] (the coordinates of e_a e_b)
    and their sparse view [(coordinate index, payload, sign), ...] read by
    mul_vec.  sign is 1 or -1 when the constant is one or minus one, so
    that mul_vec adds or subtracts the product instead of multiplying by
    the lifted constant, and 0 for every other constant."""
    dense = [[[ring.coerce(c) for c in table[a][b]] for b in range(dim)] for a in range(dim)]
    sparse = [[signed_sparse(ring, v) for v in row] for row in dense]
    return dense, sparse


# -- constructors ----------------------------------------------------------------


def split_etale(ring):
    """k x k with componentwise product and hyperbolic norm."""
    table = [
        [[ring.one, ring.zero], [ring.zero] * 2],
        [[ring.zero] * 2, [ring.zero, ring.one]],
    ]
    norm = QuadraticForm(ring, 2, {(0, 1): ring.one})
    return ConicAlgebra(ring, 2, table, [ring.one, ring.one], norm, name="split_etale")


def quadratic(ring, alpha, beta):
    """k[t]/(t^2 - alpha t + beta) on basis (1, t)."""
    a = ring.coerce(alpha)
    b = ring.coerce(beta)
    table = [
        [[ring.one, ring.zero], [ring.zero, ring.one]],
        [[ring.zero, ring.one], [ring.neg(b), a]],
    ]
    norm = QuadraticForm(ring, 2, {(0, 0): ring.one, (0, 1): a, (1, 1): b})
    return ConicAlgebra(ring, 2, table, [ring.one, ring.zero], norm, name="quadratic")


def _cs_product_rules():
    """Fano-plane products among the seven imaginary basis units.

    Generated from the three index rules (i in {1,2,4}): the product of
    units r+i and r+3i is the unit r, indices mod 7 in 1..7.  Returns a
    dict (a, b) -> (sign, r) covering every ordered pair of distinct
    indices exactly once.
    """
    m7 = lambda x: ((x - 1) % 7) + 1
    rules = {}
    for r in range(1, 8):
        for i in (1, 2, 4):
            a, b = m7(r + i), m7(r + 3 * i)
            if (a, b) in rules:
                raise AssertionError("rule collision")
            rules[(a, b)] = (1, r)
    for (a, b), (s, r) in list(rules.items()):
        rules[(b, a)] = (-s, r)
    # self-check against the seven companion relations
    for r in range(1, 8):
        if rules[(m7(r + 4), m7(r + 5))] != (1, r):
            raise AssertionError("generated table violates companion relations")
    return rules


def cartan_schouten(ring):
    """Octonions on the orthonormal basis (1, u_1..u_7), Fano-plane table."""
    rules = _cs_product_rules()
    n = 8
    one, zero = ring.one, ring.zero
    table = [[[zero] * n for _ in range(n)] for _ in range(n)]
    for a in range(n):
        for b in range(n):
            if a == 0:
                table[a][b][b] = one
            elif b == 0:
                table[a][b][a] = one
            elif a == b:
                table[a][b][0] = ring.neg(one)
            else:
                s, r = rules[(a, b)]
                table[a][b][r] = one if s > 0 else ring.neg(one)
    norm = QuadraticForm(ring, n, {(i, i): one for i in range(n)})
    return ConicAlgebra(ring, n, table, [one] + [zero] * 7, norm, name="cs_octonions")


