"""Conic (degree-2) algebras given by structure constants.

A conic algebra is a free module with a bilinear product, a two-sided
unit and a norm form n with n(1) = 1 such that x^2 - t(x)x + n(x)1 = 0
holds strictly, where t = Dn(1, .) and conjugation is t(x)1 - x.
build_conic reads the products and the norm of an algebra given by
formulas from one evaluation at the generic element, like
cubic.build_cubic.
"""

from __future__ import annotations

import functools
import json

from .extensions import PolyExt, lift_vec
from .identities import IdentitySpec, strict_identity_check
from .linalg import ModuleElement, NormedModule, TermMap, sub_vec, vec_eq, vec_is_zero
from .quadforms import QuadraticForm


class ConicAlgebra(NormedModule):
    def __init__(self, ring, dim, products, unit, norm, name="conic"):
        """The structure constants are stored once, as the nonzero terms
        products {(a, b, k): c}: coordinate k of e_a e_b is c (absent keys
        are zero).  They are the terms of the bilinear linalg.TermMap that
        mul_vec evaluates, as the trace t(e_i) = Dn(1, e_i) and the
        conjugation conj(e_i) = t(e_i) 1 - e_i are TermMaps of degree 1."""
        self.ring = ring
        self.dim = dim
        self._product = TermMap(ring, products, 2, dim)
        self.products = self._product.terms
        self.unit = [ring.coerce(c) for c in unit]
        self.norm = norm
        self.name = name
        tvec = norm.bilin_row(self.unit)
        self._trace = TermMap(ring, {(i,): t for i, t in enumerate(tvec)}, 1)
        # conj(e_i) = t(e_i) 1 - e_i
        support = [(k, u) for k, u in enumerate(self.unit) if not ring.is_zero(u)]
        conj = {(i, k): ring.mul(t, u) for i, t in enumerate(tvec) if not ring.is_zero(t) for k, u in support}
        for i in range(dim):
            conj[(i, i)] = ring.sub(conj.get((i, i), ring.zero), ring.one)
        self._conj = TermMap(ring, conj, 1, dim)
        self._validate()

    # -- construction checks -------------------------------------------------
    def _validate(self):
        """n(1) = 1 directly, and the unit law and the degree-2 identity
        x^2 - t(x)x + n(x)1 = 0 strictly, as polynomial laws: the verdicts
        of construction_laws, which identities.run_suite reads again as the
        premises "unit" and "degree2" of the laws that the Kirmse laws
        imply (the identities module docstring has the proofs)."""
        R = self.ring
        if not R.eq(self.norm.eval_payload(self.unit), R.one):
            raise ValueError(f"{self.name}: norm(unit) != 1")
        for key, what in (("unit", "unit law"), ("degree2", "degree-2 identity")):
            v = self.construction_laws[key]
            if not v.holds:
                raise ValueError(f"{self.name}: {what} fails at {v.witness}")

    @functools.cached_property
    def construction_laws(self):
        """The strict verdicts of the unit law and the degree-2 identity,
        keyed "unit" and "degree2", decided once per algebra: by
        construction, or on first use when construction did not check
        them."""
        return {"unit": strict_identity_check(self, UNIT_LAW), "degree2": strict_identity_check(self, "degree2")}

    def check_degree2(self):
        """Strict degree-2 check: x^2 - t(x)x + n(x)1 vanishes as a law."""
        return self.construction_laws["degree2"]

    # -- payload-level operations ---------------------------------------------
    def mul_vec(self, x, y, L=None):
        """Bilinear product on payload vectors, optionally over ring-like L."""
        return self._product.bilinear(x, y, L)

    def conj_vec(self, x, L=None):
        return self._conj.value(x, L)

    def norm_payload(self, x, L=None):
        return self.norm.eval_payload(x, L)

    def norm_bilin_payload(self, x, y, L=None):
        return self.norm.bilin_payload(x, y, L)

    # -- element API (the rest is linalg.NormedModule's) ----------------------
    def _adjoint_vec(self, x):
        return self.conj_vec(x)

    def one(self):
        return ModuleElement(self, list(self.unit))

    def mul(self, x, y):
        return ModuleElement(self, self.mul_vec(self._coords(x), self._coords(y)))

    def conj(self, x):
        return ModuleElement(self, self.conj_vec(self._coords(x)))

    def classify_idempotent(self, c):
        """Zero / Elementary / Invertible (= unit) / NotIdempotent.

        Valid over connected base rings, where nontrivial idempotents are
        exactly the elements with n(c) = 0 and t(c) = 1.
        """
        R = self.ring
        if not R.is_connected:
            raise ValueError("classification requires a connected base ring")
        c = self._coords(c)
        sq = self.mul_vec(c, c)
        if not vec_eq(R, sq, c):
            return "NotIdempotent"
        if vec_is_zero(R, c):
            return "Zero"
        if vec_eq(R, c, self.unit):
            return "Invertible"
        n = self.norm.eval_payload(c)
        t = self.trace_lin(c)
        if R.is_zero(n) and R.eq(t, R.one):
            return "Elementary"
        raise AssertionError("impossible idempotent over a connected ring")

    def is_multiplicative(self):
        """Strict norm-composition check n(xy) = n(x)n(y)."""
        return strict_identity_check(self, "norm-comp").holds

    # -- serialization ------------------------------------------------------------
    def to_json(self):
        """The products as the dense table[a][b] = coordinates of e_a e_b."""
        R, n = self.ring, self.dim
        return json.dumps(
            {
                "dim": n,
                "unit": [R.render(c) for c in self.unit],
                "table": [
                    [[R.render(self.products.get((a, b, k), R.zero)) for k in range(n)] for b in range(n)]
                    for a in range(n)
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
        products = {
            (a, b, k): parse(c)
            for a, row in enumerate(blob["table"])
            for b, vec in enumerate(row)
            for k, c in enumerate(vec)
        }
        coeffs = {}
        for key, c in blob["norm_coeffs"].items():
            i, j = key.split(",")
            coeffs[(int(i), int(j))] = parse(c)
        norm = QuadraticForm(ring, dim, coeffs)
        return ConicAlgebra(ring, dim, products, [parse(c) for c in blob["unit"]], norm, name=name)


def _unit_law(alg, L, vs):
    """1 y - y and y 1 - y, stacked: both vanish iff alg.unit is a two-sided unit."""
    (y,) = vs
    one = lift_vec(L, alg.unit)
    return sub_vec(L, alg.mul_vec(one, y, L), y) + sub_vec(L, alg.mul_vec(y, one, L), y)


UNIT_LAW = IdentitySpec("unit", (1,), _unit_law)


def build_conic(ring, dim, unit, mul_fn, norm_fn, name="conic"):
    """A conic algebra from product and norm callables mul_fn(L, x, y) and
    norm_fn(L, x) that evaluate over any ring-like L.  Each is evaluated
    once, at x = sum_a s_a e_a and y = sum_b t_b e_b over a truncated
    polynomial ring: the coefficient of s_a t_b in coordinate k of the
    product is the product term (a, b, k), that of s_i s_j (i <= j) in the
    norm is its (i, j) coefficient.  A term of another degree, or a product
    term s_a s_b or t_a t_b, raises ValueError."""
    L = PolyExt(ring, 2 * dim, 3)
    xy = [L.var(i) for i in range(2 * dim)]
    products = {}
    for k, poly in enumerate(mul_fn(L, xy[:dim], xy[dim:])):
        for (a, b), c in L.terms(poly, 2, f"{name}: mul_fn"):
            if not a < dim <= b:
                raise ValueError(f"{name}: mul_fn is not bilinear")
            products[(a, b - dim, k)] = c
    coeffs = dict(L.terms(norm_fn(L, xy[:dim]), 2, f"{name}: norm_fn"))
    return ConicAlgebra(ring, dim, products, unit, QuadraticForm(ring, dim, coeffs), name=name)


# -- constructors ----------------------------------------------------------------


@functools.lru_cache(maxsize=None, typed=True)
def split_etale(ring):
    """k x k with componentwise product and hyperbolic norm."""
    products = {(0, 0, 0): ring.one, (1, 1, 1): ring.one}
    norm = QuadraticForm(ring, 2, {(0, 1): ring.one})
    return ConicAlgebra(ring, 2, products, [ring.one, ring.one], norm, name="split_etale")


@functools.lru_cache(maxsize=None, typed=True)
def quadratic(ring, alpha, beta):
    """k[t]/(t^2 - alpha t + beta) on basis (1, t)."""
    a = ring.coerce(alpha)
    b = ring.coerce(beta)
    one = ring.one
    products = {(0, 0, 0): one, (0, 1, 1): one, (1, 0, 1): one, (1, 1, 0): ring.neg(b), (1, 1, 1): a}
    norm = QuadraticForm(ring, 2, {(0, 0): ring.one, (0, 1): a, (1, 1): b})
    return ConicAlgebra(ring, 2, products, [ring.one, ring.zero], norm, name="quadratic")


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


@functools.lru_cache(maxsize=None, typed=True)
def cartan_schouten(ring):
    """Octonions on the orthonormal basis (1, u_1..u_7), Fano-plane table."""
    one, minus = ring.one, ring.neg(ring.one)
    products = {(0, 0, 0): one}
    for a in range(1, 8):
        products[(0, a, a)] = products[(a, 0, a)] = one
        products[(a, a, 0)] = minus
    for (a, b), (s, r) in _cs_product_rules().items():
        products[(a, b, r)] = one if s > 0 else minus
    norm = QuadraticForm(ring, 8, {(i, i): one for i in range(8)})
    return ConicAlgebra(ring, 8, products, [one] + [ring.zero] * 7, norm, name="cs_octonions")


