"""Zorn vector matrices (split octonions) and finite-field censuses.

Elements are 2x2 matrices with scalar diagonal and 3-vector off-diagonal
entries, multiplied with the cross product:

  [[a1, u2], [u1, a2]] [[b1, v2], [v1, b2]] =
    [[a1 b1 - <u2, v1>,  a1 v2 + b2 u2 + u1 x v1],
     [b1 u1 + a2 v1 + u2 x v2,  a2 b2 - <u1, v2>]]

The norm is a1 a2 + <u2, u1>: with the product above, x conj(x) works out
to that scalar (the determinant-style sign is incompatible with this
product's off-diagonal minus signs).  A Zorn vector matrix is an element
of zorn_algebra, the conic algebra that conic.build_conic reads from this
product and norm on the basis E, 1-E, X_i, E X_i.
"""

from __future__ import annotations

import functools
from collections import namedtuple

from .conic import build_conic
from .identities import CostGuardError, Verdict
from .scalars import GF


def _cross(R, u, v):
    return (
        R.sub(R.mul(u[1], v[2]), R.mul(u[2], v[1])),
        R.sub(R.mul(u[2], v[0]), R.mul(u[0], v[2])),
        R.sub(R.mul(u[0], v[1]), R.mul(u[1], v[0])),
    )


_Entries = namedtuple("_Entries", "a1 u2 u1 a2")


def _product(R, x, y):
    """The Zorn product over any ring-like R of two _Entries (payload
    entries a1, u2, u1, a2)."""
    a1 = R.sub(R.mul(x.a1, y.a1), R.dot(x.u2, y.u1))
    a2 = R.sub(R.mul(x.a2, y.a2), R.dot(x.u1, y.u2))
    cx1 = _cross(R, x.u1, y.u1)
    cx2 = _cross(R, x.u2, y.u2)
    top = [R.add(R.add(R.mul(x.a1, y.u2[i]), R.mul(y.a2, x.u2[i])), cx1[i]) for i in range(3)]
    bot = [R.add(R.add(R.mul(y.a1, x.u1[i]), R.mul(x.a2, y.u1[i])), cx2[i]) for i in range(3)]
    return _Entries(a1, top, bot, a2)


def _from_coords(R, c):
    """The entries of sum c_i b_i over the fixed basis b = E, 1-E, X1, X2,
    X3, E X1, E X2, E X3, over any ring-like R.

    With X3 = [[0, e_3], [e_3, 0]] and E X_i the top-right half of X_i,
    a1 E + a2 (1-E) + sum x_i X_i + sum y_i E X_i has top-right
    (-x1 - y1, -x2 - y2, x3 + y3) and bottom-left (x1, x2, x3).
    """
    a1, a2, x1, x2, x3, y1, y2, y3 = c
    u2 = [R.neg(R.add(x1, y1)), R.neg(R.add(x2, y2)), R.add(x3, y3)]
    return _Entries(a1, u2, [x1, x2, x3], a2)


def _to_coords(R, z):
    """The inverse of _from_coords."""
    x1, x2, x3 = z.u1
    t1, t2, t3 = z.u2
    return [z.a1, z.a2, x1, x2, x3, R.sub(R.neg(t1), x1), R.sub(R.neg(t2), x2), R.sub(t3, x3)]


@functools.lru_cache(maxsize=None, typed=True)
def zorn_algebra(ring):
    """Zorn(k) as an 8-dimensional conic algebra, read by build_conic from
    one evaluation of the Zorn product and norm at the generic element."""

    def mul_fn(L, x, y):
        return _to_coords(L, _product(L, _from_coords(L, x), _from_coords(L, y)))

    def norm_fn(L, x):
        z = _from_coords(L, x)
        return L.add(L.mul(z.a1, z.a2), L.dot(z.u2, z.u1))

    z = [ring.zero] * 3
    unit = _to_coords(ring, _Entries(ring.one, z, z, ring.one))
    return build_conic(ring, 8, unit, mul_fn, norm_fn, name="zorn")


def idem_E(ring):
    """The idempotent E = [[1, 0], [0, 0]] of zorn_algebra(ring)."""
    return zorn_algebra(ring).basis_element(0)


def gen_X(ring, i):
    """X_i = [[0, -e_i], [e_i, 0]] for i = 1, 2 and X_3 = X_1 X_2, as
    elements of zorn_algebra(ring)."""
    return zorn_algebra(ring).basis_element(1 + i)


def presentation_suite(algebra, e, x1, x2):
    """Check the split-octonion presentation relations exactly.

    e^2 = e, x1^2 = x2^2 = 1, x1 x2 x1 = -x2,
    x1 e x1 = x2 e x2 = 1 - e, (x1 x2) e (x1 x2) = -(1 - e).
    Products associate to the left.
    """
    mul = algebra.mul
    one = algebra.one()
    ebar = one - e
    checks = [
        ("e^2 = e", mul(e, e) == e),
        ("x1^2 = 1", mul(x1, x1) == one),
        ("x2^2 = 1", mul(x2, x2) == one),
        ("x1 x2 x1 = -x2", mul(mul(x1, x2), x1) == -x2),
        ("x1 e x1 = 1 - e", mul(mul(x1, e), x1) == ebar),
        ("x2 e x2 = 1 - e", mul(mul(x2, e), x2) == ebar),
        (
            "(x1 x2) e (x1 x2) = -(1 - e)",
            mul(mul(mul(x1, x2), e), mul(x1, x2)) == -ebar,
        ),
    ]
    failed = [name for name, ok in checks if not ok]
    if failed:
        return Verdict(False, witness=tuple(failed), mode="strict")
    return Verdict(True, mode="strict")


# which elements a census counts, by trace t and norm n
_CENSUS = {
    "invertibles": lambda t, n: n != 0,
    "norm_one": lambda t, n: n == 1,
    # n = 0 and t = 1 forces c^2 = c via the degree-2 identity
    "elementary_idempotents": lambda t, n: n == 0 and t == 1,
}


def count_field(p, what):
    """Exact censuses over Zorn(F_p) by trace a1 + a2 and norm a1 a2 + <u2, u1>.

    what: invertibles | norm_one | elementary_idempotents.
    Cost guard: p <= 7.
    """
    if p > 7:
        raise CostGuardError("p must be <= 7")
    GF(p)  # rejects a composite p
    if what not in _CENSUS:
        raise ValueError(f"unknown census {what!r}")
    keep = _CENSUS[what]
    # tally of a*d over F_p^2, convolved to the tally of <u2, u1> over F_p^6
    prod = [0] * p
    for a in range(p):
        for d in range(p):
            prod[a * d % p] += 1
    tally = prod
    for _ in range(2):
        tally = [sum(tally[s] * prod[(v - s) % p] for s in range(p)) for v in range(p)]
    count = 0
    for a1 in range(p):
        for a2 in range(p):
            for dot in range(p):
                if keep((a1 + a2) % p, (a1 * a2 + dot) % p):
                    count += tally[dot]
    return count


def invertibles_closed_form(p):
    return p**3 * (p - 1) * (p**4 - 1)


def norm_one_closed_form(p):
    return p**3 * (p**4 - 1)
