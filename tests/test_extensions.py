"""The packed-key PolyExt, and RingLike's derived operations on both
extensions, against a naive truncated product keyed by exponent
tuples."""

import random
from fractions import Fraction

import pytest

from octad.extensions import DualExt, PolyExt
from octad.scalars import GF, QQ, ZZ, Zmod
from reference_paths import exponents


def naive_mul(R, cap, a, b):
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            if sum(e) <= cap:
                out[e] = R.add(out.get(e, R.zero), R.mul(c1, c2))
    return {e: c for e, c in out.items() if not R.is_zero(c)}


def naive_add(R, a, b, sign=1):
    out = dict(a)
    for e, c in b.items():
        out[e] = R.add(out.get(e, R.zero), c if sign == 1 else R.neg(c))
    return {e: c for e, c in out.items() if not R.is_zero(c)}


def pack(L, poly):
    """Build the PolyExt payload of {exponent tuple: coefficient} from
    variables, checking each monomial's key decodes to its exponents."""
    acc = L.zero
    for exps, c in poly.items():
        mono = L.from_base(c)
        for i, e in enumerate(exps):
            for _ in range(e):
                mono = L.mul(mono, L.var(i))
        assert [exponents(L, k) for k in mono] == [exps]
        acc = L.add(acc, mono)
    return acc


def unpack(L, payload):
    return {exponents(L, k): c for k, c in payload.items()}


def random_exps(rng, nvars, cap):
    e = [0] * nvars
    for _ in range(rng.randint(0, cap)):
        e[rng.randrange(nvars)] += 1
    return tuple(e)


def random_coeff(R, rng):
    if R == QQ:
        return QQ.validate(Fraction(rng.randint(-9, 9), rng.randint(1, 4)))
    return R.rand(rng)


def random_poly(R, rng, nvars, cap):
    poly = {}
    for _ in range(rng.randint(0, 6)):
        e = random_exps(rng, nvars, cap)
        poly[e] = R.add(poly.get(e, R.zero), random_coeff(R, rng))
    return {e: c for e, c in poly.items() if not R.is_zero(c)}


@pytest.mark.parametrize("R", [ZZ, GF(2), Zmod(6), QQ], ids=repr)
def test_packed_polyext_matches_naive(R):
    rng = random.Random(20240601)
    for _ in range(150):
        nvars = rng.randint(1, 6)
        cap = rng.randint(1, 7)
        L = PolyExt(R, nvars, cap)
        a = random_poly(R, rng, nvars, cap)
        b = random_poly(R, rng, nvars, cap)
        pa, pb = pack(L, a), pack(L, b)
        assert unpack(L, pa) == a
        assert unpack(L, L.mul(pa, pb)) == naive_mul(R, cap, a, b)
        assert unpack(L, L.add(pa, pb)) == naive_add(R, a, b)
        assert unpack(L, L.sub(pa, pb)) == naive_add(R, a, b, sign=-1)
        assert L.is_zero(L.sub(pa, pa)) and L.sub(pa, pa) == {}
        for poly in (L.mul(pa, pb), L.add(pa, pb), L.sub(pa, pb)):
            assert not any(R.is_zero(c) for c in poly.values())


def test_cap_boundary_and_no_carry_between_fields():
    cap = 4
    L = PolyExt(ZZ, 3, cap)
    t0, t1, t2 = (L.var(i) for i in range(3))
    top = L.one
    for _ in range(cap):
        top = L.mul(top, t0)
    assert unpack(L, top) == {(cap, 0, 0): 1}
    # degree exactly cap is kept, cap + 1 is dropped
    assert L.mul(top, L.one) == top
    assert L.mul(top, t1) == {}
    assert L.mul(top, top) == {}
    # a dropped product whose exponent sum fills a field does not spill
    # into the next field of the kept terms
    lhs = L.add(top, L.mul(t1, t2))
    prod = L.mul(lhs, L.add(top, L.one))
    assert unpack(L, prod) == {(cap, 0, 0): 1, (0, 1, 1): 1}


def test_zero_divisors_cancel_over_z6():
    R = Zmod(6)
    L = PolyExt(R, 2, 3)
    a = pack(L, {(1, 0): 2, (0, 1): 3})
    b = pack(L, {(1, 0): 3})
    # (2 t0 + 3 t1)(3 t0) = 6 t0^2 + 9 t0 t1 = 3 t0 t1
    assert unpack(L, L.mul(a, b)) == {(1, 1): 3}
    c = pack(L, {(1, 0): 3, (0, 1): 2})
    d = pack(L, {(1, 0): 2, (0, 1): 3})
    # (3 t0 + 2 t1)(2 t0 + 3 t1) = 6 t0^2 + 13 t0 t1 + 6 t1^2 = t0 t1
    assert unpack(L, L.mul(c, d)) == {(1, 1): 1}
    assert L.add(pack(L, {(0, 0): 2}), pack(L, {(0, 0): 4})) == {}
    assert L.mul(pack(L, {(0, 0): 2}), pack(L, {(0, 0): 3})) == {}
    assert L.from_int(6) == {} and L.is_zero(L.from_int(12))


RING_LIKES = [DualExt(ZZ), DualExt(Zmod(6)), PolyExt(GF(3), 2, 3)]


def naive(L, x):
    """A payload as {exponent tuple: coefficient}; DualExt(R) is R[t]
    truncated above degree 1, with t = eps."""
    if isinstance(L, PolyExt):
        return unpack(L, x)
    return {(i,): c for i, c in enumerate(x) if not L.base.is_zero(c)}


def random_payload(L, rng):
    if isinstance(L, PolyExt):
        return pack(L, random_poly(L.base, rng, L.nvars, L.cap))
    return (random_coeff(L.base, rng), random_coeff(L.base, rng))


@pytest.mark.parametrize("L", RING_LIKES, ids=["DualExt(ZZ)", "DualExt(Z/6)", "PolyExt(GF(3),2,3)"])
def test_ringlike_dot_sum_eq_match_explicit_loops(L):
    R, cap = L.base, L.cap if isinstance(L, PolyExt) else 1
    rng = random.Random(20240615)
    for _ in range(100):
        k = rng.randint(0, 5)
        xs = [random_payload(L, rng) for _ in range(k)]
        ys = [random_payload(L, rng) for _ in range(k)]
        dot, total = {}, {}
        for x, y in zip(xs, ys):
            dot = naive_add(R, dot, naive_mul(R, cap, naive(L, x), naive(L, y)))
            total = naive_add(R, total, naive(L, x))
        assert naive(L, L.dot(xs, ys)) == dot
        assert naive(L, L.sum(xs)) == total
        assert L.eq(L.sum(xs), L.sum(reversed(xs)))
        for x, y in zip(xs, ys):
            for b in (x, y, L.add(x, L.from_int(6))):
                assert L.eq(x, b) == (naive(L, x) == naive(L, b))
