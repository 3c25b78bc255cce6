"""The packed-key PolyExt, and RingLike's derived operations on both
extensions, against a naive truncated product keyed by exponent
tuples; every fast addmul against RingLike's default."""

import copy
import itertools
import random
from fractions import Fraction

import pytest

from octad.extensions import DualExt, F2Lanes, PolyExt, RingLike
from octad.linalg import unit_sign
from octad.scalars import GF, QQ, ZZ, Zmod
from reference_paths import canonical, exponents


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


@pytest.mark.parametrize("R", [ZZ, GF(2), Zmod(6), QQ], ids=repr)
def test_polyext_add_and_sub_match_the_model_without_mutating(R):
    """add and sub share one merge loop: each equals the exponent-tuple
    model, with empty operands on either side and sums that cancel to
    zero, returns a new dict and leaves both arguments unchanged."""
    rng = random.Random(20241020)
    L = PolyExt(R, 3, 3)
    for _ in range(100):
        raw = [random_poly(R, rng, 3, 3) for _ in range(2)]
        raw.append({e: R.neg(c) for e, c in raw[0].items()})  # cancels raw[0]
        raw.append({})
        for a, b in itertools.product(raw, repeat=2):
            pa, pb = pack(L, a), pack(L, b)
            held = copy.deepcopy((pa, pb))
            for op, sign in ((L.add, 1), (L.sub, -1)):
                got = op(pa, pb)
                assert unpack(L, got) == naive_add(R, a, b, sign)
                assert not any(R.is_zero(c) for c in got.values())
                assert got is not pa and got is not pb and got is not L.zero
                assert (pa, pb) == held
    assert L.zero == {}


def test_polyext_add_and_sub_cancel_zero_divisors_over_z6():
    R = Zmod(6)
    L = PolyExt(R, 2, 2)
    a = pack(L, {(1, 0): 2, (0, 1): 3, (1, 1): 1})
    assert unpack(L, L.add(a, pack(L, {(1, 0): 4, (0, 1): 3}))) == {(1, 1): 1}
    assert unpack(L, L.sub(a, pack(L, {(1, 0): 2, (1, 1): 1}))) == {(0, 1): 3}
    assert L.add(a, L.neg(a)) == {} and L.sub(a, a) == {}
    assert unpack(L, L.sub({}, a)) == {(1, 0): 4, (0, 1): 3, (1, 1): 5}
    assert L.add({}, {}) == {} and L.sub({}, {}) == {}


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


FAST_ADDMUL = [
    QQ, GF(2), GF(7), Zmod(6),
    PolyExt(ZZ, 3, 3), PolyExt(QQ, 3, 3), PolyExt(GF(2), 3, 3), PolyExt(GF(3), 3, 3), PolyExt(Zmod(6), 3, 3),
]


@pytest.mark.parametrize("L", FAST_ADDMUL, ids=lambda L: f"PolyExt({L.base!r},3,3)" if isinstance(L, PolyExt) else repr(L))
def test_fast_addmul_matches_default(L):
    """Each override of addmul equals RingLike.addmul for constants of the
    signs 1, -1 and 0: onto a random acc, onto the shared zero and onto
    minus the product, where the sum cancels.  It returns canonical
    payloads, over PolyExt canonical coefficients, mutates neither
    factor, and never stores a zero coefficient or fills the shared zero."""
    assert type(L).addmul is not RingLike.addmul
    poly = isinstance(L, PolyExt)
    R = L.base if poly else L
    rng = random.Random(20241019)
    truncated = 0
    for _ in range(200):
        if poly:
            raw = [random_poly(R, rng, L.nvars, L.cap) for _ in range(3)]
            a, b, acc = (pack(L, p) for p in raw)
            truncated += naive_mul(R, L.cap, raw[0], raw[1]) != naive_mul(R, 2 * L.cap, raw[0], raw[1])
        else:
            a, b, acc = (random_coeff(R, rng) for _ in range(3))
        c = random_coeff(R, rng)
        while unit_sign(R, c) != 0:
            c = random_coeff(R, rng)
        # GF(2) has no constant of sign -1: there -1 is 1
        for c in dict.fromkeys((R.one, R.neg(R.one), c)):
            sign = unit_sign(R, c)
            want = RingLike.addmul(L, acc, a, b, c, sign)
            prod = RingLike.addmul(L, L.zero, a, b, c, sign)
            for start, total in ((acc, want), (L.zero, prod), (L.neg(prod), L.zero)):
                held = copy.deepcopy((a, b))
                # the fast addmul may add into a start of its own in place
                got = L.addmul(start if start is L.zero else copy.deepcopy(start), a, b, c, sign)
                assert got == total and type(got) is type(total)
                assert (a, b) == held
                if poly:
                    # PolyExt.mul is addmul onto zero, so the default shares its
                    # code; the exponent-tuple model does not
                    scaled = {e: R.mul(v, c) for e, v in naive_mul(R, L.cap, raw[0], raw[1]).items()}
                    assert unpack(L, got) == naive_add(R, unpack(L, start), scaled)
                    assert L.zero == {} and not any(R.is_zero(v) for v in got.values())
                    assert all(canonical(R, v) for v in got.values())
    # products above the cap were dropped, not only products below it
    assert truncated or not poly


def test_f2_lanes_are_gf2_at_every_point():
    """Bit l of every F2Lanes operation, derived ones included, is the
    GF(2) operation on bit l of its arguments."""
    F, N = GF(2), 9
    L = F2Lanes(N)
    assert L.one == L.from_base(F.one) == (1 << N) - 1 and L.from_base(F.zero) == L.zero == 0
    rng = random.Random(20261022)
    for _ in range(100):
        a, b, acc = (rng.getrandbits(N) for _ in range(3))
        got = (L.add(a, b), L.sub(a, b), L.mul(a, b), L.neg(a), L.addmul(acc, a, b, F.one, 1))
        for l in range(N):
            x, y, z = (v >> l & 1 for v in (a, b, acc))
            want = (F.add(x, y), F.sub(x, y), F.mul(x, y), F.neg(x), F.add(z, F.mul(x, y)))
            assert tuple(v >> l & 1 for v in got) == want
        assert L.eq(a, b) == (a == b) and L.is_zero(a) == (a == 0)
