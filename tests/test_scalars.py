import random

import pytest
from hypothesis import given, settings, strategies as st

from octad.cayley import quaternions
from octad.scalars import (
    GF,
    NOT_A_UNIT,
    QQ,
    ZZ,
    DualNumbers,
    IntegerRing,
    ModularRing,
    PrimeField,
    ProductRing,
    RationalField,
    RingMismatch,
    Zmod,
    draw_below,
    product_ring,
    ring_op,
)
from fractions import Fraction

ALL_RINGS = [
    ZZ,
    QQ,
    GF(7),
    GF(2),
    Zmod(6),
    Zmod(8),
    ProductRing(ZZ, GF(3)),
    DualNumbers(ZZ),
    DualNumbers(QQ),
    product_ring(Zmod(6), Zmod(6), Zmod(6)),
]


def test_examples_mod7():
    a = GF(7).scalar(3)
    b = GF(7).scalar(5)
    assert ring_op("mul", a, b) == GF(7).scalar(1)


def test_examples_rationals():
    assert QQ.scalar(Fraction(2, 3)) + QQ.scalar(Fraction(1, 6)) == QQ.scalar(Fraction(5, 6))


def test_examples_dual():
    D = DualNumbers(ZZ)
    x = D.scalar((2, 3))
    y = D.scalar((4, 5))
    assert x * y == D.scalar((8, 22))


def test_invert_examples():
    assert GF(7).scalar(3).try_invert() == GF(7).scalar(5)
    assert ZZ.scalar(2).try_invert() is NOT_A_UNIT
    assert Zmod(6).scalar(5).try_invert() == Zmod(6).scalar(5)


def test_invert_modular_brute_force_oracle():
    for R in (*(Zmod(n) for n in (6, 8, 9, 12)), *(GF(p) for p in (2, 3, 5, 7))):
        n = R.n
        for a in range(n):
            got = R.scalar(a).try_invert()
            solutions = [b for b in range(n) if (a * b) % n == 1]
            if solutions:
                assert got == R.scalar(solutions[0])
            else:
                assert got is NOT_A_UNIT


def test_invert_product_and_dual():
    P = ProductRing(GF(5), Zmod(6))
    assert P.scalar((2, 5)).try_invert() == P.scalar((3, 5))
    assert P.scalar((2, 2)).try_invert() is NOT_A_UNIT
    D = DualNumbers(QQ)
    x = D.scalar((Fraction(2), Fraction(3)))
    inv = x.try_invert()
    assert x * inv == D.scalar((Fraction(1), Fraction(0)))


def test_nilpotent_examples():
    assert Zmod(8).scalar(2).is_nilpotent()
    assert not GF(5).scalar(2).is_nilpotent()
    assert DualNumbers(QQ).scalar((Fraction(0), Fraction(3))).is_nilpotent()
    assert not DualNumbers(QQ).scalar((Fraction(1), Fraction(3))).is_nilpotent()
    assert Zmod(12).scalar(6).is_nilpotent()
    assert not Zmod(12).scalar(4).is_nilpotent()


@pytest.mark.parametrize("ring", ALL_RINGS)
def test_ring_axioms_random(ring):
    rng = random.Random(42)
    for _ in range(50):
        a = ring.scalar(ring.rand(rng))
        b = ring.scalar(ring.rand(rng))
        c = ring.scalar(ring.rand(rng))
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
        assert a * b == b * a
        assert a + (-a) == ring.scalar(0)
        inv = a.try_invert()
        if inv is not NOT_A_UNIT:
            assert a * inv == ring.scalar(1)


def test_dual_product_second_component():
    rng = random.Random(3)
    D = DualNumbers(ZZ)
    for _ in range(100):
        a, b, c, d = (rng.randint(-9, 9) for _ in range(4))
        prod = D.scalar((a, b)) * D.scalar((c, d))
        assert prod.payload[1] == a * d + b * c


def test_ring_mismatch_raises():
    with pytest.raises(RingMismatch):
        ZZ.scalar(1) + QQ.scalar(1)


def test_gf_and_zmod_of_one_prime_stay_distinct_rings():
    for p in (2, 3, 5, 7):
        F, Z = GF(p), Zmod(p)
        assert F != Z and Z != F and not F == Z and hash(F) != hash(Z)
        with pytest.raises(RingMismatch):
            F.scalar(1) + Z.scalar(1)
        with pytest.raises(RingMismatch):
            Z.coerce(F.scalar(1))
        assert F.scalar(1) != Z.scalar(1)
        assert (F.is_field, F.is_connected, Z.is_field, Z.is_connected) == (True, True, False, True)
        for a in range(-p, 2 * p):
            assert F.render(a) == Z.render(a) and F.parse(F.render(a)) == Z.parse(Z.render(a))
        for seed in range(3):
            rf, rz = random.Random(seed), random.Random(seed)
            assert F.rand_vec(rf, 100) == Z.rand_vec(rz, 100) and rf.random() == rz.random()


def test_prime_field_rejects_composite():
    with pytest.raises(ValueError):
        GF(6)


def test_rendering():
    assert repr(ZZ.scalar(-4)) == "-4"
    assert repr(QQ.scalar(Fraction(3, 7))) == "3/7"
    assert repr(Zmod(6).scalar(11)) == "5 mod 6"
    assert repr(DualNumbers(ZZ).scalar((1, 2))) == "1 + 2*eps"


def test_connectivity_flags():
    assert ZZ.is_connected and QQ.is_connected and GF(5).is_connected
    assert Zmod(8).is_connected  # prime power
    assert not Zmod(6).is_connected
    assert not ProductRing(ZZ, ZZ).is_connected
    assert DualNumbers(Zmod(9)).is_connected


def test_scalar_immutability():
    s = ZZ.scalar(3)
    with pytest.raises(AttributeError):
        s.payload = 4


RATIONALS = st.one_of(
    st.integers(-(10**30), 10**30),
    st.fractions(max_denominator=10**6),
    st.integers(-50, 50).map(Fraction),
)


def assert_canonical(payload, value):
    """payload is QQ's form of value: an int iff value is integral, else a Fraction."""
    assert payload == value
    if Fraction(value).denominator == 1:
        assert type(payload) is int
    else:
        assert type(payload) is Fraction


@settings(derandomize=True, max_examples=400, deadline=None)
@given(RATIONALS, RATIONALS)
def test_qq_ops_agree_with_fraction_and_stay_canonical(a, b):
    fa, fb = Fraction(a), Fraction(b)
    pa, pb = QQ.validate(a), QQ.validate(b)
    assert_canonical(pa, fa)
    assert_canonical(pb, fb)
    # canonical inputs, and raw int/Fraction inputs such as Fraction(2, 1)
    for x, y in ((pa, pb), (a, b)):
        assert_canonical(QQ.add(x, y), fa + fb)
        assert_canonical(QQ.sub(x, y), fa - fb)
        assert_canonical(QQ.mul(x, y), fa * fb)
        assert_canonical(QQ.neg(x), -fa)
        if fa:
            assert_canonical(QQ.inv(x), 1 / fa)
        else:
            assert QQ.inv(x) is None
        assert QQ.is_zero(x) == (fa == 0)
        assert QQ.eq(x, y) == (fa == fb)
    assert_canonical(QQ.parse(QQ.render(pa)), fa)
    if isinstance(a, int):
        assert_canonical(QQ.from_int(a), fa)


def test_qq_constants_and_samples_are_ints():
    assert type(QQ.zero) is int and type(QQ.one) is int
    rng = random.Random(5)
    assert all(type(QQ.rand(rng)) is int for _ in range(50))
    assert_canonical(QQ.inv(-1), -1)
    assert_canonical(QQ.inv(Fraction(1, 3)), 3)
    assert_canonical(QQ.inv(4), Fraction(1, 4))
    with pytest.raises(TypeError):
        QQ.validate(0.5)


def test_integral_fraction_and_int_are_equal_and_hash_equal():
    a, b = QQ.scalar(Fraction(4, 2)), QQ.scalar(2)
    assert a == b and hash(a) == hash(b)
    assert type(a.payload) is int
    H = quaternions(QQ)
    x = H.element([Fraction(4, 2), Fraction(1, 2), 0, Fraction(-6, 3)])
    y = H.element([2, Fraction(2, 4), Fraction(0), -2])
    assert x == y and hash(x) == hash(y)
    assert len({x, y}) == 1


# -- the bulk draw kernel against CPython's randrange ------------------------------

DRAW_RINGS = [
    ZZ,
    QQ,
    GF(2),
    GF(7),
    GF(2**32 + 15),  # the least prime above 2^32: one draw at a time
    Zmod(6),
    Zmod(2**33 + 1),
    product_ring(Zmod(6), Zmod(6)),
    DualNumbers(ZZ),
]
DRAW_COUNTS = [0, 1, 63, 64, 65, 3001]


def reference_rand(R, rng):
    """The draw each ring made through the random module's own API."""
    if isinstance(R, (IntegerRing, RationalField)):
        return rng.randint(-9, 9)
    if isinstance(R, PrimeField):
        return rng.randrange(R.p)
    if isinstance(R, ModularRing):
        return rng.randrange(R.n)
    if isinstance(R, ProductRing):
        return (reference_rand(R.left, rng), reference_rand(R.right, rng))
    return (reference_rand(R.base, rng), reference_rand(R.base, rng))


@pytest.mark.parametrize("ring", DRAW_RINGS, ids=repr)
def test_rand_and_rand_vec_draw_the_random_module_stream(ring):
    for seed in range(4):
        for count in DRAW_COUNTS:
            bulk, single, ref = random.Random(seed), random.Random(seed), random.Random(seed)
            assert ring.rand_vec(bulk, count) == [ring.rand(single) for _ in range(count)]
            assert [ring.rand(single) for _ in range(5)] == [ring.rand(bulk) for _ in range(5)]
            ref_values = [reference_rand(ring, ref) for _ in range(count + 5)]
            single = random.Random(seed)
            assert [ring.rand(single) for _ in range(count + 5)] == ref_values
            assert bulk.random() == single.random() == ref.random()


@pytest.mark.parametrize("n", [1, 2, 3, 5, 6, 7, 19, 36, 216, 2**31 - 1, 2**31, 2**32 - 1, 2**32, 2**40 + 3])
def test_draw_below_is_randrange(n):
    for seed in range(6):
        for count in DRAW_COUNTS:
            bulk, ref = random.Random(seed), random.Random(seed)
            assert draw_below(bulk, n, count) == [ref.randrange(n) for _ in range(count)]
            assert bulk.random() == ref.random()
