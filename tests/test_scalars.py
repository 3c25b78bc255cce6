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
    ProductRing,
    RingMismatch,
    Zmod,
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
    for n in (6, 8, 9, 12):
        R = Zmod(n)
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
