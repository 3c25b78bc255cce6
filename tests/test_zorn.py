import itertools
import random

import pytest

from octad.identities import CostGuardError, run_suite, strict_identity_check
from octad.scalars import GF, ZZ
from octad.zorn import (
    _Entries,
    _from_coords,
    _product,
    _to_coords,
    count_field,
    gen_X,
    idem_E,
    invertibles_closed_form,
    norm_one_closed_form,
    presentation_suite,
    zorn_algebra,
)


def _zorn(R, a1, u2, u1, a2):
    """The element of zorn_algebra(R) with entries [[a1, u2], [u1, a2]]."""
    return zorn_algebra(R).element(_to_coords(R, _Entries(a1, u2, u1, a2)))


def test_generator_products():
    E, X1, X2 = idem_E(ZZ), gen_X(ZZ, 1), gen_X(ZZ, 2)
    X3 = gen_X(ZZ, 3)
    one = zorn_algebra(ZZ).one()
    assert E == _zorn(ZZ, 1, [0, 0, 0], [0, 0, 0], 0)
    assert X1 == _zorn(ZZ, 0, [-1, 0, 0], [1, 0, 0], 0)
    assert X2 == _zorn(ZZ, 0, [0, -1, 0], [0, 1, 0], 0)
    assert one == _zorn(ZZ, 1, [0, 0, 0], [0, 0, 0], 1)
    assert X1 * X2 == X3
    assert X1 * X1 == one
    assert X2 * X2 == one
    assert (X1 * X2) * X1 == -X2
    ex1 = _from_coords(ZZ, (E * X1).coords)
    assert ex1.a1 == 0 and ex1.a2 == 0
    assert list(ex1.u2) == [-1, 0, 0] and list(ex1.u1) == [0, 0, 0]


def test_norm_trace_degree2():
    # n(x) = a1 a2 + <u2, u1> and t(x) = a1 + a2 must close the degree-2
    # identity with the product convention
    rng = random.Random(4)
    one = zorn_algebra(ZZ).one()
    for _ in range(50):
        e = _random_entries(rng)
        x = _zorn(ZZ, *e)
        t = x.trace().payload
        n = x.norm().payload
        assert t == e.a1 + e.a2
        assert n == e.a1 * e.a2 + ZZ.dot(e.u2, e.u1)
        assert x * x - t * x == -n * one


def _random_entries(rng):
    return _Entries(
        rng.randint(-5, 5),
        [rng.randint(-5, 5) for _ in range(3)],
        [rng.randint(-5, 5) for _ in range(3)],
        rng.randint(-5, 5),
    )


def test_grassmann_identity_on_basis_triples():
    # (u x v) x w = <u, w> v - <v, w> u; trilinear, so basis triples suffice
    from octad.zorn import _cross

    R = ZZ
    basis = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    for u in basis:
        for v in basis:
            for w in basis:
                lhs = _cross(R, _cross(R, u, v), w)
                uw = R.dot(u, w)
                vw = R.dot(v, w)
                rhs = tuple(uw * b - vw * a for a, b in zip(u, v))
                assert tuple(lhs) == rhs


def test_presentation_suite():
    for ring in (ZZ, GF(5)):
        alg = zorn_algebra(ring)
        assert presentation_suite(alg, idem_E(ring), gen_X(ring, 1), gen_X(ring, 2)).holds
    alg = zorn_algebra(ZZ)
    assert not presentation_suite(alg, alg.one(), gen_X(ZZ, 1), gen_X(ZZ, 2)).holds


def test_strict_identities():
    for ring in (ZZ, GF(2), GF(3)):
        alg = zorn_algebra(ring)
        assert alg.check_degree2().holds
        for name in ("left-alternative", "right-alternative", "flexible"):
            assert strict_identity_check(alg, name).holds, (ring, name)
        for name, v in run_suite(alg, "moufang"):
            assert v.holds, (ring, name)
        assert strict_identity_check(alg, "norm-comp").holds


def test_conic_bridge():
    # products through the structure-constant table match the entry product
    rng = random.Random(9)
    for _ in range(30):
        x = _random_entries(rng)
        y = _random_entries(rng)
        assert _zorn(ZZ, *x) * _zorn(ZZ, *y) == _zorn(ZZ, *_product(ZZ, x, y))


def test_counts_f2():
    assert count_field(2, "invertibles") == 120
    assert count_field(2, "norm_one") == 120
    assert invertibles_closed_form(2) == 120
    assert norm_one_closed_form(2) == 120


def test_counts_f3():
    assert count_field(3, "invertibles") == 4320
    assert invertibles_closed_form(3) == 4320
    assert count_field(3, "norm_one") == norm_one_closed_form(3) == 2160


def test_counts_f5():
    assert count_field(5, "invertibles") == invertibles_closed_form(5)
    assert count_field(5, "norm_one") == norm_one_closed_form(5)


def test_elementary_idempotent_count_oracle_f2():
    # brute-force oracle over all 256 elements of Zorn(F2)
    alg = zorn_algebra(GF(2))
    import itertools

    count = 0
    for coords in itertools.product((0, 1), repeat=8):
        c = alg.element(list(coords))
        if alg.mul(c, c) == c and not c.is_zero() and c != alg.one():
            if alg.classify_idempotent(c) == "Elementary":
                count += 1
    assert count == count_field(2, "elementary_idempotents")


@pytest.mark.parametrize("p", [2, 3])
def test_censuses_against_brute_force(p):
    # every one of the p^8 elements; an elementary idempotent is a
    # nontrivial idempotent (over a field)
    R = GF(p)
    alg = zorn_algebra(R)
    one, zero = alg.one(), alg.zero()
    counts = {"invertibles": 0, "norm_one": 0, "elementary_idempotents": 0}
    for a1, a2, *u in itertools.product(range(p), repeat=8):
        x = _zorn(R, a1, u[:3], u[3:], a2)
        n = x.norm()
        counts["invertibles"] += not n.is_zero()
        counts["norm_one"] += n == 1
        counts["elementary_idempotents"] += x * x == x and x != zero and x != one
    assert counts == {what: count_field(p, what) for what in counts}


def test_cost_guard():
    with pytest.raises(CostGuardError):
        count_field(11, "invertibles")
